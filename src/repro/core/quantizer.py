"""Linear error quantization (paper §4 step 3).

For each data value ``x`` with prediction ``p``, the error ``x - p`` is
quantized to an integer code ``q = round((x - p) / 2e)`` so the
reconstruction ``p + 2e*q`` is within the absolute error bound ``e``.
Codes are shifted by :data:`RADIUS` to be non-negative; code 0 is
reserved for *unpredictable* points whose exact value is stored in a
literal side stream (the SZ convention). :data:`RADIUS` is the one
definition of the radius: the walk, the coder's ``center`` and the
payload's engine config all read it.

There is no grid of codes: the walk hands each call the view of the
serialized stream that its targets own (of :data:`STREAM_DTYPE`,
uint16), a reshaped chunk of one ``interp.passes`` pass
(or a phase / no-FVFI / axis-0 slab sub-view of it), so codes are
written and read in pass order (DESIGN.md §7). That
order does not depend on same-level phase splits, slabs or the fvfi
traversal, so none of them changes the encoded size.
"""
from __future__ import annotations

import numpy as np


#: codes lie in ``[0, 2 RADIUS)``; residuals of ``RADIUS - 1`` steps or
#: more become literals
RADIUS = 32768

#: narrowest unsigned dtype holding every code, ``[0, 2 RADIUS)``
STREAM_DTYPE = np.min_scalar_type(2 * RADIUS - 1)


class QuantEncoder:
    """Quantize per-pass prediction errors into stream views."""

    def __init__(self) -> None:
        self._literals: list[np.ndarray] = []

    def quantize(
        self, pred: np.ndarray, truth: np.ndarray, eb: float, out: np.ndarray
    ) -> np.ndarray:
        """Quantize ``truth - pred`` under bound ``eb`` into the stream
        view ``out`` (``truth``'s shape); return the reconstruction."""
        q = truth - pred
        q /= 2.0 * eb
        np.rint(q, out=q)
        recon = q * (2.0 * eb)
        recon += pred
        # Outlier if the quantization index saturates or float rounding
        # pushed the reconstruction out of bound; the mask is only built
        # when a reduction says there is one.
        t = truth - recon
        np.abs(t, out=t)
        sat = RADIUS - 1
        if (
            t.max(initial=0.0) > eb
            or q.max(initial=0.0) >= sat
            or q.min(initial=0.0) <= -sat
        ):
            bad = t > eb
            np.abs(q, out=t)
            bad |= t >= sat
            # -RADIUS shifts to the literal code 0 (and keeps a saturated
            # q clear of the cast to the stream dtype)
            q[bad] = -RADIUS
            lits = truth[bad]
            recon[bad] = lits
            self._literals.append(lits)
        np.add(q, RADIUS, out=out, casting="unsafe")
        return recon

    def literals(self) -> np.ndarray:
        if not self._literals:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(self._literals).astype(np.float64)


class QuantDecoder:
    """Dequantize stream views, consuming literals in walk order."""

    def __init__(self, literals: np.ndarray) -> None:
        self._literals = literals
        self._lit_pos = 0

    def dequantize(self, pred: np.ndarray, eb: float, codes: np.ndarray) -> np.ndarray:
        recon = np.empty(codes.shape)
        # in float64: a narrow unsigned ``codes`` minus RADIUS would wrap
        np.subtract(codes, RADIUS, out=recon, dtype=np.float64)
        recon *= 2.0 * eb
        recon += pred
        # once every literal is used no zero code is left (interp.decompress
        # checks that the counts agree), so the mask is skipped
        if self._lit_pos < self._literals.size:
            bad = codes == 0
            nbad = int(np.count_nonzero(bad))
            if nbad:
                lits = self._literals[self._lit_pos : self._lit_pos + nbad]
                self._lit_pos += nbad
                recon[bad] = lits
        return recon
