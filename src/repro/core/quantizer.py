"""Linear error quantization (paper §4 step 3).

For each data value ``x`` with prediction ``p``, the error ``x - p`` is
quantized to an integer code ``q = round((x - p) / 2e)`` so the
reconstruction ``p + 2e*q`` is within the absolute error bound ``e``.
Codes are shifted by ``radius`` to be non-negative; code 0 is reserved
for *unpredictable* points whose exact value is stored in a literal side
stream (the SZ convention).

Codes are scattered into an int32 array of the data's shape and
serialized pass by pass, in the order of ``interp.passes`` (DESIGN.md
§7). That order does not depend on same-level phase splits or on the
fvfi traversal, so neither changes the encoded size.
Unwritten positions (anchors) carry the neutral code ``radius`` (q=0).
"""
from __future__ import annotations

import numpy as np


class QuantEncoder:
    """Scatter-encoder: quantize per-pass prediction errors."""

    def __init__(self, shape: tuple[int, ...], radius: int = 32768) -> None:
        self.radius = int(radius)
        self.codes = np.full(shape, self.radius, dtype=np.int32)
        self._literals: list[np.ndarray] = []

    def quantize(
        self, pred: np.ndarray, truth: np.ndarray, eb: float, sel: tuple
    ) -> np.ndarray:
        """Quantize ``truth - pred`` under bound ``eb``; return the
        reconstruction and record codes at ``sel``."""
        err = truth - pred
        q = np.rint(err / (2.0 * eb))
        recon = pred + 2.0 * eb * q
        # Outlier if the quantization index saturates or float rounding
        # pushed the reconstruction out of bound.
        bad = (np.abs(q) >= self.radius - 1) | (np.abs(truth - recon) > eb)
        # clip before the int cast: saturated q may exceed int32
        chunk = (np.clip(q, -self.radius, self.radius) + self.radius).astype(
            np.int32
        )
        if bad.any():
            chunk[bad] = 0
            self._literals.append(np.ascontiguousarray(truth[bad]).ravel())
            recon = np.where(bad, truth, recon)
        self.codes[sel] = chunk
        return recon

    def literals(self) -> np.ndarray:
        if not self._literals:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(self._literals).astype(np.float64)


class QuantDecoder:
    """Decoder addressing the scattered code array by selection."""

    def __init__(
        self, codes: np.ndarray, literals: np.ndarray, radius: int = 32768
    ) -> None:
        self.radius = int(radius)
        self.codes = codes
        self._literals = literals
        self._lit_pos = 0

    def dequantize(self, pred: np.ndarray, eb: float, sel: tuple) -> np.ndarray:
        chunk = self.codes[sel]
        recon = pred + 2.0 * eb * (chunk.astype(np.float64) - self.radius)
        bad = chunk == 0
        nbad = int(bad.sum())
        if nbad:
            lits = self._literals[self._lit_pos : self._lit_pos + nbad]
            self._lit_pos += nbad
            recon[bad] = lits
        return recon
