"""Dynamic-order Lorenzo predictor codec (paper §6.5, design of [55]).

Implemented through the exact algebraic equivalence: with linear
quantization and no index saturation, Lorenzo prediction on
*reconstructed* values is identical to

    u = round(x / 2e)           (integer lattice, |x - 2e*u| <= e)
    codes = Δ u                  (n-d finite difference, once per axis)

because the reconstructed neighbourhood is exactly ``2e * u`` and the
quantized residual telescopes to the difference of the ``u`` field. The
second-order Lorenzo of [55] applies the difference operator twice.
This vectorizes both directions (diff / cumsum), which is how the codec
stays competitive inside the speed tables.

The dynamic order (1 vs 2) is chosen by actual encoded size.
"""
from __future__ import annotations

import numpy as np

from . import codes as codes_mod
from . import container, metrics

_MAX_INDEX = float(2**60)


def _forward(u: np.ndarray, order: int) -> np.ndarray:
    d = u
    for _ in range(order):
        for ax in range(u.ndim):
            d = np.diff(d, axis=ax, prepend=0)
    return d


def _inverse(d: np.ndarray, order: int) -> np.ndarray:
    u = d
    for _ in range(order):
        for ax in range(u.ndim - 1, -1, -1):
            u = np.cumsum(u, axis=ax)
    return u


def compress(data: np.ndarray, e: float) -> bytes:
    """Compress under absolute bound ``e``; raises ``OverflowError`` if
    the quantization lattice would overflow or holds no point within
    ``e`` of some value (caller falls back to interpolation)."""
    if e <= 0:
        raise ValueError("error bound must be positive")
    a = np.asarray(data, dtype=np.float64)
    scaled = a / (2.0 * e)
    if not np.isfinite(scaled).all() or np.abs(scaled).max(initial=0.0) > _MAX_INDEX:
        raise OverflowError("error bound too small for Lorenzo lattice")
    u = np.rint(scaled).astype(np.int64)
    # Floating rounding of 2e*u can overshoot the bound by ~1 ulp; nudge
    # the affected lattice indices so the guarantee is exact in float64.
    # Where e is only a few hundred ulps of the data, neither neighbour
    # may hold: the nudged points are checked again.
    nudged = []
    over = (a - 2.0 * e * u) > e
    if over.any():
        u[over] += 1
        nudged.append(np.flatnonzero(over))
    under = (a - 2.0 * e * u) < -e
    if under.any():
        u[under] -= 1
        nudged.append(np.flatnonzero(under))
    if nudged:
        i = np.concatenate(nudged)
        err = np.abs(a.flat[i] - 2.0 * e * u.flat[i])
        if not (err <= e * (1 + metrics.BOUND_SLACK)).all():
            raise OverflowError("no Lorenzo lattice point within the bound")
    blobs = {o: codes_mod.encode(_forward(u, o).ravel(), center=0) for o in (1, 2)}
    # the smaller stream; order 1 on a tie
    order = min(blobs, key=lambda o: len(blobs[o]))
    meta = {"shape": list(a.shape), "e": e, "order": order}
    return container.pack(
        [("meta", container.json_section(meta)), ("codes", blobs[order])]
    )


def decompress(payload: bytes) -> np.ndarray:
    sec = container.unpack(payload)
    meta = container.from_json(sec["meta"])
    shape = container.typed_tuple(meta, "shape", int)
    d = codes_mod.decode(sec["codes"]).reshape(shape)
    u = _inverse(d, container.typed(meta, "order", int, lambda v: v in (1, 2)))
    e = float(container.typed(meta, "e", float, container.positive))
    return 2.0 * e * u.astype(np.float64)
