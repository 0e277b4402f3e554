"""Spline interpolation stencils for HPEZ / QoZ / SZ3 (paper §5.2, §5.4.2).

Each stencil maps a point's neighbours along one axis (in units of the
current interpolation stride ``s``) to a prediction. Offsets are in v-grid
units, where ``v`` is the stride-``s`` subsampled line: offset 1 == distance
``s`` in the original array.

Stencils (paper equation numbers):

* ``linear``       — Eq. 2:  (d[i-1] + d[i+1]) / 2
* ``cubic_nak``    — Eq. 6:  not-a-knot cubic spline, 4 points at +-1, +-3
* ``cubic_nat``    — Eq. 8:  natural cubic spline,    4 points at +-1, +-3
* ``cubic_nak_sl`` — Eq. 13: same-level not-a-knot,   4 points at +-1, +-2
* ``cubic_nat_sl`` — Eq. 14: same-level natural,      6 points at +-1..+-3

All weights sum to 1, so predictions are affine-invariant (exact on
constants); the inter-level cubics are exact on cubic polynomials and the
linear stencil on linear ones — properties pinned by unit tests.
"""
from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

#: name -> tuple of (offset, weight) pairs, offsets in stride units.
STENCILS: dict[str, tuple[tuple[int, float], ...]] = {
    "linear": ((-1, 0.5), (1, 0.5)),
    "cubic_nak": ((-3, -1 / 16), (-1, 9 / 16), (1, 9 / 16), (3, -1 / 16)),
    "cubic_nat": ((-3, -3 / 40), (-1, 23 / 40), (1, 23 / 40), (3, -3 / 40)),
    "cubic_nak_sl": ((-2, -1 / 6), (-1, 4 / 6), (1, 4 / 6), (2, -1 / 6)),
    "cubic_nat_sl": (
        (-3, 3 / 62),
        (-2, -18 / 62),
        (-1, 46 / 62),
        (1, 46 / 62),
        (2, -18 / 62),
        (3, 3 / 62),
    ),
}

#: splines selectable by the tuner as the per-level interpolation function.
SPLINE_CHOICES = ("linear", "cubic_nak", "cubic_nat")

#: inter-level spline -> matching same-level variant (paper §5.4.2).
SAME_LEVEL_OF = {"cubic_nak": "cubic_nak_sl", "cubic_nat": "cubic_nat_sl"}


def _neighbour(n1: int, t: np.ndarray, off: int) -> np.ndarray:
    """Indices ``t + off`` on an axis of last index ``n1``, made
    boundary-safe: an out-of-range index is mirrored about the target
    and, failing that, clamped to an even (always-known) index."""
    idx = t + off
    oob = (idx < 0) | (idx > n1)
    if oob.any():
        idx = np.where(oob, t - off, idx)
        oob = (idx < 0) | (idx > n1)
        if oob.any():
            idx = np.where(oob, np.clip(idx, 0, n1 - (n1 & 1)), idx)
    return idx


@lru_cache(maxsize=4096)
def _range_neighbour(n1: int, tpos: range, off: int) -> np.ndarray:
    """``_neighbour`` for a ``range`` of targets, cached (read-only)."""
    idx = _neighbour(n1, np.arange(tpos.start, tpos.stop, tpos.step), off)
    idx.flags.writeable = False
    return idx


def line_predict(
    v: np.ndarray, tpos: range | np.ndarray, stencil: str, axis: int = -1
) -> np.ndarray:
    """Predict values at indices ``tpos`` along axis ``axis`` of ``v``.

    ``v`` is the stride-subsampled working array (length n along
    ``axis``); the neighbours used are ``v[..., tpos + off, ...]`` along
    that axis, gathered in place so callers need not move the axis to the
    end. The result has ``v``'s shape with ``axis`` replaced by
    ``len(tpos)``. An out-of-range neighbour is mirrored about the target
    and, failing that, clamped to an even (always-known) index: the
    parity-safe boundary rule that lets the decompressor replay the walk
    without reading an unwritten point. The walk and the tuner pass a
    ``range``, whose neighbour indices are cached per (axis length,
    target range, offset); array targets are computed on every call.

    Terms accumulate into one output buffer in stencil order (``w0*t0``,
    then ``+= w1*t1`` ...), the same arithmetic and order for every axis.
    """
    n1 = v.shape[axis] - 1
    if isinstance(tpos, range):
        neighbour = partial(_range_neighbour, n1, tpos)
    else:
        neighbour = partial(_neighbour, n1, np.asarray(tpos))
    # indices are in range, so mode="clip" changes nothing but lets take
    # write straight into ``out`` (mode="raise" buffers it)
    (off0, w0), *rest = STENCILS[stencil]
    acc = np.take(v, neighbour(off0), axis=axis, mode="clip")
    acc *= w0
    buf = np.empty_like(acc)
    for off, w in rest:
        np.take(v, neighbour(off), axis=axis, out=buf, mode="clip")
        buf *= w
        acc += buf
    return acc
