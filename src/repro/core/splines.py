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

from functools import lru_cache

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
def _range_plan(
    n1: int, tpos: range, stencil: str
) -> tuple[slice, tuple[np.ndarray, ...]]:
    """For a ``range`` of targets on an axis of last index ``n1``: the
    span of the line that ``stencil`` reads, and each term's neighbour
    indices relative to that span; cached (read-only)."""
    t = np.arange(tpos.start, tpos.stop, tpos.step)
    idx = [_neighbour(n1, t, off) for off, _ in STENCILS[stencil]]
    lo = min(int(i.min()) for i in idx) if t.size else 0
    hi = max(int(i.max()) for i in idx) if t.size else n1
    for i in idx:
        i -= lo
        i.flags.writeable = False
    return slice(lo, hi + 1), tuple(idx)


def line_predict(
    v: np.ndarray, tpos: range, stencil: str, axis: int = -1
) -> np.ndarray:
    """Predict values at indices ``tpos`` along axis ``axis`` of ``v``.

    ``v`` is the stride-subsampled working array (length n along
    ``axis``); the neighbours used are ``v[..., tpos + off, ...]`` along
    that axis, gathered in place so callers need not move the axis to the
    end. The result has ``v``'s shape with ``axis`` replaced by
    ``len(tpos)``. An out-of-range neighbour is mirrored about the target
    and, failing that, clamped to an even (always-known) index: the
    parity-safe boundary rule that lets the decompressor replay the walk
    without reading an unwritten point. The rule depends only on the
    target index and n, so a caller may pass any sub-range of the
    targets. The neighbour indices are cached per (axis length, target
    range, stencil), and the reads are cut to the span of ``v`` they
    reach.

    The span read is copied once into a C-contiguous buffer (``np.take``
    would copy a strided source on every call). Terms accumulate into
    one output buffer in stencil order (``w0*t0``, then ``+= w1*t1``
    ...), the same arithmetic and order for every axis.
    """
    n1 = v.shape[axis] - 1
    terms = STENCILS[stencil]
    span, idx = _range_plan(n1, tpos, stencil)
    v = np.ascontiguousarray(v[(slice(None),) * (axis % v.ndim) + (span,)])
    # indices are in range, so mode="clip" changes nothing but lets take
    # write straight into ``out`` (mode="raise" buffers it)
    acc = np.take(v, idx[0], axis=axis, mode="clip")
    acc *= terms[0][1]
    buf = np.empty_like(acc)
    for i, (_, w) in zip(idx[1:], terms[1:]):
        np.take(v, i, axis=axis, out=buf, mode="clip")
        buf *= w
        acc += buf
    return acc
