"""Point-wise correction list of the transform codecs zfp, sperr and
tthresh, which bound their error only on average: each lists the points
its in-loop reconstruction leaves farther than ``e`` from the input, so
every codec in the repo is strictly error-bounded (DESIGN.md §7). A
corrected point is within ``e / 2`` of its input.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import codes

#: most quantize-and-reconstruct tries of :func:`search_step`
MAX_TRIES = 4
#: share of points that may miss the bound and go to the list instead
MAX_MISS = 0.02

_CORRUPT = "corrupt correction list"


def search_step(
    a: np.ndarray,
    e: float,
    coef: np.ndarray,
    inverse: Callable[[np.ndarray], np.ndarray],
    shrink: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """SPERR's quality loop: quantize the transform coefficients ``coef``
    of ``a`` as ``q = rint(coef / 2step)`` from ``step = e``, and multiply
    the step by ``shrink`` while more than ``MAX_MISS`` of the points of
    ``inverse(2step * q)`` miss the bound. Returns ``(step, q,
    reconstruction)`` of the last try."""
    step = e
    for k in range(MAX_TRIES):
        q = np.rint(coef / (2.0 * step)).astype(np.int64)
        recon = inverse(2.0 * step * q.astype(np.float64))
        nbad = int(np.count_nonzero(np.abs(a - recon) > e))
        if nbad <= MAX_MISS * a.size or k == MAX_TRIES - 1:
            break
        step *= shrink
    return step, q, recon


def sections(a: np.ndarray, recon: np.ndarray, e: float) -> list[tuple[str, bytes]]:
    """Container sections listing the points of ``recon`` not within
    ``e`` of ``a``, NaN included (none when every point holds):
    ``corr_idx``, their flat indices delta-coded (the first index, then
    the gap to the previous one), and ``corr_val``, ``rint(err / e)`` for
    each, both through ``codes.encode``. Raises ``ValueError`` when a
    listed point would not decode within ``e`` through :func:`apply`: an
    error too large for an int64 multiple of ``e`` (``e`` far below the
    data's resolution) or a non-finite reconstruction."""
    err = (a - recon).ravel()
    idx = np.flatnonzero(~(np.abs(err) <= e))
    if not idx.size:
        return []
    with np.errstate(invalid="ignore"):  # NaN and |err / e| >= 2^63 wrap
        corr = np.rint(err[idx] / e).astype(np.int64)
    fixed = recon.ravel()[idx] + corr * e
    if not (np.abs(a.ravel()[idx] - fixed) <= e).all():
        raise ValueError(f"correction list cannot bound e = {e!r} on this input")
    return [
        ("corr_idx", codes.encode(np.diff(idx, prepend=0))),
        ("corr_val", codes.encode(corr)),
    ]


def apply(recon: np.ndarray, sec: dict[str, bytes], e: float) -> np.ndarray:
    """``recon`` with the corrections of the container sections ``sec``
    added. Indices that are not strictly increasing inside
    ``[0, recon.size)``, lists of different lengths, or one section
    without the other raise ``ValueError("corrupt correction list")``."""
    names = {"corr_idx", "corr_val"} & sec.keys()
    if not names:
        return recon
    if len(names) == 1:
        raise ValueError(_CORRUPT)
    didx = codes.decode(sec["corr_idx"])
    corr = codes.decode(sec["corr_val"])
    n = recon.size
    # a delta of n or more is past the end already; the cumsum could wrap
    if didx.size != corr.size or (
        didx.size
        and (didx[0] < 0 or didx[1:].min(initial=1) < 1 or didx.max() >= n)
    ):
        raise ValueError(_CORRUPT)
    idx = np.cumsum(didx)
    if idx.size and idx[-1] >= n:
        raise ValueError(_CORRUPT)
    flat = recon.ravel()
    flat[idx] += corr * e
    return flat.reshape(recon.shape)
