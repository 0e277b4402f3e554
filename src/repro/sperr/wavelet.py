"""CDF 9/7 wavelet transform (lifting scheme), multi-level, n-d.

The biorthogonal Cohen-Daubechies-Feauveau 9/7 wavelet is SPERR's
transform [27]. Implemented with the standard four lifting steps plus
scaling, symmetric (whole-point) boundary extension, vectorized along
the transform axis. The inverse reverses the steps, so
``inverse(forward(x))`` is exact to float rounding (pinned by tests).
"""
from __future__ import annotations

import numpy as np

_A = -1.586134342059924
_B = -0.052980118572961
_G = 0.882911075530934
_D = 0.443506852043971
_K = 1.230174104914001


def _sym(i: np.ndarray, n: int) -> np.ndarray:
    """Whole-point symmetric index extension (period 2n-2)."""
    if n == 1:
        return np.zeros_like(i)
    p = 2 * (n - 1)
    i = np.abs(i) % p
    return np.where(i >= n, p - i, i)


def _lift_pair(even: np.ndarray, odd: np.ndarray, coef: float, to_odd: bool) -> None:
    """odd += coef*(left_even + right_even) or the even-update mirror."""
    if to_odd:
        ne = even.shape[-1]
        no = odd.shape[-1]
        right_idx = _sym(np.arange(no) + 1, ne)
        odd += coef * (even[..., :no] + np.take(even, right_idx, axis=-1))
    else:
        no = odd.shape[-1]
        ne = even.shape[-1]
        left_idx = _sym(np.arange(ne) - 1, no)
        right_idx = _sym(np.arange(ne), no)
        even += coef * (
            np.take(odd, left_idx, axis=-1) + np.take(odd, right_idx, axis=-1)
        )


def _fwd_1d(x: np.ndarray) -> np.ndarray:
    """One forward 9/7 level along the last axis; returns [approx|detail]."""
    n = x.shape[-1]
    if n < 2:
        return x.copy()
    even = x[..., 0::2].copy()
    odd = x[..., 1::2].copy()
    _lift_pair(even, odd, _A, True)
    _lift_pair(even, odd, _B, False)
    _lift_pair(even, odd, _G, True)
    _lift_pair(even, odd, _D, False)
    even *= _K
    odd /= _K
    return np.concatenate([even, odd], axis=-1)


def _inv_1d(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_fwd_1d` for original length ``n``."""
    if n < 2:
        return x.copy()
    ne = (n + 1) // 2
    even = x[..., :ne].copy()
    odd = x[..., ne:].copy()
    even /= _K
    odd *= _K
    _lift_pair(even, odd, -_D, False)
    _lift_pair(even, odd, -_G, True)
    _lift_pair(even, odd, -_B, False)
    _lift_pair(even, odd, -_A, True)
    out = np.empty(x.shape[:-1] + (n,), dtype=x.dtype)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def _corners(shape: tuple[int, ...], levels: int) -> list[tuple[int, ...]]:
    """Shape of the approximation corner each of up to ``levels`` levels
    transforms, finest level first; a corner with an axis shorter than 2
    ends the list."""
    out = []
    cur = tuple(shape)
    while len(out) < levels and min(cur) >= 2:
        out.append(cur)
        cur = tuple((c + 1) // 2 for c in cur)
    return out


def forward(a: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level n-d 9/7 transform (separable, level-by-level on the
    shrinking approximation corner)."""
    out = a.astype(np.float64).copy()
    for cur in _corners(a.shape, levels):
        region = tuple(slice(0, c) for c in cur)
        sub = out[region]
        for ax in range(a.ndim):
            sub = np.moveaxis(_fwd_1d(np.moveaxis(sub, ax, -1)), -1, ax)
        out[region] = sub
    return out


def inverse(a: np.ndarray, levels: int) -> np.ndarray:
    """Invert :func:`forward` with the same level count."""
    out = a.astype(np.float64).copy()
    for cur in reversed(_corners(a.shape, levels)):
        region = tuple(slice(0, c) for c in cur)
        sub = out[region]
        for ax in range(a.ndim - 1, -1, -1):
            sub = np.moveaxis(
                _inv_1d(np.moveaxis(sub, ax, -1), cur[ax]), -1, ax
            )
        out[region] = sub
    return out
