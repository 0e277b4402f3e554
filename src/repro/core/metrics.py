"""Quality metrics used in the evaluation (paper §7.1.3): value range,
max abs error, MSE and PSNR (= 20 log10(range/RMSE))."""
from __future__ import annotations

import numpy as np

#: relative slack of the bound check ``max|x - x'| <= e·(1 + BOUND_SLACK)``:
#: a point on the lattice ``2e·u`` may overshoot ``e`` by an ulp of the data
BOUND_SLACK = 1e-6


def value_range(x: np.ndarray) -> float:
    """``max - min`` in float64. The extremes are taken in the input dtype
    (casting is monotonic, so they are the float64 extremes) without a
    float64 copy of the whole array."""
    x = np.asarray(x)
    return float(x.max()) - float(x.min())


def max_abs_err(x: np.ndarray, y: np.ndarray) -> float:
    """``max |x - y|`` in float64. Both metrics hold one float64 array,
    the difference, and work on it in place."""
    d = np.subtract(x, y, dtype=np.float64)
    np.abs(d, out=d)
    return float(np.max(d))


def mse(x: np.ndarray, y: np.ndarray) -> float:
    d = np.subtract(x, y, dtype=np.float64)
    np.square(d, out=d)
    return float(np.mean(d))


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical arrays."""
    r = value_range(x)
    m = mse(x, y)
    if m == 0:
        return float("inf")
    if r == 0:
        return float("-inf")
    return float(20.0 * np.log10(r) - 10.0 * np.log10(m))
