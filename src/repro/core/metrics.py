"""Quality metrics used in the evaluation (paper §7.1.3): value range,
max abs error, MSE and PSNR (= 20 log10(range/RMSE))."""
from __future__ import annotations

import numpy as np


def value_range(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(x.max() - x.min())


def max_abs_err(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(x, np.float64) - np.asarray(y, np.float64))))


def mse(x: np.ndarray, y: np.ndarray) -> float:
    d = np.asarray(x, np.float64) - np.asarray(y, np.float64)
    return float(np.mean(d * d))


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical arrays."""
    r = value_range(x)
    m = mse(x, y)
    if m == 0:
        return float("inf")
    if r == 0:
        return float("-inf")
    return float(20.0 * np.log10(r) - 10.0 * np.log10(m))
