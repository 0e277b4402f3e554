"""Quality-metric tests (paper §7.1.3)."""
import tracemalloc

import numpy as np
import pytest

from repro.core import metrics


def test_value_range():
    assert metrics.value_range(np.array([1.0, 4.0, -2.0])) == 6.0


def test_psnr_identity_is_inf():
    x = np.random.default_rng(0).standard_normal((10, 10))
    assert metrics.psnr(x, x) == np.inf


def test_psnr_known_value():
    x = np.zeros(100)
    x[0] = 1.0  # range 1
    y = x + 0.1  # rmse 0.1
    assert metrics.psnr(x, y) == pytest.approx(20.0, abs=1e-9)


def test_psnr_monotone_in_noise():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 20))
    p1 = metrics.psnr(x, x + rng.standard_normal(x.shape) * 1e-3)
    p2 = metrics.psnr(x, x + rng.standard_normal(x.shape) * 1e-2)
    assert p1 > p2


def test_max_abs_err():
    assert metrics.max_abs_err(np.array([1.0, 2.0]), np.array([1.5, 1.0])) == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32])
def test_error_metrics_equal_the_float64_copy_expressions(dtype):
    """One float64 difference gives the values the two float64 copies
    gave."""
    rng = np.random.default_rng(2)
    x = (rng.standard_normal((30, 40)) * 1000).astype(dtype)
    y = (x + rng.standard_normal(x.shape) * 7).astype(dtype)
    d = np.asarray(x, np.float64) - np.asarray(y, np.float64)
    assert metrics.max_abs_err(x, y) == float(np.max(np.abs(d)))
    assert metrics.mse(x, y) == float(np.mean(d * d))


def test_error_metrics_hold_one_float64_array():
    """A bound check on a float32 field holds one field-sized float64
    array, not copies of both inputs as well."""
    x = np.random.default_rng(3).standard_normal(500_000).astype(np.float32)
    y = x + np.float32(1e-3)
    for f in (metrics.max_abs_err, metrics.mse):
        tracemalloc.start()
        try:
            f(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * x.size
