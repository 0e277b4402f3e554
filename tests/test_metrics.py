"""Quality-metric tests (paper §7.1.3)."""
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
