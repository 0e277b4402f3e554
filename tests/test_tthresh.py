"""TTHRESH-like HOSVD codec unit tests."""
import numpy as np
import pytest

from repro import tthresh
from repro.tthresh.codec import _mode_factors, _tucker_compose, _tucker_core


def test_factors_orthonormal():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 9, 10))
    for u in _mode_factors(a):
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-8)


def test_core_compose_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 7, 8))
    factors = _mode_factors(a)
    core = _tucker_core(a, factors)
    back = _tucker_compose(core, factors)
    np.testing.assert_allclose(back, a, atol=1e-8)


def test_core_energy_concentrates():
    """Smooth (low-rank-ish) data puts most energy in the core corner."""
    x = np.linspace(0, 1, 32)
    a = np.outer(x, x).reshape(32, 32, 1) * np.ones((1, 1, 16))
    factors = _mode_factors(a)
    core = _tucker_core(a, factors)
    total = (core**2).sum()
    corner = (core[:2, :2, :2] ** 2).sum()
    assert corner > 0.99 * total


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_bound(eps):
    rng = np.random.default_rng(2)
    g = np.ogrid[0.0:1.0:25j, 0.0:1.0:24j, 0.0:1.0:23j]
    f = (np.sin(5 * g[0]) * np.cos(4 * g[1]) + g[2] + 0.02 * rng.standard_normal((25, 24, 23))).astype(
        np.float32
    )
    e = eps * float(f.max() - f.min())
    d = tthresh.decompress(tthresh.compress(f, e))
    assert np.abs(d - f.astype(np.float64)).max() <= e * (1 + 1e-9)


def test_2d_input():
    rng = np.random.default_rng(3)
    f = np.cumsum(rng.standard_normal((30, 40)), axis=0).astype(np.float32)
    e = 1e-3 * float(f.max() - f.min())
    d = tthresh.decompress(tthresh.compress(f, e))
    assert np.abs(d - f.astype(np.float64)).max() <= e * (1 + 1e-9)
