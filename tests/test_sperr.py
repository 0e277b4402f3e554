"""SPERR-like wavelet codec unit tests."""
import numpy as np
import pytest

from repro import sperr
from repro.sperr import wavelet


@pytest.mark.parametrize("shape", [(16,), (33,), (16, 17), (8, 9, 10), (20, 31, 12)])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_wavelet_perfect_reconstruction(shape, levels):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    y = wavelet.inverse(wavelet.forward(x, levels), levels)
    np.testing.assert_allclose(y, x, atol=1e-10)


def test_wavelet_energy_concentrates():
    """A smooth signal's detail coefficients are small after 9/7."""
    x = np.sin(np.linspace(0, 4 * np.pi, 256))
    c = wavelet.forward(x, 1)
    approx, detail = c[:128], c[128:]
    assert np.abs(detail).max() < 0.05 * np.abs(approx).max()


def test_wavelet_constant_signal():
    x = np.full(64, 5.0)
    c = wavelet.forward(x, 2)
    y = wavelet.inverse(c, 2)
    np.testing.assert_allclose(y, x, atol=1e-10)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_bound(eps):
    rng = np.random.default_rng(1)
    g = np.ogrid[0.0:1.0:31j, 0.0:1.0:30j, 0.0:1.0:29j]
    f = (g[0] * np.sin(6 * g[1]) + np.cos(5 * g[2]) + 0.05 * rng.standard_normal((31, 30, 29))).astype(
        np.float32
    )
    e = eps * float(f.max() - f.min())
    d = sperr.decompress(sperr.compress(f, e))
    assert np.abs(d - f.astype(np.float64)).max() <= e * (1 + 1e-9)


def test_correction_list_engages_on_spiky_data():
    rng = np.random.default_rng(2)
    f = np.zeros((40, 40), dtype=np.float32)
    f[::7, ::7] = 100.0  # spikes force local wavelet overshoot
    f += rng.standard_normal((40, 40)).astype(np.float32)
    e = 1e-3 * float(f.max() - f.min())
    blob = sperr.compress(f, e)
    d = sperr.decompress(blob)
    assert np.abs(d - f.astype(np.float64)).max() <= e * (1 + 1e-9)


def test_cr_monotone_in_eps():
    rng = np.random.default_rng(3)
    f = np.cumsum(rng.standard_normal((40, 40)), axis=0).astype(np.float32)
    r = float(f.max() - f.min())
    sizes = [len(sperr.compress(f, eps * r)) for eps in (1e-2, 1e-3, 1e-4)]
    assert sizes[0] < sizes[2]
