"""ZFP-like codec unit tests."""
import numpy as np
import pytest

from repro import zfp
from repro.zfp.codec import (
    _blockify,
    _coef_classes,
    _fwd_lift,
    _inv_lift_exact,
    _unblockify,
)


def test_lift_near_inversion():
    """The integer lifting drops at most a few low-order bits (ZFP's
    transform is near-lossless on guarded int64 mantissas)."""
    rng = np.random.default_rng(0)
    t = rng.integers(-(2**40), 2**40, (64, 4, 4, 4)).astype(np.int64)
    t2 = t.copy()
    for ax in (1, 2, 3):
        _fwd_lift(t2, ax)
    for ax in (3, 2, 1):
        _inv_lift_exact(t2, ax)
    assert np.abs(t2 - t).max() <= 64


def test_lift_decorrelates_constant_block():
    t = np.full((1, 4), 1000, dtype=np.int64)
    _fwd_lift(t, 1)
    assert t[0, 0] == 1000
    assert np.abs(t[0, 1:]).max() <= 1


@pytest.mark.parametrize("shape", [(10,), (9, 7), (5, 6, 7), (13, 4, 9)])
def test_blockify_roundtrip(shape):
    rng = np.random.default_rng(1)
    a = rng.standard_normal(shape)
    back = _unblockify(_blockify(a), shape)
    np.testing.assert_array_equal(back, a)


@pytest.mark.parametrize("nd", [1, 2, 3])
def test_coef_classes(nd):
    cls = _coef_classes(nd)
    assert cls.size == 4**nd
    assert cls.min() == 0
    assert cls.max() == 3 * nd


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("shape", [(64,), (33, 21), (17, 18, 19)])
def test_bound_all_shapes(eps, shape):
    rng = np.random.default_rng(2)
    g = np.ogrid[tuple(slice(0.0, 1.0, complex(0, n)) for n in shape)]
    f = np.zeros(shape)
    for gr in g:
        f = f + np.sin(4 * np.pi * gr)
    f = (f + 0.1 * rng.standard_normal(shape)).astype(np.float32)
    e = eps * float(f.max() - f.min())
    d = zfp.decompress(zfp.compress(f, e))
    assert d.shape == shape
    assert np.abs(d - f.astype(np.float64)).max() <= e * (1 + 1e-9)


def test_constant_data():
    f = np.full((8, 8), 3.0, dtype=np.float32)
    d = zfp.decompress(zfp.compress(f, 1e-3))
    np.testing.assert_allclose(d, 3.0, atol=1e-6)


def test_cr_monotone_in_eps():
    rng = np.random.default_rng(3)
    f = np.cumsum(rng.standard_normal((40, 40, 20)), axis=0).astype(np.float32)
    r = float(f.max() - f.min())
    sizes = [len(zfp.compress(f, eps * r)) for eps in (1e-2, 1e-3, 1e-4)]
    assert sizes[0] < sizes[1] < sizes[2]


@pytest.mark.parametrize("scale, e", [(1e12, 1e-3), (1e9, 1e-6)])
def test_large_corrections_hold_the_bound(scale, e):
    """A bound far below the block mantissa's resolution needs
    corrections of many ``e``; they must not wrap at int8."""
    f = scale * np.random.default_rng(4).standard_normal((16, 16, 16))
    d = zfp.decompress(zfp.compress(f, e))
    assert np.abs(d - f).max() <= e
