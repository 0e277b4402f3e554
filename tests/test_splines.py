"""Unit tests for the spline stencils (paper Eqs. 2, 6, 8, 13, 14)."""
import numpy as np
import pytest

from repro.core import splines


def _last_axis_line_predict(v, tpos, stencil):
    """Reference: the evaluator as first written, gathering along the
    last axis with one temporary per stencil term."""
    tpos = np.asarray(tpos)
    n1 = v.shape[-1] - 1
    hi_even = n1 - (n1 & 1)
    acc = None
    for off, w in splines.STENCILS[stencil]:
        idx = tpos + off
        oob = (idx < 0) | (idx > n1)
        if oob.any():
            idx = np.where(oob, tpos - off, idx)
            oob = (idx < 0) | (idx > n1)
            if oob.any():
                idx = np.where(oob, np.clip(idx, 0, hi_even), idx)
        term = w * np.take(v, idx, axis=-1)
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("name", list(splines.STENCILS))
@pytest.mark.parametrize("shape", [(4, 7), (9, 2, 6), (3, 8, 5, 4)])
def test_native_axis_matches_last_axis_reference(name, shape):
    """Gathering along ``axis`` in place is bit-identical to moving the
    axis last: every axis, odd and even lengths, targets at both ends
    (mirror and clamp-to-even branches) and the same-level phase subsets.
    ``v`` is a strided view, as in the walk."""
    rng = np.random.default_rng(len(shape))
    big = rng.standard_normal(tuple(2 * n - 1 for n in shape))
    v = big[(slice(None, None, 2),) * len(shape)]
    for axis in range(v.ndim):
        tpos = range(1, v.shape[axis], 2)
        for t in (tpos, tpos[0::2], tpos[1::2]):
            if not t:
                continue
            got = splines.line_predict(v, t, name, axis=axis)
            ref = np.moveaxis(
                _last_axis_line_predict(np.moveaxis(v, axis, -1), t, name), -1, axis
            )
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_weights_sum_to_one(name):
    w = sum(w for _, w in splines.STENCILS[name])
    assert abs(w - 1.0) < 1e-12


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_exact_on_constants(name):
    v = np.full(32, 3.7)
    tpos = range(3, 28)
    pred = splines.line_predict(v, tpos, name)
    np.testing.assert_allclose(pred, 3.7, rtol=1e-12)


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_exact_on_linear(name):
    v = 0.5 * np.arange(64) - 3.0
    tpos = range(5, 58)
    pred = splines.line_predict(v, tpos, name)
    np.testing.assert_allclose(pred, v[tpos], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("name", ["cubic_nak", "cubic_nak_sl"])
def test_nak_exact_on_cubics(name):
    """The not-a-knot stencils reproduce cubic polynomials exactly."""
    x = np.arange(64, dtype=np.float64)
    v = 0.02 * x**3 - 0.5 * x**2 + x - 7
    tpos = range(5, 58)
    pred = splines.line_predict(v, tpos, name)
    np.testing.assert_allclose(pred, v[tpos], rtol=1e-9)


def test_natural_not_exact_on_quadratic():
    """Natural boundary conditions trade polynomial exactness for
    smoothing — Eq. 8 is intentionally biased on curved data."""
    x = np.arange(64, dtype=np.float64)
    v = x**2
    tpos = range(5, 58)
    pred = splines.line_predict(v, tpos, "cubic_nat")
    assert np.abs(pred - v[tpos]).max() > 1e-3


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_affine_invariance(name):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(40)
    tpos = range(4, 34)
    p1 = splines.line_predict(v, tpos, name)
    p2 = splines.line_predict(2.5 * v + 7.0, tpos, name)
    np.testing.assert_allclose(p2, 2.5 * p1 + 7.0, rtol=1e-9, atol=1e-9)


def test_linear_formula_eq2():
    v = np.array([1.0, 0.0, 3.0])
    pred = splines.line_predict(v, range(1, 2), "linear")
    assert pred[0] == pytest.approx(2.0)


def test_cubic_nak_formula_eq6():
    """Eq. 6 coefficients: -1/16, 9/16, 9/16, -1/16."""
    v = np.zeros(8)
    v[0] = 1.0  # i-3 neighbour of target 3
    pred = splines.line_predict(v, range(3, 4), "cubic_nak")
    assert pred[0] == pytest.approx(-1 / 16)


def test_cubic_nat_formula_eq8():
    v = np.zeros(8)
    v[2] = 1.0  # i-1 neighbour of target 3
    pred = splines.line_predict(v, range(3, 4), "cubic_nat")
    assert pred[0] == pytest.approx(23 / 40)


def test_same_level_formula_eq13():
    v = np.zeros(8)
    v[1] = 1.0  # i-2 neighbour of target 3
    pred = splines.line_predict(v, range(3, 4), "cubic_nak_sl")
    assert pred[0] == pytest.approx(-1 / 6)


def test_same_level_formula_eq14():
    v = np.zeros(8)
    v[0] = 1.0  # i-3 neighbour of target 3
    pred = splines.line_predict(v, range(3, 4), "cubic_nat_sl")
    assert pred[0] == pytest.approx(3 / 62)


@pytest.mark.parametrize("name", list(splines.STENCILS))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9])
def test_safe_predict_handles_edges(name, n):
    """Every target position produces a finite prediction, any length."""
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n)
    tpos = range(1, n, 2)
    pred = splines.line_predict(v, tpos, name)
    assert np.isfinite(pred).all()
    assert pred.shape == (len(tpos),)


def test_safe_predict_parity():
    """Edge fallbacks of odd-offset stencils only read even (known)
    indices — the parity invariant the decompressor depends on."""
    n = 9
    marker = np.full(n, np.nan)
    marker[0::2] = 1.0  # known points
    tpos = range(1, n, 2)
    for name in ("linear", "cubic_nak", "cubic_nat"):
        pred = splines.line_predict(marker, tpos, name)
        assert np.isfinite(pred).all(), name
