"""Kernel tests: differentiation, root finding, log-space tail arithmetic."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weibtail as wt
from weibtail import arrays, numerics
from weibtail.errors import (
    BelowRangeError,
    BracketMissError,
    EvalFailureError,
    NoConvergenceError,
    OutsideTailRegionError,
    StencilFailureError,
)
from weibtail.numerics import (
    _stencil,
    derivative,
    log_neg_log_cdf_derivs,
    log_neg_log_cdf_from_H,
    log_neg_log_cdf_margin,
    solve_increasing,
)
from weibtail.arrays import gumbel_coordinate_array


def _in_curve_context(fn, *args):
    """``fn(*args)`` in the floating-point context of ``arrays.curve``, where
    overflow to inf is the saturation the formulas expect."""
    with np.errstate(over="ignore"):
        return fn(*args)


def _gumbel_cdf(xs):
    """G_0(x) = exp(-e^-x) over an array, as ``arrays.curve`` forms it."""
    return _in_curve_context(lambda xs: np.exp(arrays._neg_exp_neg(xs)), xs)


# ---------------------------------------------------------------- derivative

def test_derivative_square_order1_exact():
    est = derivative(lambda x: x * x, 3.0, 1)
    assert est.value == pytest.approx(6.0, rel=1e-12)
    assert est.error < 1e-9


def test_derivative_exp_order2():
    est = derivative(math.exp, 0.0, 2)
    assert est.value == pytest.approx(1.0, rel=1e-8)


def test_derivative_sqrt_order1():
    est = derivative(math.sqrt, 100.0, 1)
    assert est.value == pytest.approx(0.05, rel=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_polynomial_exactness(order):
    # central stencils of order n are exact on polynomials of degree n+1,
    # so only rounding remains; a large step keeps the h^-order rounding
    # amplification away from the 1e-10 target (truncation is zero here)
    rng = np.random.default_rng(1234 + order)
    checked = 0
    while checked < 50:
        coeffs = rng.uniform(-2.0, 2.0, size=order + 2)
        x0 = rng.uniform(-2.0, 2.0)
        poly = np.polynomial.Polynomial(coeffs)
        expected = poly.deriv(order)(x0)
        if abs(expected) < 1.0:
            continue  # relative comparison is meaningless near a zero
        got = _stencil(lambda t: float(poly(t)), x0, 0.5 * max(abs(x0), 1.0), order)
        assert got == pytest.approx(expected, rel=1e-10)
        checked += 1


def test_derivative_known_higher_orders():
    assert derivative(math.sin, 0.3, 3).value == pytest.approx(-math.cos(0.3), rel=1e-6)
    assert derivative(math.sin, 0.3, 4).value == pytest.approx(math.sin(0.3), rel=1e-5)


def test_stencil_failure():
    with pytest.raises(StencilFailureError):
        derivative(lambda x: math.sqrt(x), 0.0, 1)  # negative side of stencil
    with pytest.raises(StencilFailureError):
        derivative(lambda x: math.nan, 1.0, 1)
    # a stencil past the domain's lower end refuses before it evaluates f
    calls = []
    with pytest.raises(StencilFailureError, match="reaches below the end 0.0"):
        derivative(lambda x: calls.append(x) or 1.0, 1e-3, 1, lower=0.0)
    assert calls == []
    assert derivative(math.sqrt, 1.0, 1, lower=0.0).value == pytest.approx(0.5, rel=1e-9)


def test_low_confidence_flag():
    est = derivative(math.exp, 1.0, 2, tol=1e-30)
    assert est.low_confidence
    est2 = derivative(math.exp, 1.0, 2, tol=1e-3)
    assert not est2.low_confidence


def test_order_validation():
    with pytest.raises(ValueError):
        derivative(math.exp, 0.0, 5)


# ----------------------------------------------------------- solve_increasing

def test_solve_sqrt():
    root = solve_increasing(math.sqrt, 5.0, lower=0.0)
    assert root == pytest.approx(25.0, rel=1e-12)


def test_solve_identity():
    root = solve_increasing(lambda x: x, 0.0)
    assert abs(root) < 1e-13


def _bisect_oracle(f, target, lo, hi, iters=200):
    # plain bisection, independent of the secant-accelerated implementation
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_x_plus_log_x():
    f = lambda x: x + math.log(x)
    # value frozen from a 50-digit solve of x + log x = 10; the in-test
    # bisection oracle reproduces it independently of the implementation
    frozen = 7.929420095019697
    oracle = _bisect_oracle(f, 10.0, 1.0, 20.0)
    assert oracle == pytest.approx(frozen, rel=1e-14)
    root = solve_increasing(f, 10.0, lower=1.0)
    assert root == pytest.approx(frozen, rel=1e-12)


def test_solve_many_random_monotone_functions():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        a, b, c = rng.uniform(0.0, 3.0, size=3)
        a += 0.01  # keep strictly increasing
        d = rng.uniform(-5.0, 5.0)
        f = lambda x, a=a, b=b, c=c, d=d: a * x + b * x**3 + c * math.log1p(x) + d
        u = rng.uniform(0.0, 10.0)
        target = f(u)
        root = solve_increasing(f, target, lower=0.0)
        assert abs(f(root) - target) <= 1e-12 * max(1.0, abs(target))


def test_solve_eval_failure():
    with pytest.raises(EvalFailureError):
        solve_increasing(lambda x: math.nan, 0.5, lower=0.0)


def test_solve_no_convergence_typed(monkeypatch):
    # sqrt above 0 needs more than three steps to reach 1e-13
    monkeypatch.setattr(numerics, "ROOT_MAX_ITER", 3)
    with pytest.raises(NoConvergenceError) as info:
        solve_increasing(math.sqrt, 5.5, lower=0.0)
    assert info.value.code == "no_convergence"


def test_solve_spacing_exhausted_returns_best():
    # a jump of 1 at x = 1 leaves no point within the residual tolerance;
    # the bracket shrinks to a few ulp and the best point seen is returned
    f = lambda x: x - 1.0 + (0.5 if x >= 1.0 else -0.5)
    root = solve_increasing(f, 0.0, lower=0.0)
    assert root == pytest.approx(1.0, rel=1e-14)


def test_solve_with_infinite_endpoint():
    # the bracket grows to hi = 8, where f = inf only constrains the sign;
    # the solve still converges
    f = lambda x: math.inf if x > 5.0 else x
    root = solve_increasing(f, 4.5, lower=0.0)
    assert root == pytest.approx(4.5, rel=1e-10)


def test_solve_grows_bracket_below_root():
    # the start bracket, about [1, 2] from lower = 1, lies wholly below the
    # root 1000 of x^3 = 1e9
    root = solve_increasing(lambda x: x**3, 1e9, lower=1.0)
    assert root == pytest.approx(1000.0, rel=1e-14)


def test_solve_grows_lo_left_unless_fixed():
    # f(lo) above the target: lo walks left from -1, or, with the lower end
    # fixed by ``lower``, the target is below the range
    root = solve_increasing(lambda x: x, -5.0)
    assert root == pytest.approx(-5.0, rel=1e-14)
    with pytest.raises(BelowRangeError) as info:
        solve_increasing(lambda x: x, -5.0, lower=0.0)
    assert (info.value.code, info.value.message) == ("below_range", "target -5.0 below f(1e-09)")


def test_solve_left_walk_misses_past_minus_1e300():
    # lo doubles from -1 until it passes -1e300; atan stays above -2
    with pytest.raises(BelowRangeError) as info:
        solve_increasing(math.atan, -2.0)
    assert (info.value.code, info.value.message) == ("below_range", "target -2.0 below f(-1e300)")


def test_solve_tolerance_relative_to_small_targets():
    # the residual band is 1e-14 of |target| below 1 too; a band of 1e-14
    # absolute accepted exp(-64) = 1.6e-28 for a target of 1e-20
    root = solve_increasing(math.exp, 1e-20)
    assert root == pytest.approx(math.log(1e-20), rel=1e-14)


def test_solve_capped_hi_misses():
    # hi doubles up to BRACKET_HI_CAP; a target above f(cap) is a miss
    with pytest.raises(BracketMissError) as info:
        solve_increasing(math.log, 1e4, lower=1.0)
    assert info.value.code == "bracket_miss"


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_solve_recovers_target_hypothesis(shift, slope):
    f = lambda x: slope * x + shift
    target = f(1.2345)
    root = solve_increasing(f, target, lower=-10.0)
    assert abs(f(root) - target) <= 1e-13 * max(1.0, abs(target))


# ------------------------------------------------------ log-space tail maths

def test_log_neg_log_cdf_array_matches_scalar():
    # both sides of the series switch at H = 7, and deep in the tail
    h = np.concatenate([np.geomspace(1e-300, 7.0, 500), np.linspace(7.0, 800.0, 500), [1e300]])
    # the exponential's H is x itself, so its T over the grid is T from H = h
    got = gumbel_coordinate_array(wt.exponential(), h)
    want = np.array([log_neg_log_cdf_from_H(v) for v in h])
    assert np.allclose(got, want, rtol=4.0 * np.finfo(float).eps, atol=0.0)

def test_lnlcdf_median_case():
    # H = log 2 puts F at 1/2, so -log(-log F) = -log(log 2)
    got = log_neg_log_cdf_from_H(math.log(2.0))
    assert got == pytest.approx(0.3665129205816643, rel=1e-14)


def test_lnlcdf_large_h_margin():
    # at H = 50 the gap to H is ~e^-50/2, far below one ulp of 50.0
    assert log_neg_log_cdf_from_H(50.0) == 50.0
    margin = log_neg_log_cdf_margin(50.0)
    assert 0.0 < margin < 1e-20


def test_lnlcdf_h2_against_high_precision():
    # frozen from 50-digit evaluation of -log(-log(1 - e^-2))
    frozen = 1.9281741606084144
    got = log_neg_log_cdf_from_H(2.0)
    assert got == pytest.approx(frozen, rel=1e-13)
    with mp.workdps(40):
        oracle = float(-mp.log(-mp.log(1 - mp.e**-2)))
    assert got == pytest.approx(oracle, rel=1e-13)


def test_lnlcdf_rejects_nonpositive():
    with pytest.raises(OutsideTailRegionError):
        log_neg_log_cdf_from_H(0.0)
    with pytest.raises(OutsideTailRegionError):
        log_neg_log_cdf_from_H(-1.0)


def test_lnlcdf_no_overflow_up_to_700():
    for h in (100.0, 400.0, 700.0):
        v = log_neg_log_cdf_from_H(h)
        assert math.isfinite(v) and v == h  # margin below double resolution
        assert log_neg_log_cdf_margin(h) > 0.0


@pytest.mark.parametrize("h", [1e-6, 0.01, 0.5, 1.0, 3.0, 6.9, 7.1, 20.0, 50.0, 300.0])
def test_lnlcdf_below_h_with_margin_bound(h):
    margin = log_neg_log_cdf_margin(h)
    assert margin > 0.0
    if h >= 1.0:
        # the float subtraction may differ from the margin by up to an ulp of h
        assert h - log_neg_log_cdf_from_H(h) == pytest.approx(margin, abs=2.0 * math.ulp(h))
        assert margin < 2.0 * math.exp(-h)


@given(st.floats(min_value=1e-3, max_value=650.0))
@settings(max_examples=200, deadline=None)
def test_lnlcdf_margin_positive_hypothesis(h):
    assert log_neg_log_cdf_margin(h) > 0.0


@pytest.mark.parametrize("u", [0.05, 0.3, 1.0, 3.0, 5.0, 6.9, 7.1, 10.0, 20.0, 40.0])
def test_lnlcdf_derivs_against_mpmath(u):
    T = lambda z: -mp.log(-mp.log(1 - mp.e**-z))
    got = log_neg_log_cdf_derivs(u)
    with mp.workdps(50):
        exact = [mp.diff(T, mp.mpf(u), n) for n in (1, 2, 3, 4)]
        for g, e in zip(got, exact):
            assert float(abs((mp.mpf(g) - e) / e)) < 3e-10


def test_lnlcdf_derivs_limits():
    g1, g2, g3, g4 = log_neg_log_cdf_derivs(600.0)
    assert g1 == 1.0
    assert g2 == pytest.approx(-0.5 * math.exp(-600.0), rel=1e-10)
    assert g3 > 0.0 > g4


# ---------------------------------------------------------------- F^n in logs
# The maxima curve is F^n(z) = exp(-e^(log n - T(z))) = G_0(T(z) - log n):
# the gumbel fixture (T(z) = z for z >= 0) gives T directly, and G_0 over
# an array takes any T, so at n = 1 it is F itself.


def _fn_at(t, log_n):
    """F^n at T = t through the array maxima curve of the gumbel fixture."""
    return _in_curve_context(arrays._maxima, wt.gumbel_fixture(), log_n, np.array([t]), 0.0, 1.0)[0]


def test_log_cdf_power_block_level():
    # T = log n means -log F = 1/n, the defining maxima level
    assert _fn_at(12.0, 12.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_log_cdf_power_n_equals_one():
    v = np.array([-3.0, 0.0, 2.5])  # log(-log F)
    got = _gumbel_cdf(-v - 0.0)
    for g, vi in zip(got, v):
        assert g == pytest.approx(math.exp(-math.exp(vi)), rel=1e-15)


def test_log_cdf_power_exponent_arithmetic():
    got = _fn_at(100.0 - math.log(2.0), 100.0)
    assert math.log(got) == pytest.approx(-2.0, rel=1e-12)
    assert got == pytest.approx(0.1353352832366127, rel=1e-12)


def test_log_cdf_power_saturation():
    # F = 0 below the support (T = -inf), e^(log n - T) overflowing at
    # T = -4.2, F = 1 at double precision (H overflows: T = +inf), and
    # e^(log n - T) below one ulp of 1
    steep = wt.pure_weibull(theta=0.01)
    fn = _in_curve_context(arrays._maxima, steep, 1000.0, np.array([-5.0, 0.5, 1e4]), 0.0, 1.0)
    assert fn[0] == 0.0 and fn[1] == 0.0 and fn[2] == 1.0
    assert _fn_at(2000.0, 50.0) == 1.0


def test_log_cdf_power_round_trip():
    rng = np.random.default_rng(7)
    f_val = rng.uniform(0.05, 0.95, 100)
    got = _gumbel_cdf(-np.log(-np.log(f_val)))
    assert np.allclose(got, f_val, rtol=1e-15, atol=0.0)
