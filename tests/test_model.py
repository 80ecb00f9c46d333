"""Model-family tests: hazards, k-function chain, regular variation, GEV."""

import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import weibtail as wt
from weibtail import arrays, numerics
from weibtail.cli import DEFAULT_T_GRID
from weibtail.errors import (
    BelowRangeError,
    BelowSupportError,
    EvalFailureError,
    StencilFailureError,
    TailUnderflowError,
    WeibtailError,
)
from weibtail.model import exact_level_for_gumbel_coordinate, hazard_jet, k_jet


def _in_curve_context(fn, *args):
    """``fn(*args)`` in the floating-point context of ``arrays.curve``, where
    overflow to inf is the saturation the formulas expect."""
    with np.errstate(over="ignore"):
        return fn(*args)


def _gev_cdf_array(g, xs):
    """G_g over points inside its support, as ``arrays.curve`` forms it."""
    return _in_curve_context(arrays._gev_cdf, g, xs, np.multiply(xs, g))


def _gev_cdf(g, x):
    return float(_gev_cdf_array(g, np.array([x]))[0])


def _gumbel_density(x):
    """g_0(x) = exp(-e^-x - x), as ``arrays.curve`` forms it."""
    xs = np.array([x])
    return float(_in_curve_context(lambda xs: np.exp(arrays._neg_exp_neg(xs) - xs), xs)[0])


@pytest.fixture(scope="module")
def models():
    return {
        "pw-0.25": wt.pure_weibull(theta=0.25),
        "pw-0.5": wt.pure_weibull(theta=0.5),
        "pw-2": wt.pure_weibull(theta=2.0),
        "pw-4": wt.pure_weibull(theta=4.0),
        "ext": wt.extended_weibull(beta=2.0, delta=1.0),
        "normal": wt.normal(),
        "exponential": wt.exponential(),
        "logistic": wt.logistic(),
        "gamma": wt.gamma_model(2.0),
        "fixture": wt.gumbel_fixture(),
    }


# ------------------------------------------------------------------ hazard H

def test_hazard_closed_forms():
    assert wt.cumulative_hazard(wt.pure_weibull(theta=2.0), 4.0) == pytest.approx(2.0)
    assert wt.cumulative_hazard(wt.pure_weibull(theta=0.5), 3.0) == pytest.approx(9.0)
    m = wt.weibull_type(2.0, wt.log_power(1.0), support_lower=1.5)
    assert wt.cumulative_hazard(m, math.e**4) == pytest.approx(4.0 * math.e**2, rel=1e-14)


def test_hazard_below_support():
    m = wt.extended_weibull(beta=2.0)
    with pytest.raises(BelowSupportError):
        wt.cumulative_hazard(m, 1.0)


def test_hazard_inverse_closed_forms():
    assert wt.cumulative_hazard_inverse(wt.pure_weibull(theta=2.0), 5.0) == pytest.approx(25.0)
    assert wt.cumulative_hazard_inverse(wt.pure_weibull(theta=0.5), 9.0) == pytest.approx(3.0)


def test_hazard_inverse_closed_form_checked():
    # at theta = 1e-100 no double has H(x) = 10: (10/c)^theta rounds to 1.0,
    # where H = 1, and the root is refused rather than returned
    with pytest.raises(WeibtailError, match=r"y=10\.0 has H\(x\)=1\.0") as info:
        wt.cumulative_hazard_inverse(wt.pure_weibull(theta=1e-100), 10.0)
    assert info.value.code == "no_convergence"
    # a root below the normal doubles is left to its callers' refusal
    assert wt.cumulative_hazard_inverse(wt.pure_weibull(theta=2.0), 1e-300) == 0.0
    # the check refuses no root of theta in [1e-9, 10], scale in [0.01, 100]
    # and log n in [0.05, 700], log-uniform, whose model has a finite c; an
    # infinite root (y/c past the double range) is returned unchecked
    rng = np.random.default_rng(11)
    lows = (math.log(1e-9), math.log(0.01), math.log(0.05))
    highs = (math.log(10.0), math.log(100.0), math.log(700.0))
    for theta, scale, y in np.exp(rng.uniform(lows, highs, (2000, 3))).tolist():
        try:
            m = wt.pure_weibull(theta=theta, scale=scale)
        except ValueError:  # scale^(-1/theta) past the double range
            continue
        x = wt.cumulative_hazard_inverse(m, y)
        assert x == math.inf or abs(wt.cumulative_hazard(m, x) - y) <= 2.0**-26 * y


def test_hazard_inverse_round_trip_log_l():
    # frozen: H(e^4) = 4 e^2 = 29.556224395722601 for theta=2, l = log
    m = wt.weibull_type(2.0, wt.log_power(1.0), support_lower=1.5)
    x = wt.cumulative_hazard_inverse(m, 29.556224395722601)
    assert x == pytest.approx(math.e**4, rel=1e-10)


def test_hazard_inverse_constant_l_matches_solver():
    # closed form (y/c)^theta against the generic root-finding path
    m = wt.pure_weibull(theta=2.0, scale=3.0)
    for y in (0.5, 5.0, 120.0):
        closed = wt.cumulative_hazard_inverse(m, y)
        solved = numerics.solve_increasing(lambda t: wt.cumulative_hazard(m, t), y, lower=0.0)
        assert solved == pytest.approx(closed, rel=1e-12)


def test_hazard_inverse_below_range():
    m = wt.extended_weibull(beta=2.0)
    with pytest.raises(BelowRangeError):
        wt.cumulative_hazard_inverse(m, 0.5 * wt.cumulative_hazard(m, m.support_lower))


# t from where e^-t overflows, through where the level e^(-e^-t) underflows
# (~ -6.6) and the closed-form switch (-log(log 2) ~ 0.367), to the t = 36 cut
_LEVEL_TS = sorted({*np.linspace(-8.0, 2.0, 201).tolist(), -1e3, -709.8, -100.0, -5.0, -3.6,
                    0.3665, 0.367, 5.0, 20.0, 35.9, 36.0})


def test_exact_level_and_inverse_against_mpmath():
    # the level y = -log(1 - e^(-e^-t)) and the pure-Weibull root x = y^theta
    # meet 40 digits, and the inverse refuses exactly where the level or the
    # root is below the normal double range
    eps = math.ulp(1.0)
    for t in _LEVEL_TS:
        with mp.workdps(40):
            level = -mp.log1p(-mp.exp(-mp.exp(-mp.mpf(t))))
            tol = 2.0 * eps * max(1, mp.exp(-t))  # e^-t's rounding, scaled by e^-t
            y = exact_level_for_gumbel_coordinate(t)
            assert abs(y - level) <= tol * level + 1e-322, (t, y, level)
            for theta in (0.5, 2.0):
                root = level**theta
                try:
                    x = wt.gumbel_coordinate_inverse(wt.pure_weibull(theta=theta), t)
                except WeibtailError as exc:
                    assert exc.code == "tail_underflow", (t, theta)
                    assert min(level, root) < sys.float_info.min, (t, theta)
                else:
                    assert min(level, root) >= sys.float_info.min, (t, theta)
                    assert abs(x - root) <= (theta * tol + 2.0 * eps) * root, (t, theta)
    # above a positive support endpoint the level is below H(support)
    with pytest.raises(BelowRangeError):
        wt.gumbel_coordinate_inverse(wt.extended_weibull(beta=2.0), -1e3)


@pytest.mark.parametrize("name", ["pw-0.25", "pw-0.5", "pw-2", "pw-4", "ext"])
def test_hazard_round_trip_wide_range(models, name):
    m = models[name]
    lo = max(m.support_lower, 0.0) + 1.0
    for x in np.geomspace(lo, 1e10, 12):
        y = wt.cumulative_hazard(m, x)
        back = wt.cumulative_hazard_inverse(m, y)
        assert back == pytest.approx(x, rel=1e-10)


@pytest.mark.parametrize("build", [wt.normal, wt.logistic], ids=["normal", "logistic"])
@pytest.mark.parametrize("x", [-3.0, -10.0, -30.0])
def test_left_walk_evaluates_no_point_twice(build, x):
    # the end lo leaves as it walks left bounds the root from above, so
    # bisection never lands on a point the walk already evaluated
    base = build()
    seen = []

    def log_sf(t):
        seen.append(t)
        return base.classical_log_sf(t)

    y = wt.cumulative_hazard(base, x)
    root = wt.cumulative_hazard_inverse(dataclasses.replace(base, classical_log_sf=log_sf), y)
    assert len(seen) == len(set(seen)), sorted(t for t in set(seen) if seen.count(t) > 1)
    assert root == pytest.approx(x, rel=1e-13)


_ONE_PASS_MODELS = {
    "ext-2": lambda: wt.extended_weibull(beta=2.0),
    "ext-0.5": lambda: wt.extended_weibull(beta=0.5),
    "normal": wt.normal,
    "exponential": wt.exponential,
    "logistic": wt.logistic,
    "gamma-0.5": lambda: wt.gamma_model(0.5),
    "gamma-5": lambda: wt.gamma_model(5.0),
}


def _recording(model):
    """The model with its hazard's varying part wrapped to record each x."""
    seen = []
    if model.family is wt.Family.CLASSICAL:
        log_sf = model.classical_log_sf
        return seen, dataclasses.replace(
            model, classical_log_sf=lambda x: seen.append(x) or log_sf(x))
    value = model.l.value
    l = dataclasses.replace(model.l, value=lambda x: seen.append(x) or value(x))
    return seen, dataclasses.replace(model, l=l)


@pytest.mark.parametrize("name", sorted(_ONE_PASS_MODELS))
@pytest.mark.parametrize("inverse", [wt.gumbel_coordinate_inverse, wt.cumulative_hazard_inverse])
def test_root_solve_evaluates_each_point_once(name, inverse):
    # bracket growth hands its residuals to the solve: no x is evaluated twice
    base = _ONE_PASS_MODELS[name]()
    seen, m = _recording(base)
    x_low = base.support_lower + 0.5 if math.isfinite(base.support_lower) else -1.5
    forward = wt.gumbel_coordinate if inverse is wt.gumbel_coordinate_inverse else wt.cumulative_hazard
    for level in (forward(base, x_low), 20.0, 300.0, 700.0):
        seen.clear()
        x = inverse(m, level)
        assert x == inverse(base, level)
        assert seen and len(seen) == len(set(seen)), (level, len(seen) - len(set(seen)))


# ------------------------------------------------------------------ k-chain

def test_k_fixture_identity():
    fx = wt.gumbel_fixture()
    for x in (0.5, 3.0, 40.0):
        assert wt.k_function(fx, x) == 1.0
        for order in (1, 2, 3):
            assert wt.k_derivative(fx, x, order) == 0.0


def test_k_exponential_tail_against_high_precision():
    # frozen 50-digit value of e^-5 / ((1-e^-5)(-log(1-e^-5)))
    m = wt.pure_weibull(theta=1.0)
    assert wt.k_function(m, 5.0) == pytest.approx(1.0033880055734658, rel=1e-13)


def test_k_approaches_hazard_slope():
    m = wt.pure_weibull(theta=2.0)
    k = wt.k_function(m, 1e6)
    assert k == pytest.approx(5e-4, rel=1e-6)  # H'(1e6) = 1/(2e3), e^-1000 away


@pytest.mark.parametrize("name", ["pw-0.25", "pw-0.5", "pw-2", "pw-4", "ext"])
def test_k_over_hazard_slope_bound(models, name):
    # |k/H' - 1| < 10 e^-H once H >= 5
    m = models[name]
    h_floor = wt.cumulative_hazard(m, m.support_lower) if m.support_lower > 0.0 else 0.0
    for target_h in (5.0, 8.0, 12.0):
        if target_h <= h_floor:
            continue
        x = wt.cumulative_hazard_inverse(m, target_h)
        h, d1 = hazard_jet(m, x, 1)
        assert h == wt.cumulative_hazard(m, x)
        ratio = wt.k_function(m, x) / d1
        assert abs(ratio - 1.0) < 10.0 * math.exp(-target_h)


# every catalog model, on both sides of theta = 1 where theta is a parameter
ONE_JET_MODELS = (
    ("pure-weibull", {"theta": 2.0}), ("pure-weibull", {"theta": 0.5}),
    ("extended-weibull", {"beta": 2.0}), ("extended-weibull", {"beta": 0.5}),
    ("normal", {}), ("exponential", {}), ("logistic", {}),
    ("gamma", {"shape": 0.5}), ("gamma", {"shape": 2.0}), ("gamma", {"shape": 5.0}),
    ("gumbel-fixture", {}),
)


@pytest.mark.parametrize("name, params", ONE_JET_MODELS,
                         ids=[f"{n}-{'-'.join(f'{v:g}' for v in p.values())}".rstrip("-")
                              for n, p in ONE_JET_MODELS])
def test_one_hazard_jet_per_point(name, params):
    # at b_n and on the default t-grid, a jet of one order is the prefix of
    # the order-3 jet, k is the order-1 jet's k, and every hazard jet's H is
    # cumulative_hazard's, all to the bit
    m = wt.build_model(name, **params)
    xs = list(DEFAULT_T_GRID)
    for log_n in (1.0, 10.0, 100.0, 700.0):
        try:
            xs.append(wt.gumbel_coordinate_inverse(m, log_n))
        except BelowRangeError:  # below an extended-Weibull support floor
            assert name == "extended-weibull" and log_n == 1.0
    for x in xs:
        h = wt.cumulative_hazard(m, x).hex()
        assert [hazard_jet(m, x, r)[0].hex() for r in range(1, 5)] == [h] * 4, x
        assert wt.k_function(m, x).hex() == k_jet(m, x, 1).values[0].hex(), x
        full = [v.hex() for v in k_jet(m, x, 3).values]
        for r in (1, 2):
            assert [v.hex() for v in k_jet(m, x, r).values] == full[: r + 1], (x, r)


def test_k_derivative_asymptote_order1():
    # k'(1e6) ~ H''(1e6) = -(1/4) x^(-3/2) for theta = 2
    m = wt.pure_weibull(theta=2.0)
    assert wt.k_derivative(m, 1e6, 1) == pytest.approx(-2.5e-10, rel=1e-4)


@pytest.mark.parametrize("x", [8.0, 50.0, 1000.0])
def test_k_chain_against_mpmath(x):
    # independent oracle: 300-digit differentiation of -log(-log F) for the
    # tail model with theta = 2, l = log x (exercises the H-block, the
    # chain weights, and their composition at all three orders)
    m = wt.weibull_type(2.0, wt.log_power(1.0), support_lower=1.5)
    T = lambda z: -mp.log(-mp.log(1 - mp.e ** (-mp.sqrt(z) * mp.log(z))))
    k0, k1, k2, k3 = k_jet(m, x).values
    with mp.workdps(300):
        for got, order in ((k0, 1), (k1, 2), (k2, 3), (k3, 4)):
            exact = mp.diff(T, mp.mpf(x), order)
            assert float(abs((mp.mpf(got) - exact) / exact)) < 5e-9, (x, order)


def test_k_classical_exponential_derivative_against_mpmath():
    m = wt.exponential()
    T = lambda z: -mp.log(-mp.log(1 - mp.e**-z))
    for x in (3.0, 10.0, 30.0):
        got = wt.k_derivative(m, x, 1)
        with mp.workdps(50):
            exact = mp.diff(T, mp.mpf(x), 2)
            assert float(abs((mp.mpf(got) - exact) / exact)) < 1e-11


def test_k_cross_path_consistency(models):
    # analytic chain vs Richardson differentiation of k itself
    for name in ("pw-0.25", "pw-0.5", "pw-2", "pw-4", "ext"):
        m = models[name]
        for x in (1e2, 1e4):
            for order, rel in ((1, 1e-6), (2, 1e-4)):
                a = wt.k_derivative(m, x, order, method="analytic")
                jet = k_jet(m, x, order, method="numeric")
                n, err = jet.values[order], jet.errors[order - 1]
                if a == 0.0:
                    assert abs(n) <= max(10.0 * err, 1e-12)
                else:
                    assert n == pytest.approx(a, rel=rel), (name, x, order)


def test_k_derivative_methods_reported():
    m = wt.pure_weibull(theta=2.0)
    assert k_jet(m, 100.0, 1).method == "analytic"
    jet = k_jet(m, 100.0, 1, method="numeric")
    assert jet.method == "numeric" and jet.errors is not None


def _exponential_log_sf(x):
    return -x if x > 0.0 else 0.0


def _exponential_log_pdf(x):
    return -x if x > 0.0 else -math.inf


def test_k_numeric_fallback_without_hazard_block():
    # classical model carrying log sf and log pdf only: numeric path is mandatory
    base = wt.exponential()
    bare = wt.WeibullTypeModel(
        family=wt.Family.CLASSICAL,
        theta=1.0,
        label="bare-exponential",
        support_lower=0.0,
        classical_log_sf=base.classical_log_sf,
        classical_log_pdf=_exponential_log_pdf,
    )
    assert not bare.analytic_k_path
    jet = k_jet(bare, 4.0, 1)
    assert jet.method == "numeric"
    ref = wt.k_derivative(base, 4.0, 1)
    assert jet.values[1] == pytest.approx(ref, rel=1e-7)


def test_k_log_pdf_route_reads_log_sf_once_per_point():
    # H and the hazard e^(log f + H) share one log sf call; k_jet's
    # Richardson stencils evaluate k at 32 points (23 distinct)
    base = wt.exponential()
    calls = []

    def log_sf(x):
        calls.append(x)
        return base.classical_log_sf(x)

    bare = wt.WeibullTypeModel(
        family=wt.Family.CLASSICAL,
        theta=1.0,
        label="counted-exponential",
        support_lower=0.0,
        classical_log_sf=log_sf,
        classical_log_pdf=_exponential_log_pdf,
    )
    k = wt.k_function(bare, 4.0)
    assert calls == [4.0]
    assert k == math.exp(_exponential_log_pdf(4.0) - base.classical_log_sf(4.0)) * (
        numerics.log_neg_log_cdf_derivs(-base.classical_log_sf(4.0))[0])
    calls.clear()
    k_jet(bare, 4.0, 3)
    assert len(calls) == 32


def test_numeric_stencil_below_the_support_end_is_a_stencil_failure():
    # x inside the support, but the numeric route's first stencil reaches
    # below its end: the step does not fit, and the refusal names x, the
    # step and the end, before any evaluation past it
    weibull = wt.pure_weibull(theta=0.5)
    with pytest.raises(StencilFailureError, match=r"x=1e-09 with step 0\.0058\d* reaches below the end 0\.0"):
        k_jet(weibull, 1e-9, 1, method="numeric")
    assert all(map(math.isfinite, k_jet(weibull, 1e-9, 1).values))
    # a classical model with a log pdf only takes the numeric route by default
    shifted = wt.WeibullTypeModel(
        family=wt.Family.CLASSICAL,
        theta=1.0,
        label="shifted-exponential",
        support_lower=1.0,
        classical_log_sf=lambda x: 1.0 - x if x > 1.0 else 0.0,
        classical_log_pdf=lambda x: 1.0 - x if x >= 1.0 else -math.inf,
    )
    for order in (1, 2, 3):
        with pytest.raises(StencilFailureError, match=r"x=1\.001 with step .* below the end 1\.0"):
            k_jet(shifted, 1.001, order)
    assert k_jet(shifted, 4.0, 3).method == "numeric"


def test_k_tail_underflow_classical():
    # a log sf taken from the cdf: at x = 40 the cdf rounds to 1.0, so the
    # survival it implies is exactly 0 and k is undefined
    def log_sf(x):
        p = -math.expm1(-x) if x > 0.0 else 0.0
        return math.log1p(-p) if p < 1.0 else -math.inf

    bare = wt.WeibullTypeModel(
        family=wt.Family.CLASSICAL,
        theta=1.0,
        label="cdf-rounded-exponential",
        support_lower=0.0,
        classical_log_sf=log_sf,
        classical_log_pdf=_exponential_log_pdf,
    )
    assert bare.classical_log_sf(40.0) == -math.inf
    with pytest.raises(TailUnderflowError):
        wt.k_function(bare, 40.0)


@pytest.mark.parametrize("shape, x", [
    (0.5, 1e-300),  # the chain weights' a**3 overflows at H ~ 1e-150
    (2.0, 1e-160),  # x^3 underflows in the hazard jet
    (1e-3, 1e-300),  # x^2 and x^3 underflow in the hazard jet
    (200.0, 2.0),  # 1/H overflows at a subnormal H, where a**3 does not raise
])
def test_k_layer_overflow_refused(shape, x):
    # k and every k-derivative order refuse alike, with a typed code
    m = wt.gamma_model(shape)
    calls = [lambda: wt.k_function(m, x)]
    calls += [lambda order=order: wt.k_derivative(m, x, order) for order in (1, 2, 3)]
    for call in calls:
        with pytest.raises(EvalFailureError) as info:
            call()
        assert info.value.code == "eval_failure"
    # the gamma tail is evaluated in log space: log Q(2, 1e6) ~ -1e6 is finite
    k = wt.k_function(wt.gamma_model(2.0), 1e6)
    with mp.workdps(50):
        x = mp.mpf(10) ** 6
        exact = x * mp.exp(-x) / mp.gammainc(2, x, mp.inf)  # hazard; g'(H) = 1 here
    assert math.isfinite(k)
    assert float(abs((mp.mpf(k) - exact) / exact)) < 1e-14


def test_constant_l_jet_past_x_squared():
    # pure-Weibull theta = 2 at x = 1e200, where x^2 and x^3 leave the
    # doubles: k = x^-1/2 / 2 and k' = -x^-3/2 / 4, since g_1 = 1 and g_2 = 0
    # at H = 1e100; the next two entries underflow to 0
    x = 1e200
    k, k1, k2, k3 = k_jet(wt.pure_weibull(theta=2.0), x, 3).values
    assert k == pytest.approx(0.5 * x**-0.5, rel=1e-15)
    assert k1 == pytest.approx(-0.25 * x**-1.5, rel=1e-15)
    assert abs(k2) < 1e-300 and abs(k3) < 1e-300


def test_k_function_refuses_a_non_finite_k():
    # H = 3.4e-7 is finite at x = 5e-324, but H' = 0.02 x^-0.98 is past the
    # double range: k_function refuses, as the order-1 jet does
    m = wt.pure_weibull(theta=50.0)
    assert math.isfinite(wt.cumulative_hazard(m, 5e-324))
    for call in (lambda: wt.k_function(m, 5e-324), lambda: k_jet(m, 5e-324, 1)):
        with pytest.raises(EvalFailureError):
            call()


@pytest.mark.parametrize("x, finite_orders, code", [
    # a zero bracket in the hazard jet is 0 where x^(c - j) overflows
    (0.0, 3, None),
    (1e-160, 3, None),
    (1e-300, 3, None),
    # a constant l's decay ratios are 0, also where x^2 l'' would be inf * 0
    (1e200, 3, None),
    (math.inf, -1, "tail_underflow"),  # H = inf: F = 1 at double precision
    (math.nan, -1, "tail_underflow"),
])
def test_k_layer_log_cdf_exp_finite_or_typed(x, finite_orders, code):
    # -log F = e^-H, where k = H': every k-layer entry is exact (k = 1,
    # k' = 0 for the fixture) or refused with a typed code, never NaN
    fx = wt.gumbel_fixture()
    for order in range(4):
        calls = [lambda: wt.k_function(fx, x)]
        if order:
            calls = [lambda: k_jet(fx, x, order).values[order],
                     lambda: wt.k_derivative(fx, x, order)]
        for call in calls:
            if order <= finite_orders:
                assert call() == (0.0 if order else 1.0), (x, order)
                continue
            with pytest.raises(WeibtailError) as info:
                call()
            assert info.value.code == code, (x, order, info.value.message)


# ------------------------------------------------------- regular variation

def _rv_ratios(model, x):
    """(x k'/k, x^2 k''/k, x^3 k'''/k): the limits are (c-1), (c-1)(c-2)
    and (c-1)(c-2)(c-3) with c = 1/theta."""
    k0, k1, k2, k3 = k_jet(model, x).values
    return x * k1 / k0, x * x * k2 / k0, x**3 * k3 / k0


def test_rv_ratios_theta2():
    m = wt.pure_weibull(theta=2.0)
    r1, r2, r3 = _rv_ratios(m, 1e8)
    assert r1 == pytest.approx(-0.5, rel=0.01)
    assert r2 == pytest.approx(0.75, rel=0.01)
    assert r3 == pytest.approx(-1.875, rel=0.01)


def test_rv_ratios_theta_half():
    m = wt.pure_weibull(theta=0.5)
    r1, r2, r3 = _rv_ratios(m, 1e8)
    assert r1 == pytest.approx(1.0, rel=0.01)
    assert r2 == pytest.approx(0.0, abs=0.02)
    assert r3 == pytest.approx(0.0, abs=0.02)


def test_rv_ratios_fixture_zero():
    fx = wt.gumbel_fixture()
    assert _rv_ratios(fx, 100.0) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("theta", [0.25, 0.5, 2.0, 4.0])
def test_rv_ratios_limits_at_1e10(theta):
    c = 1.0 / theta
    expected = ((c - 1.0), (c - 1.0) * (c - 2.0), (c - 1.0) * (c - 2.0) * (c - 3.0))
    got = _rv_ratios(wt.pure_weibull(theta=theta), 1e10)
    for g, e in zip(got, expected):
        if e == 0.0:
            assert abs(g) < 0.005
        else:
            assert g == pytest.approx(e, rel=0.005)


def test_normal_theta_diagnostic():
    # 1 + r1 -> 1/theta = 2 for the Normal
    r1 = _rv_ratios(wt.normal(), 100.0)[0]
    assert 1.0 / (1.0 + r1) == pytest.approx(0.5, abs=1e-3)


# ------------------------------------------------------------------- GEV

def test_gev_gumbel_point():
    assert _gev_cdf(0.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert _gumbel_density(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gev_frechet_point():
    assert _gev_cdf(1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gev_continuity_at_zero_shape():
    target = math.exp(-math.exp(-1.0))
    assert _gev_cdf(1e-12, 1.0) == pytest.approx(target, rel=1e-10)
    assert _gev_cdf(-1e-12, 1.0) == pytest.approx(target, rel=1e-10)
    # seam: series branch meets the log1p branch
    lo, hi = _gev_cdf(0.9999e-8, 1.3), _gev_cdf(1.0001e-8, 1.3)
    assert lo == pytest.approx(hi, rel=1e-12)


def test_gev_tiny_shape_against_mpmath():
    # |gamma| < 1e-8 takes the series only where |gamma x| < 1e-5; out to
    # |x| = 1e6 the points past that take the log1p form
    g = 1e-9
    half = np.geomspace(1e-3, 1e6, 100)
    xs = np.concatenate([-half[::-1], [0.0], half])
    got = _gev_cdf_array(g, xs)
    with mp.workdps(40):
        for x, value in zip(xs, got):
            w = mp.log1p(mp.mpf(g) * mp.mpf(x)) / mp.mpf(g)
            # below w = -10, e^-w > 2e4 and G = exp(-e^-w) underflows to 0
            want = 0.0 if w < -10 else float(mp.exp(-mp.exp(-w)))
            assert value == pytest.approx(want, rel=1e-12, abs=1e-300), x


def test_gev_monotone_in_x_continuous_in_gamma():
    gammas = np.linspace(-0.4, 0.4, 100)
    xs = np.linspace(-2.0, 5.0, 100)
    prev_row = None
    for g in gammas:
        valid = 1.0 + g * xs > 0.0
        row = _gev_cdf_array(float(g), xs[valid])
        assert np.all(np.diff(row) >= 0.0)
        if prev_row is not None and prev_row.shape == row.shape:
            assert np.max(np.abs(row - prev_row)) < 0.02  # small gamma step, small move
        prev_row = row


def test_gev_density_is_cdf_slope():
    from weibtail.numerics import derivative

    for g in (-0.3, 0.0, 0.2):
        for x in (-1.0, 0.5, 2.0):
            if 1.0 + g * x <= 0.0:
                continue
            slope = derivative(lambda t: _gev_cdf(g, t), x, 1).value
            if g == 0.0:
                dens = _gumbel_density(x)
            else:  # g_gamma = G_gamma (1 + gamma x)^(-1/gamma - 1)
                dens = _gev_cdf(g, x) * (1.0 + g * x) ** (-1.0 / g - 1.0)
            assert dens == pytest.approx(slope, rel=1e-8)


# ------------------------------------------------------------- maxima curve

def test_log_cdf_of_maxima_block_level():
    m = wt.pure_weibull(theta=2.0)
    nc = wt.norming(m, 25.0)
    fn = _in_curve_context(arrays._maxima, m, 25.0, np.array([0.0]), nc.b_exact, nc.a_scale)
    assert fn[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_log_cdf_of_maxima_below_support():
    m = wt.pure_weibull(theta=4.0)
    assert _in_curve_context(arrays._maxima, m, 10.0, np.array([-5.0]), 0.0, 1.0)[0] == 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        wt.pure_weibull(theta=-1.0)
    with pytest.raises(ValueError, match="finite"):
        wt.weibull_type(math.inf, wt.constant(1.0))
    with pytest.raises(ValueError):
        wt.pure_weibull(theta=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        wt.WeibullTypeModel(family=wt.Family.TAIL_EXP, theta=1.0, label="no-l")


_LOG_SF_AND_PDF = {"classical_log_sf": _exponential_log_sf, "classical_log_pdf": _exponential_log_pdf}


@pytest.mark.parametrize("call, error, message", [
    (lambda: k_jet(wt.normal(), 2.0, 0), ValueError, r"order must be in \[1, 3\]"),
    (lambda: k_jet(wt.normal(), 2.0, 4), ValueError, r"order must be in \[1, 3\]"),
    (lambda: k_jet(wt.normal(), 2.0, 1, "bogus"), ValueError, "unknown method 'bogus'"),
    (lambda: hazard_jet(wt.WeibullTypeModel(family=wt.Family.CLASSICAL, theta=1.0,
                                            label="log-pdf-only", **_LOG_SF_AND_PDF), 2.0, 1),
     TailUnderflowError, "no analytic hazard derivatives"),
    (lambda: wt.weibull_type(2.0, wt.constant(1.0), support_lower=-1.0), ValueError,
     "support_lower must be >= 0"),
    (lambda: wt.weibull_type(2.0, wt.log_power(1.0), support_lower=1.0), ValueError,
     "support_lower must not undercut the slowly varying domain"),
], ids=["order-0", "order-4", "method-bogus", "hazard-jet-log-pdf-only", "support-negative",
        "support-below-l-domain"])
def test_refusal_branches(call, error, message):
    # a usage error is a ValueError; a numeric refusal is typed, with its code
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("fields, message", [
    ({"classical_log_pdf": _exponential_log_pdf}, "need classical_log_sf"),
    ({"classical_log_sf": _exponential_log_sf}, "need hazard_derivs or classical_log_pdf"),
    ({**_LOG_SF_AND_PDF, "classical_cdf": lambda x: -math.expm1(-x)},
     "classical_cdf retired: .*classical_log_sf"),
    ({**_LOG_SF_AND_PDF, "classical_density": lambda x: math.exp(-x)},
     "classical_density retired: .*classical_log_sf"),
    ({**_LOG_SF_AND_PDF, "classical_log_cdf": lambda x: math.log(-math.expm1(-x))},
     "classical_log_cdf retired: .*classical_log_sf"),
], ids=["no-log-sf", "no-k-route", "cdf", "density", "log-cdf"])
def test_classical_contract_refused(fields, message):
    # a classical model is its log sf plus a k route; a retired callable is
    # refused rather than silently ignored, and the refusal names log sf
    with pytest.raises(ValueError, match=message):
        wt.WeibullTypeModel(family=wt.Family.CLASSICAL, theta=1.0, label="contract", **fields)


@pytest.mark.parametrize("name", [n for n, e in wt.CATALOG.items()
                                  if e.family == wt.Family.CLASSICAL.value])
def test_catalog_classical_models_set_one_representation(name):
    m = wt.build_model(name)
    callables = [f.name for f in dataclasses.fields(m)
                 if f.name.startswith(("classical_", "hazard_"))]
    assert {f for f in callables if getattr(m, f) is not None} == {
        "classical_log_sf", "hazard_derivs", "classical_log_sf_array"}


def test_classical_inverse_saturates_at_f_one():
    # T of the Normal at 1e308 lies where the bracket's upper end has F = 1
    # at double precision; that end is +inf, above every level, not a refusal
    m = wt.normal()
    t = 1e308
    b = wt.gumbel_coordinate_inverse(m, t)
    assert abs(wt.gumbel_coordinate(m, b) - t) <= 1e-14 * t
