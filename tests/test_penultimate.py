"""Penultimate index, classification, error curves, remainder structure."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import weibtail as wt
from weibtail import arrays, numerics, penultimate
from weibtail.errors import (
    BelowSupportError,
    DegenerateProfileError,
    DomainError,
    GridSupportEmptyError,
    InsufficientGridError,
    OutsideTailRegionError,
    TailUnderflowError,
    ThetaOneExcludedError,
)
from weibtail.model import Family, k_function
from weibtail.norming import locate
from weibtail.penultimate import REMAINDER_DENOMINATOR_CUTOFF, Classification


# -------------------------------------------------------------- gamma_of_t

def test_gamma_of_t_fixture_zero():
    fx = wt.gumbel_fixture()
    for t in (5.0, 25.0, 100.0):
        assert wt.gamma_of_t(fx, t) == 0.0


def test_gamma_of_t_theta2():
    assert wt.gamma_of_t(wt.pure_weibull(theta=2.0), 25.0) == pytest.approx(0.04, rel=0.02)


def test_gamma_of_t_theta_half():
    assert wt.gamma_of_t(wt.pure_weibull(theta=0.5), 25.0) == pytest.approx(-0.02, rel=0.02)


# -------------------------------------------------------- penultimate_index

def test_index_theta2():
    idx = wt.penultimate_index(wt.pure_weibull(theta=2.0), 25.0)
    assert idx.gamma_asymptotic == pytest.approx(0.04)
    assert idx.classification is Classification.FRECHET
    assert idx.rate_ultimate == pytest.approx(-0.04)
    assert idx.rate_penultimate == pytest.approx(2.0 * 2.0 * (1.0 - 2.0) / 625.0)
    assert idx.gamma_exact == pytest.approx(0.04, rel=1e-6)
    assert idx.error is None


def test_index_theta_half():
    idx = wt.penultimate_index(wt.pure_weibull(theta=0.5), 10.0)
    assert idx.gamma_asymptotic == pytest.approx(-0.05)
    assert idx.classification is Classification.WEIBULL
    assert idx.rate_penultimate == pytest.approx(0.005)


def test_index_gamma_prime_closed_form():
    # (2(c-1)^2 - (c-1)(c-2)) / (b k(b))^2 with c = 1/theta
    idx = wt.penultimate_index(wt.pure_weibull(theta=2.0), 50.0)
    # b k(b) ~ log_n / theta = 25, constant = -1/4
    assert idx.gamma_prime_exact == pytest.approx(-0.25 / 625.0, rel=1e-6)


@pytest.mark.parametrize("factory", [wt.exponential, wt.logistic, lambda: wt.gamma_model(2.0)])
def test_index_theta_one_excluded(factory):
    idx = wt.penultimate_index(factory(), 10.0)
    assert idx.error == "theta_one_excluded"
    assert idx.classification is Classification.EXCLUDED_THETA_ONE
    assert idx.gamma_asymptotic is None
    assert idx.rate_ultimate is None
    assert idx.rate_penultimate is None
    assert idx.gamma_prime_exact is None
    assert math.isfinite(idx.gamma_exact)  # the exact index still computes


def test_exponential_exact_gamma_order_one_over_n():
    idx = wt.penultimate_index(wt.exponential(), 10.0)
    assert idx.gamma_exact == pytest.approx(0.5 * math.exp(-10.0), rel=1e-3)


def test_gamma_sign_law_small_blocks():
    for theta in (0.25, 0.5, 2.0, 4.0):
        m = wt.pure_weibull(theta=theta)
        for ln in (5.0, 10.0):
            idx = wt.penultimate_index(m, ln)
            assert math.copysign(1.0, idx.gamma_exact) == math.copysign(1.0, theta - 1.0)


# --------------------------------------------------------- error comparison

def test_errors_fixture_exact_gumbel():
    cmp_ = wt.error_comparison(wt.gumbel_fixture(), 12.0)
    assert cmp_.sup_error_ultimate <= 1e-12
    assert cmp_.sup_error_penultimate <= 1e-12
    assert cmp_.gamma_used == 0.0
    assert cmp_.remainder_max_deviation is None
    assert cmp_.n_clipped == 0


def test_errors_normal_penultimate_wins():
    cmp_ = wt.error_comparison(wt.normal(), math.log(1000.0), (-3.0, 6.0, 1000))
    assert cmp_.sup_error_penultimate < cmp_.sup_error_ultimate


def test_errors_dominance_and_ratio_decline():
    factories = [
        lambda: wt.pure_weibull(theta=0.25),
        lambda: wt.pure_weibull(theta=0.5),
        lambda: wt.pure_weibull(theta=2.0),
        lambda: wt.pure_weibull(theta=4.0),
        wt.normal,
    ]
    for factory in factories:
        m = factory()
        ratios = []
        for ln in (10.0, 20.0, 40.0):
            c = wt.error_comparison(m, ln)
            assert c.sup_error_penultimate <= c.sup_error_ultimate, (m.label, ln)
            ratios.append(c.sup_error_penultimate / c.sup_error_ultimate)
        assert ratios[0] > ratios[1] > ratios[2], m.label


def test_errors_rate_scaling_windows():
    # sup|.-G_0| ~ C/log n and sup|.-G_(gamma_n)| ~ C'/log^2 n
    for theta in (0.5, 2.0):
        m = wt.pure_weibull(theta=theta)
        ult, pen = [], []
        for ln in (10.0, 20.0, 40.0):
            c = wt.error_comparison(m, ln)
            ult.append(c.sup_error_ultimate * ln)
            pen.append(c.sup_error_penultimate * ln * ln)
        assert (max(ult) - min(ult)) / min(ult) < 0.35
        assert (max(pen) - min(pen)) / min(pen) < 0.50


def test_errors_gamma_mode_asymptotic():
    m = wt.pure_weibull(theta=2.0)
    exact = wt.error_comparison(m, 20.0, gamma_mode="exact")
    asym = wt.error_comparison(m, 20.0, gamma_mode="asymptotic")
    assert asym.gamma_used == pytest.approx(0.05)
    assert asym.gamma_used != exact.gamma_used
    with pytest.raises(ThetaOneExcludedError):
        wt.error_comparison(wt.gumbel_fixture(), 10.0, gamma_mode="asymptotic")


def test_errors_support_clipping_recorded():
    # theta = 1/4 at small blocks: gamma_n < 0 caps the support at -1/gamma
    m = wt.pure_weibull(theta=0.25)
    c = wt.error_comparison(m, 5.0, (-3.0, 10.0, 200))
    assert c.n_clipped > 0
    assert c.sup_error_penultimate <= 1.0


def test_errors_grid_support_empty():
    m = wt.pure_weibull(theta=2.0)  # gamma_n ~ +0.05 at log n = 20
    with pytest.raises(GridSupportEmptyError):
        wt.error_comparison(m, 20.0, (-900.0, -500.0, 150))


def test_errors_grid_validation():
    with pytest.raises(InsufficientGridError):
        wt.error_comparison(wt.normal(), 10.0, (-3.0, 6.0, 50))


def test_whole_float_grid_count_is_the_int_count_grid():
    # 1075.0 points is the grid of 1075: the spec echoes the int count and
    # keys one memo entry, so alternating the two builds the grid, G_0 and
    # g_0 once
    model, spec, floated = wt.normal(), (-3.0, 6.0, 1075), (-3.0, 6.0, 1075.0)
    arrays.clear_grid_terms()
    first = wt.error_comparison(model, 20.0, spec)
    terms = arrays._GRID_TERMS[repr(spec)]
    results = [
        wt.error_comparison(model, 20.0, floated),
        penultimate.error_comparison_at(model, locate(model, 20.0), floated, "exact"),
    ]
    wt.remainder_profile(model, 20.0, floated)
    wt.error_comparison(model, 20.0, spec)
    assert arrays._GRID_TERMS[repr(spec)] is terms
    for result in results:
        assert result == first and type(result.grid_spec[2]) is int


@pytest.mark.parametrize("count", [1075.5, math.inf, math.nan], ids=["fraction", "inf", "nan"])
def test_grid_count_must_be_whole(count):
    # a fractional count is refused, not cut to its integer part
    model, grid = wt.normal(), (-3.0, 6.0, count)
    calls = [
        lambda: wt.error_comparison(model, 20.0, grid),
        lambda: penultimate.error_comparison_at(model, locate(model, 20.0), grid, "exact"),
        lambda: wt.remainder_profile(model, 20.0, grid),
    ]
    for call in calls:
        with pytest.raises(InsufficientGridError, match="grid needs a whole number of points"):
            call()


@pytest.mark.parametrize("kwargs, error, message", [
    ({"grid_spec": (3.0, 3.0, 100)}, InsufficientGridError, "grid needs lo < hi"),
    ({"gamma_mode": "bogus"}, ValueError, "unknown gamma_mode 'bogus'"),
], ids=["grid-empty-window", "gamma-mode-bogus"])
def test_refusal_branches(kwargs, error, message):
    # an empty window is refused with its code, an unknown mode as a usage error
    with pytest.raises(error, match=message):
        wt.error_comparison(wt.normal(), 10.0, **kwargs)


@pytest.mark.parametrize("lo, hi", [(-3.0, math.inf), (-math.inf, 6.0), (-3.0, math.nan),
                                    (-1e308, 1e308)])
def test_errors_grid_refuses_non_finite_window(lo, hi):
    # an infinite edge, or a width hi - lo that overflows, has no grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientGridError):
            wt.error_comparison(wt.normal(), 10.0, (lo, hi, 1000))


# ----------------------------------------------------- array maxima curve

def _maxima_curve(model, log_n, xs, b, a):
    """F^n(a x + b) over the grid array, in the floating-point context of
    ``arrays.curve``, where overflow to inf is the saturation expected."""
    with np.errstate(over="ignore"):
        return arrays._maxima(model, log_n, xs, b, a)


def _scalar_maxima_curve(model, log_n, xs, b, a):
    # the point-by-point evaluation the array path replaces
    exponents = np.empty_like(xs)
    for i, x in enumerate(xs):
        try:
            exponents[i] = log_n - wt.gumbel_coordinate(model, b + a * x)
        except (BelowSupportError, DomainError, OutsideTailRegionError):
            exponents[i] = math.inf
        except TailUnderflowError:
            exponents[i] = -math.inf
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(exponents))


def _location(model, log_n):
    b = wt.gumbel_coordinate_inverse(model, log_n)
    return b, 1.0 / k_function(model, b)


PARITY_MODELS = {
    "pw-0.25": lambda: wt.pure_weibull(theta=0.25),
    "pw-2": lambda: wt.pure_weibull(theta=2.0),
    "pw-alpha2-scale3": lambda: wt.pure_weibull(alpha=2.0, scale=3.0),
    "ext-2": lambda: wt.extended_weibull(2.0),
    "ext-0.5": lambda: wt.extended_weibull(0.5, 1.0),
    "normal": wt.normal,
    "exponential": wt.exponential,
    "logistic": wt.logistic,
    "gumbel-fixture": wt.gumbel_fixture,
    **{f"gamma-{s:g}": (lambda s=s: wt.gamma_model(s)) for s in (0.5, 2.0, 5.0, 50.0, 1000.0)},
}


@pytest.mark.parametrize("name", sorted(PARITY_MODELS))
def test_maxima_curve_array_matches_scalar(name):
    model = PARITY_MODELS[name]()
    array_form = model.l.value_array if model.l is not None else model.classical_log_sf_array
    assert array_form is not None
    checked = 0
    for log_n in (0.01, 1.0, 10.0, 100.0, 300.0, 700.0):
        try:
            b, a = _location(model, log_n)
        except wt.errors.WeibtailError:
            continue  # extended-Weibull below its support level
        for lo, hi, count in ((-3.0, 6.0, 1000), (-20.0, 40.0, 5000)):
            xs = np.linspace(lo, hi, count)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _maxima_curve(model, log_n, xs, b, a)
            want = _scalar_maxima_curve(model, log_n, xs, b, a)
            assert np.max(np.abs(got - want)) <= 1e-12, (log_n, lo)
            checked += 1
    assert checked >= 8


def test_maxima_curve_at_support_endpoint():
    # gumbel-fixture: T = H = z, so z = 0 = support_lower is a valid T = 0
    # and F^n(0) = exp(-e) at log n = 1, not the F = 0 saturation
    model = wt.gumbel_fixture()
    b, a = _location(model, 1.0)
    xs = np.linspace(-1.0, 2.0, 100)
    assert b + a * xs[0] == model.support_lower
    got = _maxima_curve(model, 1.0, xs, b, a)
    assert got[0] == math.exp(-math.e)
    assert np.array_equal(got, _scalar_maxima_curve(model, 1.0, xs, b, a))


def _scalar_only_model(kind):
    # user callables written for one float, without an array form
    if kind == "tail":
        spec = wt.SlowlyVaryingSpec(value=lambda x: 1.0 + 1.0 / math.log(x), domain_lower=1.5)
        return wt.weibull_type(0.5, spec, support_lower=2.0, label="user-tail"), spec.value
    model = wt.WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label="user-exponential",
        classical_log_sf=lambda x: -x if x > 0.0 else 0.0,
        classical_log_pdf=lambda x: -x if x > 0.0 else -math.inf,
    )
    return model, model.classical_log_sf


def _reference_curve(model, log_n, grid):
    """error_comparison's fields on a grid, point by point in math."""
    _, b, jet = locate(model, log_n)
    a, gamma, rate = 1.0 / jet.values[0], jet.phi, -jet.phi
    xs = np.linspace(*grid).tolist()
    fn = []
    for x in xs:
        try:
            t = wt.gumbel_coordinate(model, x * a + b)
        except (BelowSupportError, DomainError, OutsideTailRegionError):
            t = -math.inf
        except TailUnderflowError:
            t = math.inf
        try:
            fn.append(math.exp(-math.exp(log_n - t)))
        except OverflowError:
            fn.append(0.0)
    diff = [f - math.exp(-math.exp(-x)) for f, x in zip(fn, xs)]
    ult = [abs(d) for d in diff]
    inside = [(x, f) for x, f in zip(xs, fn) if x * gamma + 1.0 > 0.0]
    pen = []
    for x, f in inside:
        t = x * gamma
        if abs(gamma) < 1e-8 and abs(t) < 1e-5:
            w = (1.0 - t / 2.0 + t * t / 3.0) * x
        else:
            w = math.log1p(t) / gamma
        pen.append(abs(f - math.exp(-math.exp(-w))))
    ratios = []
    for x, d in zip(xs, diff):
        den = x * 0.5 * x * rate * math.exp(-math.exp(-x) - x)
        if abs(den) > REMAINDER_DENOMINATOR_CUTOFF:
            ratios.append(abs(d / den - 1.0))
    return (max(ult), xs[ult.index(max(ult))], max(pen), inside[pen.index(max(pen))][0],
            len(xs) - len(inside), max(ratios) if ratios else None)


@pytest.mark.parametrize("kind", ["tail", "classical"])
def test_maxima_curve_scalar_fallback(kind):
    # callables that reject arrays take the scalar curve on any grid, bit
    # for bit against the same formulas written out point by point
    model, fn = _scalar_only_model(kind)
    with pytest.raises((TypeError, ValueError)):
        fn(np.array([3.0, 4.0]))
    for log_n in (10.0, 20.0, 100.0):
        for grid in ((-3.0, 6.0, 1000), (-20.0, 40.0, 2000)):
            cmp_ = wt.error_comparison(model, log_n, grid)
            assert (cmp_.sup_error_ultimate, cmp_.argmax_ultimate, cmp_.sup_error_penultimate,
                    cmp_.argmax_penultimate, cmp_.n_clipped,
                    cmp_.remainder_max_deviation) == _reference_curve(model, log_n, grid)
            assert cmp_.grid_spec == grid


@pytest.mark.parametrize("grid", [(-3.0, 6.0, 1000), (-20.0, 40.0, 5000), (0.1, 0.7, 333),
                                  (-1e307, 1e307, 1000), (0.0, 1e-322, 1000), (-3.0, 6.0, 100.0),
                                  (-3.0, 6.0, 1075), (-3.0, 6.0, 10_000)])
def test_grid_is_linspace(grid):
    # the grid the scalar curve walks is numpy's, without numpy
    want = np.linspace(*grid[:2], int(grid[2]))
    assert penultimate._linspace(*grid) == want.tolist()


def _curve_outcome(model, loc, grid, mode, scalar, monkeypatch):
    monkeypatch.setattr(penultimate, "_takes_scalar_path", lambda model, count: scalar)
    try:
        return penultimate.error_comparison_at(model, loc, grid, mode)
    except wt.errors.WeibtailError as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(PARITY_MODELS))
def test_curve_paths_agree(name, monkeypatch):
    # the scalar and the array curve differ only in the last bits of exp,
    # log and each model's T: on the same configuration F^n and both sups
    # agree to 1e-12, clipping and refusals match, and each argmax is the
    # same grid point or a neighbour
    model = PARITY_MODELS[name]()
    compared = 0
    for log_n in (0.01, 1.0, 10.0, 100.0, 300.0, 700.0):
        try:
            loc = locate(model, log_n)
        except wt.errors.WeibtailError:
            continue  # extended-Weibull below its support level
        b, a = loc.b, 1.0 / loc.jet.values[0]
        for grid in ((-3.0, 6.0, 200), (-20.0, 40.0, 1000)):
            xs = np.linspace(*grid)
            scalar_fn = [penultimate._maxima_point(model, log_n, x * a + b) for x in xs.tolist()]
            assert np.max(np.abs(_maxima_curve(model, log_n, xs, b, a) - scalar_fn)) <= 1e-12
            index = {x: i for i, x in enumerate(xs.tolist())}
            for mode in ("exact", "asymptotic"):
                got, want = (_curve_outcome(model, loc, grid, mode, scalar, monkeypatch)
                             for scalar in (True, False))
                if isinstance(got, str) or isinstance(want, str):
                    assert got == want, (log_n, grid, mode)
                    continue
                assert abs(got.sup_error_ultimate - want.sup_error_ultimate) <= 1e-12
                assert abs(got.sup_error_penultimate - want.sup_error_penultimate) <= 1e-12
                assert got.n_clipped == want.n_clipped
                assert (got.remainder_max_deviation is None) == (want.remainder_max_deviation is None)
                for field in ("argmax_ultimate", "argmax_penultimate"):
                    assert abs(index[getattr(got, field)] - index[getattr(want, field)]) <= 1, \
                        (log_n, grid, mode, field)
                compared += 1
    assert compared >= 12


# ------------------------------------------------------------- remainder

def test_remainder_fixture_degenerate():
    with pytest.raises(DegenerateProfileError):
        wt.remainder_profile(wt.gumbel_fixture(), 10.0)


def test_remainder_trend_spec_window():
    m = wt.pure_weibull(theta=0.5)
    dev10 = wt.remainder_profile(m, 10.0, (-2.0, 4.0, 400))
    dev40 = wt.remainder_profile(m, 40.0, (-2.0, 4.0, 400))
    assert dev40 < dev10


def test_remainder_bounded_positive_window():
    m = wt.pure_weibull(theta=2.0)
    dev = wt.remainder_profile(m, 40.0, (0.5, 3.0, 400))
    assert dev < 0.5


# ------------------------------------------------------------- work counts

@pytest.mark.parametrize("build", [wt.normal, lambda: wt.gamma_model(2.0)])
def test_one_solve_one_hazard_block(monkeypatch, build):
    # every quantity starts from one root solve for b_n and one k-jet there;
    # a jet of order r asks its one hazard jet for H and r + 1 derivatives
    counts = {"solve": 0, "hazard": []}
    solve = numerics.solve_increasing

    def counted_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counted_hazard(x, m):
        counts["hazard"].append(m)
        return base.hazard_derivs(x, m)

    monkeypatch.setattr(numerics, "solve_increasing", counted_solve)
    base = build()
    m = dataclasses.replace(base, hazard_derivs=counted_hazard)
    grid = (1e2, 1e4, 1e6, 1e8, 1e10)
    for call, expected in (
        (lambda: wt.norming(m, 20.0), {"solve": 2, "hazard": [2]}),  # b_asymptotic too
        (lambda: wt.penultimate_index(m, 20.0), {"solve": 1, "hazard": [2]}),
        (lambda: wt.error_comparison(m, 20.0, (-3.0, 6.0, 200)), {"solve": 1, "hazard": [2]}),
        (lambda: wt.condition_sweep(m, grid), {"solve": 0, "hazard": [4] * len(grid)}),
    ):
        counts.update(solve=0, hazard=[])
        call()
        assert counts == expected
