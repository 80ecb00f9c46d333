"""Robustness sweep: every catalog model, drawn parameters and log n in
[1e-3, 700] give finite numbers or a typed refusal that names the cause.
The same draws also cover ``gamma_of_t`` at t = log n and ``condition_sweep``
on 5-point grids spanning 4 to 8 decades above the support; a sweep point
that fails carries its refusal's code, and the set of codes is pinned.

``below_range`` is allowed only for extended-weibull, whose support floor
x0 = e puts a lower bound on log n, and ``theta_one_excluded`` only for
theta = 1 models in asymptotic mode.  The seed is fixed, so the run is the
same every time.
"""

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import weibtail as wt
from weibtail.errors import WeibtailError

# (lo, hi) per parameter, drawn log-uniformly
PARAMS = {
    "pure-weibull": {"theta": (0.1, 10.0)},
    "extended-weibull": {"beta": (0.2, 5.0), "delta": (0.1, 3.0)},
    "gamma": {"shape": (0.05, 1000.0)},
}
# one grid for each error-curve path: the scalar pass up to the default
# size of 1000 points, the array one above it
GRIDS = ((-3.0, 6.0, 200), (-3.0, 6.0, 1200))
# every point code the condition-sweep draws produce, None for a point
# that evaluated
SWEEP_POINT_CODES = {None, "eval_failure", "tail_underflow"}


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda u: min(max(math.exp(u), lo), hi))


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(wt.CATALOG)))
    params = {key: draw(_log_uniform(*span)) for key, span in PARAMS.get(name, {}).items()}
    return name, params, draw(_log_uniform(1e-3, 700.0))


def _outcome(call, allowed):
    """The call's result, or None after a refusal whose code is allowed."""
    try:
        return call()
    except WeibtailError as exc:
        assert exc.code in allowed, (exc.code, exc.message)
        return None


def _finite(*values):
    return all(v is None or math.isfinite(v) for v in values)


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(_cases())
def test_quantities_finite_or_typed_refusal(case):
    name, params, log_n = case
    model = wt.build_model(name, **params)
    below = {"below_range"} if name == "extended-weibull" else set()

    nc = _outcome(lambda: wt.norming(model, log_n), below)
    if nc is not None:
        assert _finite(nc.b_exact, nc.b_asymptotic, nc.a_scale), nc
    idx = _outcome(lambda: wt.penultimate_index(model, log_n), below)
    if idx is not None:
        assert idx.gamma_exact is not None, idx
        assert _finite(idx.gamma_exact, idx.gamma_asymptotic, idx.rate_ultimate,
                       idx.rate_penultimate, idx.gamma_prime_exact), idx
    for mode in ("exact", "asymptotic"):
        allowed = set(below)
        if mode == "asymptotic" and model.theta_is_one:
            allowed.add("theta_one_excluded")
        for grid in GRIDS:
            cmp_ = _outcome(lambda: wt.error_comparison(model, log_n, grid, gamma_mode=mode),
                            allowed)
            if cmp_ is not None:
                assert _finite(cmp_.sup_error_ultimate, cmp_.sup_error_penultimate), cmp_


@st.composite
def _sweep_cases(draw):
    """A :func:`_cases` draw plus a condition-sweep grid: its first point
    1e-3 to 1e3 above the support floor, and the decades it spans."""
    return (*draw(_cases()), draw(_log_uniform(1e-3, 1e3)), draw(st.floats(4.0, 8.0)))


def test_gamma_of_t_and_condition_sweep_finite_or_typed_refusal():
    point_codes = set()

    @seed(20261019)
    @settings(max_examples=500, deadline=None, database=None)
    @given(_sweep_cases())
    def check(case):
        name, params, t, offset, decades = case
        model = wt.build_model(name, **params)
        below = {"below_range"} if name == "extended-weibull" else set()

        gamma = _outcome(lambda: wt.gamma_of_t(model, t), below)
        assert _finite(gamma), gamma
        start = max(model.support_lower, 0.0) + offset
        grid = [start * 10.0 ** (decades * i / 4) for i in range(5)]
        report = _outcome(lambda: wt.condition_sweep(model, grid), set())
        # a point that fails is recorded as +inf with its refusal's code;
        # phi itself is never NaN
        assert all(math.isfinite(v) or v == math.inf for v in report.first_order), report
        assert [c is not None for c in report.point_codes] == [
            v == math.inf for v in report.first_order], report
        point_codes.update(report.point_codes)
        assert _finite(report.gomes84_theoretical, report.gomes84_relative_gap,
                       *(v.value for v in report.verdicts.values())), report

    check()
    assert point_codes == SWEEP_POINT_CODES
