"""Limit-functional sweeps: decay verdicts, the 1/(1-theta) limit, identities."""

import dataclasses
import math

import pytest

import weibtail as wt
from weibtail.errors import InsufficientGridError, TailUnderflowError, ThetaOneExcludedError
from weibtail.model import k_jet
from weibtail.vonmises import CONDITIONS, ConditionReport, condition_sweep, gomes84_closed_form

GRID = [1e2, 1e4, 1e6, 1e8, 1e10]


def test_phi_fixture_zero():
    fx = wt.gumbel_fixture()
    for t in (1.0, 10.0, 1e4):
        assert k_jet(fx, t, 1).phi == 0.0


def test_phi_theta2_asymptote():
    # phi = (1/k)' = -(c-1)/(c t^c l) with c = 1/2: phi(1e4) ~ 0.01
    assert k_jet(wt.pure_weibull(theta=2.0), 1e4, 1).phi == pytest.approx(0.01, rel=0.01)


def test_phi_sign_for_light_tails():
    assert k_jet(wt.pure_weibull(theta=0.5), 100.0, 1).phi < 0.0


def test_gomes84_closed_form_values():
    assert gomes84_closed_form(0.5) == pytest.approx(2.0)
    assert gomes84_closed_form(2.0) == pytest.approx(-1.0)
    with pytest.raises(ThetaOneExcludedError):
        gomes84_closed_form(1.0)
    with pytest.raises(ValueError):
        gomes84_closed_form(-0.5)


def test_report_fields_follow_conditions():
    # condition_sweep fills the sequence fields positionally, in CONDITIONS order
    assert ConditionReport._fields[:6] == ("t_grid", *CONDITIONS)


@pytest.mark.parametrize("theta", [0.25, 0.5, 2.0, 4.0])
def test_sweep_pure_weibull(theta):
    report = condition_sweep(wt.pure_weibull(theta=theta), GRID)
    for name in ("first_order", "second_order", "penultimate_cond", "anderson"):
        assert report.verdicts[name].kind == "confirmed_decaying", name
    g = report.verdicts["gomes84"]
    assert g.kind == "confirmed_limit"
    assert g.value == pytest.approx(1.0 / (1.0 - theta), rel=0.05)
    assert report.gomes84_relative_gap < 0.05
    assert report.derivative_path == "analytic"


def test_sweep_extended_weibull_log_l():
    report = condition_sweep(wt.extended_weibull(beta=2.0, delta=1.0), GRID)
    g = report.verdicts["gomes84"]
    assert g.kind == "confirmed_limit"
    assert g.value == pytest.approx(2.0, rel=0.10)  # theta = 1/2, slower l = log drift


def test_sweep_fixture_degeneracy():
    report = condition_sweep(wt.gumbel_fixture(), GRID)
    assert report.verdicts["first_order"].kind == "confirmed_decaying"
    for name in ("second_order", "penultimate_cond", "anderson", "gomes84"):
        v = report.verdicts[name]
        assert v.kind == "not_confirmed"
        assert v.reason == "degenerate"
    assert all(math.isnan(v) for v in report.gomes84)


def test_sweep_grid_validation():
    m = wt.pure_weibull(theta=2.0)
    with pytest.raises(InsufficientGridError):
        condition_sweep(m, [1e2, 1e4, 1e6, 1e8])  # too few points
    with pytest.raises(InsufficientGridError):
        condition_sweep(m, [1e2, 2e2, 4e2, 8e2, 1.6e3])  # under 4 decades
    with pytest.raises(InsufficientGridError):
        condition_sweep(wt.extended_weibull(beta=2.0), [1.0, 1e4, 1e6, 1e8, 1e10])


def test_anderson_consistent_with_rv_ratios():
    # k''/(k k') == (r2/r1)/(t k): same content, independently assembled
    m = wt.pure_weibull(theta=2.0)
    report = condition_sweep(m, GRID)
    for i, t in enumerate(GRID):
        k0, k1, k2 = k_jet(m, t, 2).values
        r1, r2 = t * k1 / k0, t * t * k2 / k0
        k = wt.k_function(m, t)
        assert report.anderson[i] == pytest.approx((r2 / r1) / (t * k), rel=1e-8)


def test_second_order_identity():
    # phi'/(k phi) = k''/(k k') - 2 k'/k^2, checked with both sides built
    # from separate evaluations (the sign matters: the ratio equals the
    # anderson term minus twice k'/k^2, not the reverse)
    m = wt.pure_weibull(theta=2.0)
    for t in (1e3, 1e5, 1e7):
        k0, k1, k2, _ = k_jet(m, t).values
        phi_v = -k1 / k0**2
        phi_p = -(k2 * k0 - 2.0 * k1 * k1) / k0**3
        lhs = phi_p / (k0 * phi_v)
        rhs = k2 / (k0 * k1) - 2.0 * k1 / k0**2
        assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.mark.parametrize("theta", [0.25, 0.5, 2.0, 4.0])
def test_penultimate_condition_scaled_limit(theta):
    # phi''/(k phi') * t k(t) tends to
    # [6(c-1)(c-2) - 6(c-1)^2 - (c-2)(c-3)] / [2(c-1) - (c-2)]
    c = 1.0 / theta
    num = 6.0 * (c - 1.0) * (c - 2.0) - 6.0 * (c - 1.0) ** 2 - (c - 2.0) * (c - 3.0)
    den = 2.0 * (c - 1.0) - (c - 2.0)
    expected = num / den
    m = wt.pure_weibull(theta=theta)
    report = condition_sweep(m, GRID)
    t = GRID[-1]
    scaled = report.penultimate_cond[-1] * t * wt.k_function(m, t)
    assert scaled == pytest.approx(expected, rel=0.05)


def test_numeric_path_flagged_for_bare_classical():
    base = wt.exponential()
    bare = wt.WeibullTypeModel(
        family=wt.Family.CLASSICAL,
        theta=1.0,
        label="bare",
        support_lower=0.0,
        classical_cdf=base.classical_cdf,
        classical_density=base.classical_density,
        classical_log_cdf=base.classical_log_cdf,
        classical_log_sf=base.classical_log_sf,
        classical_log_pdf=base.classical_log_pdf,
    )
    report = condition_sweep(bare, [3.0, 3e1, 3e2, 3e3, 3e4])
    assert report.derivative_path == "numeric"


def test_report_sequences_lengths():
    report = condition_sweep(wt.pure_weibull(theta=0.5), GRID)
    for name in ("first_order", "second_order", "penultimate_cond", "anderson", "gomes84"):
        assert len(getattr(report, name)) == len(GRID)
    assert report.point_codes == (None,) * len(GRID)


def test_sweep_records_typed_failures_and_propagates_bugs():
    base = wt.exponential()

    def hazard_block(x):
        if x > 1e3:
            raise TailUnderflowError(f"refused at {x!r}")
        return base.hazard_derivs(x)

    report = condition_sweep(dataclasses.replace(base, hazard_derivs=hazard_block), GRID)
    assert all(math.isinf(v) for v in report.first_order[1:])
    assert report.point_codes == (None, *["tail_underflow"] * 4)
    assert report.verdicts["first_order"].reason == "eval_failure"

    def broken(x):
        raise TypeError("bug in a user hazard block")

    with pytest.raises(TypeError):
        condition_sweep(dataclasses.replace(base, hazard_derivs=broken), GRID)
