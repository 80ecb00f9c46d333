"""Norming constants: defining level, asymptotic gap, scale."""

import math

import numpy as np
import pytest

import weibtail as wt
from weibtail.errors import InvalidBlockSizeError
from weibtail.penultimate import _maxima_curve


def _block_level_residual(model, log_n):
    nc = wt.norming(model, log_n)
    fn = _maxima_curve(model, log_n, np.array([0.0]), nc.b_exact, nc.a_scale)
    return abs(fn[0] - math.exp(-1.0))


def test_location_closed_form_theta2():
    nc = wt.norming(wt.pure_weibull(theta=2.0), 25.0)
    assert nc.b_asymptotic == 625.0
    assert abs(nc.b_exact / nc.b_asymptotic - 1.0) < 1e-10


def test_location_fixture_exact_identity():
    nc = wt.norming(wt.gumbel_fixture(), 7.0)
    assert nc.b_exact == nc.b_asymptotic == 7.0


def test_scale_theta2():
    m = wt.pure_weibull(theta=2.0)
    assert 1.0 / wt.k_function(m, 625.0) == pytest.approx(50.0, rel=1e-6)


def test_scale_theta_half():
    m = wt.pure_weibull(theta=0.5)
    assert 1.0 / wt.k_function(m, 25.0) == pytest.approx(0.02, rel=1e-6)


def test_scale_fixture():
    assert 1.0 / wt.k_function(wt.gumbel_fixture(), 12.3) == 1.0


def test_norming_bundle_theta2():
    nc = wt.norming(wt.pure_weibull(theta=2.0), 25.0)
    assert nc.log_n == 25.0
    assert nc.b_asymptotic == 625.0
    assert nc.b_exact == pytest.approx(625.0, rel=1e-9)
    assert nc.a_scale == pytest.approx(50.0, rel=1e-6)


def test_norming_fixture():
    nc = wt.norming(wt.gumbel_fixture(), 10.0)
    assert (nc.b_exact, nc.b_asymptotic, nc.a_scale) == (10.0, 10.0, 1.0)


def test_classical_exponential_block_level():
    # F(b)^n = e^-1 at n = e^10, checked through the log-space power
    assert _block_level_residual(wt.exponential(), 10.0) < 1e-12


@pytest.mark.parametrize(
    "factory",
    [
        lambda: wt.pure_weibull(theta=0.25),
        lambda: wt.pure_weibull(theta=0.5),
        lambda: wt.pure_weibull(theta=2.0),
        lambda: wt.pure_weibull(theta=4.0),
        lambda: wt.extended_weibull(beta=2.0),
        wt.normal,
        wt.exponential,
        wt.logistic,
        lambda: wt.gamma_model(2.0),
        wt.gumbel_fixture,
    ],
)
@pytest.mark.parametrize("log_n", [5.0, 10.0, 25.0, 50.0])
def test_defining_residual_all_builtins(factory, log_n):
    model = factory()
    if model.support_lower > 0.0:
        # no block level below the hazard at the support endpoint
        # (extended Weibull starts at x0 = e, where H ~ 7.39)
        if log_n <= wt.cumulative_hazard(model, model.support_lower):
            pytest.skip("block size below the model's support floor")
    assert _block_level_residual(model, log_n) < 1e-10


def test_gap_shrinks_with_block_size():
    # b_exact/b_asymptotic - 1 ~ theta e^-log_n / (2 log_n): strictly down
    m = wt.pure_weibull(theta=2.0)
    gaps = []
    for ln in (6.0, 8.0, 10.0, 12.0):
        nc = wt.norming(m, ln)
        gaps.append(nc.b_exact / nc.b_asymptotic - 1.0)
    assert all(g > 0.0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_scale_times_k_is_one():
    for factory in (lambda: wt.pure_weibull(theta=2.0), wt.normal):
        m = factory()
        nc = wt.norming(m, 12.0)
        assert nc.a_scale * wt.k_function(m, nc.b_exact) == pytest.approx(1.0, rel=1e-15)


def test_invalid_block_size():
    with pytest.raises(InvalidBlockSizeError):
        wt.norming(wt.normal(), 0.0)
    with pytest.raises(InvalidBlockSizeError):
        wt.norming(wt.normal(), -3.0)
