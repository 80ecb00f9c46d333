"""Catalog models: the log-space incomplete gamma and import isolation."""

import ast
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import weibtail as wt

SHAPES = (0.5, 2.0, 5.0)


def _mp_log_pq(a, x):
    """(log P, log Q) at 50 digits; log P as log1p(-Q) keeps digits once Q < 1e-45."""
    with mp.workdps(50):
        q = mp.gammainc(mp.mpf(a), mp.mpf(x), mp.inf, regularized=True)
        return mp.log1p(-q), mp.log(q)


def _mp_hazard_block(a, x):
    """(h, h', h'', h''') at 100 digits: the hazard from the upper incomplete
    gamma, its derivatives from the exact recurrence h' = h (psi + h), whose
    cancellation costs at most ~40 of the 100 digits up to x = 1e10."""
    with mp.workdps(100):
        a, x = mp.mpf(a), mp.mpf(x)
        h = x ** (a - 1) * mp.exp(-x) / mp.gammainc(a, x, mp.inf)
        psi, psi1, psi2 = (a - 1) / x - 1, -(a - 1) / x**2, 2 * (a - 1) / x**3
        h1 = h * (psi + h)
        h2 = h1 * (psi + h) + h * (psi1 + h1)
        h3 = h2 * (psi + h) + 2 * h1 * (psi1 + h1) + h * (psi2 + h2)
        return h, h1, h2, h3


@pytest.mark.parametrize("shape", SHAPES)
def test_gamma_log_p_log_q_against_mpmath(shape):
    m = wt.gamma_model(shape)
    for x in np.logspace(-3, 4, 71):
        x = float(x)
        ref_p, ref_q = _mp_log_pq(shape, x)
        got_p, got_q = m.classical_log_cdf(x), m.classical_log_sf(x)
        assert float(abs(got_q - ref_q)) <= 2e-14 * float(abs(ref_q)), (shape, x)
        # log P ~ -Q deep in the tail inherits the rounding of log Q times |log Q|,
        # and rounds to 0 once Q is below the smallest double
        tol = 2e-14 * float(abs(ref_p)) * max(1.0, float(abs(ref_q))) + 1e-300
        assert float(abs(got_p - ref_p)) <= tol, (shape, x)


def test_gamma_cdf_density_consistent():
    m = wt.gamma_model(2.0)
    for x in (0.1, 2.0, 30.0):
        # Gamma(2): P = 1 - (1 + x) e^-x, f = x e^-x
        assert m.classical_cdf(x) == pytest.approx(-math.expm1(-x) - x * math.exp(-x), rel=1e-13)
        assert m.classical_density(x) == pytest.approx(x * math.exp(-x), rel=1e-14)
    assert m.classical_cdf(0.0) == 0.0 and m.classical_log_sf(0.0) == 0.0
    assert m.classical_log_sf(math.inf) == -math.inf


@pytest.mark.parametrize("shape", SHAPES)
def test_gamma_hazard_block_against_mpmath(shape):
    # the recurrence below max(50, 2 shape) loses ~eps x^(order+1); the
    # large-x series beyond it is accurate to a few ulp at every order
    m = wt.gamma_model(shape)
    for x in np.logspace(-2, 10, 49):
        x = float(x)
        got = m.hazard_derivs(x)
        ref = _mp_hazard_block(shape, x)
        tols = (1e-14, 1e-11, 1e-9) if x < 50.0 else (1e-14, 1e-14, 1e-14)
        for order, (g, r, tol) in enumerate(zip(got, ref, tols)):
            assert float(abs((g - r) / r)) <= tol, (shape, x, order)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("log_n", [500.0, 600.0, 700.0])
def test_gamma_norming_far_tail(shape, log_n):
    nc = wt.norming(wt.gamma_model(shape), log_n)
    assert all(math.isfinite(v) for v in (nc.b_exact, nc.b_asymptotic, nc.a_scale))
    with mp.workdps(30):
        q = mp.gammainc(mp.mpf(shape), mp.mpf(nc.b_exact), mp.inf, regularized=True)
        t = -mp.log(-mp.log1p(-q))
    assert float(abs(t - log_n)) <= 1e-10 * max(1.0, log_n)


_IMPORT_PROBE = """
import sys
import weibtail as wt
for build in (
    lambda: wt.pure_weibull(theta=2.0),
    lambda: wt.extended_weibull(beta=2.0),
    wt.exponential,
    wt.logistic,
    lambda: wt.gamma_model(2.0),
    wt.gumbel_fixture,
):
    build()
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
wt.normal()
after = set(sys.modules)
print(repr((before, "scipy.special" in after, "scipy.stats" in after)))
"""


def test_import_leaves_scipy_out():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    before, special, stats = ast.literal_eval(out)
    assert before == []
    assert special and not stats
