"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v` for the per-criterion verdicts
(add -s to see the printed measurement lines as they happen).  Every
tolerance is pinned here, not configurable.

Criterion 4 note: the second-order rate window is normalized by
2*theta*(1-theta).  The exact closed form behind gamma_prime_exact gives
gamma'(log n) * (log n)^2 -> (1-theta) (differentiating the first-order
index (theta-1)/log n gives the same constant), so the normalized ratio
sits at 1/(2*theta): inside [0.85, 1.15] only when theta = 1/2.  The
theta != 1/2 cases are therefore expected to fail, and are kept failing
rather than re-normalized; see the measured values in the test output.
"""

import math
import time

import numpy as np
import pytest

import weibtail as wt
from weibtail.errors import DegenerateProfileError, ThetaOneExcludedError
from weibtail.model import k_jet
from weibtail.penultimate import Classification

THETAS = (0.25, 0.5, 2.0, 4.0)
T_GRID = (1e2, 1e4, 1e6, 1e8, 1e10)


class _Budget:
    """Context timer asserting the criterion's stated runtime budget."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s budget"
            print(f"[acceptance] {self.label}: PASS ({self.elapsed * 1e3:.0f} ms)")
        else:
            print(f"[acceptance] {self.label}: FAIL ({self.elapsed * 1e3:.0f} ms)")
        return False


def test_c01_sign_law():
    with _Budget("C01 sign law (16 theta/block cases)", 1.0):
        for theta in THETAS:
            m = wt.pure_weibull(theta=theta)
            for log_n in (5.0, 10.0, 25.0, 50.0):
                gamma = wt.penultimate_index(m, log_n).gamma_exact
                assert gamma * (theta - 1.0) > 0.0, (theta, log_n, gamma)


def test_c02_asymptotic_index():
    with _Budget("C02 gamma_n ~ (theta-1)/log n", 1.0):
        for theta in THETAS:
            m = wt.pure_weibull(theta=theta)
            devs = []
            for log_n in (10.0, 20.0, 50.0):
                gamma = wt.penultimate_index(m, log_n).gamma_exact
                devs.append(abs(gamma * log_n / (theta - 1.0) - 1.0))
            assert devs[-1] < 0.10, (theta, devs)
            assert devs[0] > devs[1] > devs[2], (theta, devs)


def test_c03_ultimate_rate():
    with _Budget("C03 k'(b)/k^2(b) ~ (1-theta)/log n", 1.0):
        for theta in THETAS:
            m = wt.pure_weibull(theta=theta)
            b = wt.norming(m, 50.0).b_exact
            k = wt.k_function(m, b)
            k1 = wt.k_derivative(m, b, 1)
            ratio = (k1 / (k * k)) * 50.0 / (1.0 - theta)
            assert 0.9 <= ratio <= 1.1, (theta, ratio)


@pytest.mark.parametrize("theta", THETAS)
def test_c04_penultimate_rate(theta):
    # Expected to fail for theta != 1/2; see the module docstring.
    with _Budget(f"C04 gamma'(log n) vs 2 theta (1-theta)/log^2 n (theta={theta})", 1.0):
        m = wt.pure_weibull(theta=theta)
        idx = wt.penultimate_index(m, 50.0)
        ratio = idx.gamma_prime_exact * 2500.0 / (2.0 * theta * (1.0 - theta))
        print(f"  measured ratio {ratio:.6f}  (against (1-theta): "
              f"{idx.gamma_prime_exact * 2500.0 / (1.0 - theta):.6f})")
        assert 0.85 <= ratio <= 1.15, (theta, ratio)


def test_c05_penultimate_dominance():
    with _Budget("C05 dominance + declining error ratio", 10.0):
        factories = [lambda t=t: wt.pure_weibull(theta=t) for t in THETAS]
        factories.append(wt.normal)
        for factory in factories:
            m = factory()
            ratios = []
            for log_n in (10.0, 20.0, 40.0):
                c = wt.error_comparison(m, log_n)
                assert c.sup_error_penultimate <= c.sup_error_ultimate, (m.label, log_n)
                ratios.append(c.sup_error_penultimate / c.sup_error_ultimate)
            assert ratios[0] > ratios[1] > ratios[2], (m.label, ratios)


def test_c06_error_scaling():
    with _Budget("C06 sup-error scaling windows", 10.0):
        for theta in (0.5, 2.0):
            m = wt.pure_weibull(theta=theta)
            ult, pen = [], []
            for log_n in (10.0, 20.0, 40.0):
                c = wt.error_comparison(m, log_n)
                ult.append(c.sup_error_ultimate * log_n)
                pen.append(c.sup_error_penultimate * log_n**2)
            ult_spread = (max(ult) - min(ult)) / min(ult)
            pen_spread = (max(pen) - min(pen)) / min(pen)
            assert ult_spread < 0.35, (theta, ult)
            assert pen_spread < 0.50, (theta, pen)


def test_c07_remainder_structure():
    with _Budget("C07 first-order remainder on [0.5, 3]", 5.0):
        for theta in (0.5, 2.0):
            m = wt.pure_weibull(theta=theta)
            dev10 = wt.remainder_profile(m, 10.0, (0.5, 3.0, 400))
            dev40 = wt.remainder_profile(m, 40.0, (0.5, 3.0, 400))
            assert dev40 < 0.5, (theta, dev40)
            assert dev40 < dev10, (theta, dev10, dev40)


def test_c08_condition_sweeps():
    with _Budget("C08 condition sweeps + bounded limit", 5.0):
        for theta in THETAS:
            report = wt.condition_sweep(wt.pure_weibull(theta=theta), T_GRID)
            for name in ("first_order", "second_order", "penultimate_cond", "anderson"):
                assert report.verdicts[name].kind == "confirmed_decaying", (theta, name)
            g = report.verdicts["gomes84"]
            assert g.kind == "confirmed_limit", theta
            assert abs(g.value - 1.0 / (1.0 - theta)) <= 0.05 * abs(1.0 / (1.0 - theta))


def test_c09_exact_gumbel_fixture():
    with _Budget("C09 exact-Gumbel null fixture", 1.0):
        fx = wt.gumbel_fixture()
        for t in (5.0, 10.0, 25.0, 50.0, 100.0):
            assert wt.gamma_of_t(fx, t) == 0.0
        for log_n in (10.0, 20.0, 40.0):
            c = wt.error_comparison(fx, log_n)
            assert c.sup_error_ultimate <= 1e-12
            assert c.sup_error_penultimate <= 1e-12
        with pytest.raises(DegenerateProfileError):
            wt.remainder_profile(fx, 20.0)
        report = wt.condition_sweep(fx, T_GRID)
        assert report.verdicts["first_order"].kind == "confirmed_decaying"
        for name in ("second_order", "penultimate_cond", "anderson", "gomes84"):
            assert report.verdicts[name].reason == "degenerate"


def test_c10_numeric_kernel():
    # Cross-path scope: all Weibull-type built-ins at both orders; the
    # Normal at order 1 everywhere plus order 2 at x = 1e2.  Its k'' at
    # x >= 1e4 (~2e-12 and below, on k ~ x) sits beneath the float64
    # stencil rounding floor, so no finite-difference path can measure it.
    with _Budget("C10 analytic vs numeric k-derivatives + round trip", 5.0):
        weibull_like = [wt.pure_weibull(theta=t) for t in THETAS]
        weibull_like.append(wt.extended_weibull(beta=2.0, delta=1.0))
        cases = [(m, x, order) for m in weibull_like for x in (1e2, 1e4, 1e6)
                 for order in (1, 2)]
        nrm = wt.normal()
        cases += [(nrm, x, 1) for x in (1e2, 1e4, 1e6)]
        cases.append((nrm, 1e2, 2))
        tol = {1: 1e-6, 2: 1e-4}
        for m, x, order in cases:
            a = wt.k_derivative(m, x, order, method="analytic")
            jet = k_jet(m, x, order, method="numeric")
            n, err = jet.values[order], jet.errors[order - 1]
            if a == 0.0:
                assert abs(n) <= max(10.0 * err, 1e-12), (m.label, x, order)
            else:
                assert abs(n - a) <= tol[order] * abs(a), (m.label, x, order)
        for m in weibull_like + [wt.gumbel_fixture()]:
            lo = max(m.support_lower, 0.0) + 1.0
            for x in np.geomspace(lo, 1e10, 8):
                y = wt.cumulative_hazard(m, float(x))
                assert wt.cumulative_hazard_inverse(m, y) == pytest.approx(
                    float(x), rel=1e-10
                )


def test_c11_theta_one_exclusion():
    with _Budget("C11 theta = 1 exclusion", 1.0):
        for factory in (wt.exponential, lambda: wt.gamma_model(2.0), wt.logistic):
            m = factory()
            idx = wt.penultimate_index(m, 10.0)
            assert idx.error == "theta_one_excluded"
            assert idx.classification is Classification.EXCLUDED_THETA_ONE
            assert idx.gamma_asymptotic is None
            assert math.isfinite(idx.gamma_exact)
            with pytest.raises(ThetaOneExcludedError):
                wt.error_comparison(m, 10.0, gamma_mode="asymptotic")
        with pytest.raises(ThetaOneExcludedError):
            wt.gomes84_closed_form(1.0)
