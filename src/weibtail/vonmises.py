"""The five limit functionals behind the penultimate theory.

For phi(t) = (1/k)'(t) = -k'(t)/k^2(t) the sweep evaluates, along a
diverging grid:

  first_order       phi(t)                      -> 0
  second_order      phi'(t) / (k phi)           -> 0
  penultimate_cond  phi''(t) / (k phi')         -> 0
  anderson          k''(t) / (k k')             -> 0   (Anderson class A_1)
  gomes84           phi'(t) / (k phi^2)         -> 1/(1-theta)

The zero limits certify the von Mises first/second/penultimate-order
conditions; the bounded fifth functional is the 1984 criterion whose limit
identifies theta.  Verdicts are finite-sample judgments: decaying needs the
terminal magnitude under 0.05 and at most half the initial one (<= so that
identically-zero sequences confirm); the limit verdict needs the last two
values within 5%.  0/0 points (the exact-Gumbel fixture) are reported as
degenerate, never silently dropped.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import InsufficientGridError, ThetaOneExcludedError, WeibtailError
from .model import WeibullTypeModel, k_jet
from .numerics import FAILURE_FRACTION, LIMIT_AGREEMENT, VERDICT_ABS, VERDICT_SHRINK

_TINY = 1e-280

CONDITIONS = ("first_order", "second_order", "penultimate_cond", "anderson", "gomes84")


class Verdict(NamedTuple):
    """One condition's finite-sample judgment: its kind, limit or reason."""

    kind: str  # "confirmed_decaying" | "confirmed_limit" | "not_confirmed"
    value: Optional[float] = None
    reason: Optional[str] = None


class ConditionReport(NamedTuple):
    """The five functionals along ``t_grid`` and their verdicts, and the k_jet
    route that formed them ("analytic" may rest on Richardson l' to l'''':
    see ``KJet``)."""

    t_grid: Tuple[float, ...]
    first_order: Tuple[float, ...]
    second_order: Tuple[float, ...]
    penultimate_cond: Tuple[float, ...]
    anderson: Tuple[float, ...]
    gomes84: Tuple[float, ...]
    verdicts: Dict[str, Verdict]
    derivative_path: str  # "analytic" | "numeric"
    gomes84_theoretical: Optional[float]
    gomes84_relative_gap: Optional[float]
    point_codes: Tuple[Optional[str], ...]  # per t: a refusal's code, or None


def gomes84_closed_form(theta: float) -> float:
    """Theoretical gomes84 limit 1/(1-theta), undefined at theta = 1."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    if abs(theta - 1.0) < 1e-12:
        raise ThetaOneExcludedError("the 1/(1-theta) limit is undefined at theta = 1")
    return 1.0 / (1.0 - theta)


def _ratio(num: float, den: float) -> float:
    """num/den with 0/0 marked NaN (degenerate) and x/0 marked inf."""
    if abs(den) < _TINY:
        return math.nan if abs(num) < _TINY else math.copysign(math.inf, num) * math.copysign(1.0, den)
    return num / den


def condition_sweep(model: WeibullTypeModel, t_grid: Sequence[float]) -> ConditionReport:
    """Evaluate all five functionals along t_grid and attach verdicts.

    Needs >= 5 ascending points spanning >= 4 decades, all interior to the
    support.  Uses the analytic k route where the model has one (all
    built-ins do), Richardson differentiation of k otherwise; a condition
    is not confirmed when more than 20% of its points fail.  A point fails
    on a typed :class:`WeibtailError`, whose code goes to ``point_codes``;
    any other exception is a bug and propagates.
    """
    grid = tuple(float(t) for t in t_grid)
    if len(grid) < 5:
        raise InsufficientGridError("need at least 5 grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InsufficientGridError("grid must be strictly ascending")
    if grid[-1] < 1e4 * grid[0]:
        raise InsufficientGridError("grid must span at least 4 decades")
    if grid[0] <= model.support_lower:
        raise InsufficientGridError(
            f"grid must stay above the support endpoint {model.support_lower!r}"
        )

    path = "analytic" if model.analytic_k_path else "numeric"
    # the sequence fields follow t_grid in CONDITIONS order
    *sequences, point_codes = zip(*(_functionals(model, t) for t in grid))
    verdicts = {name: _judged(seq, _decay_verdict)
                for name, seq in zip(CONDITIONS[:-1], sequences)}
    verdicts["gomes84"] = v = _judged(sequences[-1], _limit_verdict)

    theoretical = gap = None
    if not model.theta_is_one:
        theoretical = gomes84_closed_form(model.theta)
        if v.kind == "confirmed_limit":
            gap = abs(v.value - theoretical) / abs(theoretical)
    return ConditionReport(grid, *sequences, verdicts, path, theoretical, gap, point_codes)


def _functionals(model: WeibullTypeModel, t: float) -> Tuple:
    """The five functionals at t in CONDITIONS order and None, or inf in
    each (a recorded evaluation failure) and the jet's refusal code."""
    try:
        jet = k_jet(model, t)
    except WeibtailError as exc:
        return (math.inf,) * len(CONDITIONS) + (exc.code,)
    k, k1, k2, k3 = jet.values
    phi_v = jet.phi
    phi_p = -(k2 * k - 2.0 * k1 * k1) / k**3
    phi_pp = -6.0 * phi_v * (k2 / k - (k1 / k) ** 2) - k3 / (k * k)
    return (phi_v, _ratio(phi_p, k * phi_v), _ratio(phi_pp, k * phi_p), _ratio(k2, k * k1),
            _ratio(phi_p, k * phi_v * phi_v), None)


def _judged(seq: Sequence[float], judge: Callable[[list], Verdict]) -> Verdict:
    """``judge`` of the finite values of ``seq``, unless more than
    ``FAILURE_FRACTION`` of its points failed or fewer than two are finite."""
    finite = [v for v in seq if math.isfinite(v)]
    if len(seq) - len(finite) <= FAILURE_FRACTION * len(seq) and len(finite) >= 2:
        return judge(finite)
    n_nan = sum(1 for v in seq if math.isnan(v))
    n_inf = sum(1 for v in seq if math.isinf(v))
    return Verdict("not_confirmed", reason="degenerate" if n_nan >= n_inf else "eval_failure")


def _decay_verdict(finite: list) -> Verdict:
    first, last = abs(finite[0]), abs(finite[-1])
    if last < VERDICT_ABS and last <= VERDICT_SHRINK * first:
        return Verdict("confirmed_decaying")
    return Verdict("not_confirmed", reason="no_decay")


def _limit_verdict(finite: list) -> Verdict:
    prev, lastv = finite[-2], finite[-1]
    if abs(lastv - prev) <= LIMIT_AGREEMENT * max(abs(lastv), _TINY):
        return Verdict("confirmed_limit", value=lastv)
    return Verdict("not_confirmed", reason="not_converged")
