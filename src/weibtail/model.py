"""Weibull-type tail models and the k-function machinery.

Three families share one pipeline.  Writing T(x) = -log(-log F(x)) for the
Gumbel-scale transform of the cdf:

* ``TAIL_EXP``     1 - F = exp(-H), H = x^(1/theta) l(x):  T = g(H) with
  g(u) = -log(-log(1 - e^-u)), so T ~ H with an e^-H correction.
* ``LOG_CDF_EXP``  -log F = exp(-H):  T = H exactly.
* ``CLASSICAL``    log sf supplied directly:  H = -log(1 - F), so again
  T = g(H); the k route is a hazard jet or the log pdf.

k = T' is the hazard-like object of the Gumbel domain.  :func:`k_jet`
returns k and its first derivatives at one point as a :class:`KJet`: by the
composition rule from the chain weights in :mod:`weibtail.numerics` and one
:func:`hazard_jet` (H and only the derivatives the jet's order reads), or
by Richardson differentiation of k for classical models without hazard
derivatives.
``KJet.phi`` = (1/k)' = -k'/k^2 is the one place that shape is formed.
Everything here is scalar; the error curves' array pass takes T over an
array in ``weibtail.arrays``, saturated as :func:`_saturated_coordinate`
is.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from . import numerics
from .errors import (
    BelowRangeError,
    BelowSupportError,
    DomainError,
    EvalFailureError,
    NoConvergenceError,
    OutsideTailRegionError,
    TailUnderflowError,
)
from .slowly_varying import ArrayFn, ScalarFn, SlowlyVaryingSpec

# (x, m) -> (H, H', ..., H^(m)) of the classical hazard H = -log(1 - F), m in
# [1, 4], H to the bit -classical_log_sf; H' is the hazard rate f / (1 - F).
HazardDerivs = Callable[[float, int], Tuple[float, ...]]


class Family(enum.Enum):
    """How a model gives its tail: 1 - F = e^-H, -log F = e^-H, or log(1 - F)."""

    TAIL_EXP = "tail_exp"
    LOG_CDF_EXP = "log_cdf_exp"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class WeibullTypeModel:
    """A distribution in one of the three supported families.

    ``theta`` is the Weibull-tail coefficient for the exponential-tail
    families and the known reference value for classical models.  A
    classical model is its tail alone: ``classical_log_sf`` = -H, accurate
    deep in the tail, plus a k route, either ``hazard_derivs`` (the analytic
    k-derivative path, see ``HazardDerivs``) or ``classical_log_pdf`` (the
    hazard e^(log pdf - log sf), differentiated numerically), plus optionally
    ``classical_log_sf_array`` (``classical_log_sf`` over a float array)
    for the error curves' array pass in ``weibtail.arrays``.  The
    library never writes into the array it returns, so a read-only array
    or a view will do.

    ``classical_cdf``, ``classical_density`` and ``classical_log_cdf`` are
    retired: nothing reads them and a value other than None is refused.
    They stay declared only because ``perfbench/worker.py`` passes them to
    ``dataclasses.replace``.
    """

    family: Family
    theta: float
    label: str
    l: Optional[SlowlyVaryingSpec] = None
    support_lower: float = 0.0
    classical_cdf: Optional[ScalarFn] = None
    classical_density: Optional[ScalarFn] = None
    classical_log_cdf: Optional[ScalarFn] = None
    classical_log_sf: Optional[ScalarFn] = None
    classical_log_pdf: Optional[ScalarFn] = None
    hazard_derivs: Optional[HazardDerivs] = None
    classical_log_sf_array: Optional[ArrayFn] = None

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        retired = [name for name in ("classical_cdf", "classical_density", "classical_log_cdf")
                   if getattr(self, name) is not None]
        if retired:
            raise ValueError(f"{', '.join(retired)} retired: a classical model is "
                             "classical_log_sf plus hazard_derivs or classical_log_pdf")
        if self.family is Family.CLASSICAL:
            if self.classical_log_sf is None:
                raise ValueError("classical models need classical_log_sf")
            if self.hazard_derivs is None and self.classical_log_pdf is None:
                raise ValueError("classical models need hazard_derivs or classical_log_pdf")
        else:
            if self.l is None:
                raise ValueError("tail families need a slowly varying spec")
            if not self.support_lower >= 0.0:
                raise ValueError("support_lower must be >= 0 for tail families")
            if self.support_lower < self.l.domain_lower:
                raise ValueError(
                    "support_lower must not undercut the slowly varying domain "
                    f"({self.support_lower!r} < {self.l.domain_lower!r})"
                )

    @property
    def theta_is_one(self) -> bool:
        return abs(self.theta - 1.0) < 1e-12

    @property
    def analytic_k_path(self) -> bool:
        """Whether closed-form k-derivatives are available."""
        return self.family is not Family.CLASSICAL or self.hazard_derivs is not None


def _pow(x: float, p: float) -> float:
    """x^p, with inf past the double range and at the pole 0^(p < 0)."""
    if x == 0.0 and p < 0.0:
        return math.inf
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.inf


def cumulative_hazard(model: WeibullTypeModel, x: float) -> float:
    """H(x) = x^(1/theta) l(x) for the tail families; -log(1 - F) classical."""
    if model.family is Family.CLASSICAL:
        return -model.classical_log_sf(x)
    if x < model.support_lower:
        raise BelowSupportError(
            f"x={x!r} below support lower endpoint {model.support_lower!r} of {model.label}"
        )
    try:
        return _pow(x, 1.0 / model.theta) * model.l.value_checked(x)
    except DomainError:
        if x == math.inf:
            return math.inf  # x^(1/theta) outgrows every slowly varying l
        raise


def _power_term(x: float, p: float, l0: float, bracket: float) -> float:
    """x^p l0 bracket; a zero bracket gives itself, also where x^p
    overflows and the product would be inf * 0 = NaN."""
    if bracket == 0.0:
        return bracket
    return _pow(x, p) * l0 * bracket


def hazard_jet(model: WeibullTypeModel, x: float, m: int) -> Tuple[float, ...]:
    """(H, H', ..., H^(m)) at x, m in [1, 4], H as :func:`cumulative_hazard`
    gives it.  Tail families expand the derivatives of x^c l(x) in the decay
    ratios u_j = x^j l^(j)/l, reading ``l.deriv(j)`` for j <= m only (NaN
    where H = inf, which every k route refuses); classical models return
    ``hazard_derivs(x, m)``, or are refused as ``tail_underflow``."""
    if model.family is Family.CLASSICAL:
        if model.hazard_derivs is None:
            raise TailUnderflowError(f"{model.label}: no analytic hazard derivatives")
        return model.hazard_derivs(x, m)
    h = cumulative_hazard(model, x)
    if h == math.inf:
        return (h,) + (math.nan,) * m
    spec, c = model.l, 1.0 / model.theta
    l0 = spec.value_checked(x)
    # a constant l has u_j = x^j l^(j)/l = 0, also where x^j overflows (inf * 0):
    # x^j reads 0 there; its l^(j) are still read, as perfbench's trace counts them
    xu = 0.0 if spec.is_constant else x
    u1 = xu * spec.deriv(1, x) / l0
    d1 = _power_term(x, c - 1.0, l0, c + u1)
    if m == 1:
        return h, d1
    u2 = xu * xu * spec.deriv(2, x) / l0
    d2 = _power_term(x, c - 2.0, l0, c * (c - 1.0) + 2.0 * c * u1 + u2)
    if m == 2:
        return h, d1, d2
    u3 = xu**3 * spec.deriv(3, x) / l0
    d3 = _power_term(x, c - 3.0, l0,
                     c * (c - 1.0) * (c - 2.0) + 3.0 * c * (c - 1.0) * u1 + 3.0 * c * u2 + u3)
    if m == 3:
        return h, d1, d2, d3
    u4 = xu**4 * spec.deriv(4, x) / l0
    d4 = _power_term(x, c - 4.0, l0,
                     c * (c - 1.0) * (c - 2.0) * (c - 3.0)
                     + 4.0 * c * (c - 1.0) * (c - 2.0) * u1
                     + 6.0 * c * (c - 1.0) * u2
                     + 4.0 * c * u3
                     + u4)
    return h, d1, d2, d3, d4


def constant_l_value(model: WeibullTypeModel) -> float:
    """The one value of a constant l, read at max(support_lower, 2)."""
    return model.l.value(max(model.support_lower, 2.0))


def cumulative_hazard_inverse(model: WeibullTypeModel, y: float) -> float:
    """x with H(x) = y.

    Constant l uses the closed form (y/c)^theta (a normal double with
    |H(x) - y| > 2^-26 y is ``no_convergence``); otherwise
    :func:`numerics.solve_increasing` solves above the support endpoint,
    and a y below H(support) is refused as ``below_range``.  Classical
    models invert -log sf over the whole line.
    """
    if model.family is Family.CLASSICAL:
        return numerics.solve_increasing(lambda t: cumulative_hazard(model, t), y)
    lo = model.support_lower
    h_lo = cumulative_hazard(model, lo) if lo > 0.0 else 0.0
    if y < h_lo:
        raise BelowRangeError(f"y={y!r} below H(support) = {h_lo!r}")
    if not model.l.is_constant:
        return numerics.solve_increasing(lambda t: cumulative_hazard(model, t), y, lo)
    x = _pow(y / constant_l_value(model), model.theta)
    if sys.float_info.min <= x < math.inf:
        h = cumulative_hazard(model, x)
        if not abs(h - y) <= 2.0**-26 * y:
            raise NoConvergenceError(f"closed-form root x={x!r} of H(x) = y={y!r} has H(x)={h!r}")
    return x


def gumbel_coordinate(model: WeibullTypeModel, x: float) -> float:
    """T(x) = -log(-log F(x)), the coordinate in which maxima are Gumbel."""
    if model.family is Family.LOG_CDF_EXP:
        return cumulative_hazard(model, x)
    h = cumulative_hazard(model, x)
    if h <= 0.0:
        raise OutsideTailRegionError(f"F(x) = 0 at x={x!r}")
    if math.isinf(h):
        raise TailUnderflowError(f"F(x) = 1 at double precision, x={x!r}")
    return numerics.log_neg_log_cdf_from_H(h)


def array_form_of(model: WeibullTypeModel) -> Optional[ArrayFn]:
    """The model's array form, ``classical_log_sf_array`` or
    ``l.value_array``, or None when it has only scalar callables."""
    if model.family is Family.CLASSICAL:
        return model.classical_log_sf_array
    return model.l.value_array


def _saturated_coordinate(model: WeibullTypeModel, x: float) -> float:
    """:func:`gumbel_coordinate`, saturated as the array pass saturates T:
    -inf where F = 0 and +inf where F = 1 at double precision."""
    try:
        return gumbel_coordinate(model, x)
    except (BelowSupportError, DomainError, OutsideTailRegionError):
        return -math.inf  # F = 0
    except TailUnderflowError:
        return math.inf  # F = 1 at double precision


def exact_level_for_gumbel_coordinate(t: float) -> float:
    """H-level y = -log(1 - e^(-e^-t)), so that -log(-log(1 - e^-y)) = t.

    The level e^(-e^-t) underflows to 0.0 for t below about -6.6.
    """
    if t >= 36.0:
        # margin below double resolution: y = t + e^-t/2 rounds to t
        return t
    if t < -7.0:
        return 0.0  # y < e^-1096, and e^-t may overflow
    return -numerics.log1mexp(-math.exp(-t))


def gumbel_coordinate_inverse(model: WeibullTypeModel, t: float) -> float:
    """x with T(x) = t.

    The tail families invert H at the exact level of t.  In the 1 - F =
    e^-H family a level or a root below the normal double range (a
    subnormal root keeps too few bits for T(x) to be t) is refused as
    ``tail_underflow``, or as ``below_range`` above a positive support
    endpoint.  Classical models solve T itself, saturated as the error
    curves saturate it (-inf where F = 0, +inf where F = 1), above a
    finite support endpoint (a t below T there is ``below_range``) or
    over the whole line.
    """
    if model.family is Family.LOG_CDF_EXP:
        return cumulative_hazard_inverse(model, t)
    if model.family is Family.TAIL_EXP:
        y = exact_level_for_gumbel_coordinate(t)
        x = cumulative_hazard_inverse(model, y)
        if min(y, x) < sys.float_info.min:
            raise TailUnderflowError(f"t={t!r}: level y={y!r}, x={x!r} underflow the double range")
        return x
    lower = model.support_lower if math.isfinite(model.support_lower) else None
    return numerics.solve_increasing(functools.partial(_saturated_coordinate, model), t, lower)


def _chain_weights(model: WeibullTypeModel, x: float,
                   h: float) -> Tuple[float, float, float, float]:
    """The weights g_j = d^j T/dH^j at H = h = H(x)."""
    if model.family is Family.LOG_CDF_EXP:
        if not math.isfinite(h):
            raise TailUnderflowError(f"H(x) = {h!r} at x={x!r}")
        return 1.0, 0.0, 0.0, 0.0  # T = H
    if not h > 0.0:
        raise TailUnderflowError(f"F(x) = 0 numerically at x={x!r}")
    if math.isinf(h):
        raise TailUnderflowError(f"F(x) = 1 numerically at x={x!r}")
    return numerics.log_neg_log_cdf_derivs(h)


def _refuses_overflow(k_fn):
    """``k_fn(model, x, ...)``, refusing an OverflowError (a value past the
    double range in the chain weights, the jet or a hazard jet) as ``eval_failure``."""

    @functools.wraps(k_fn)
    def guarded(model: WeibullTypeModel, x: float, *args, **kwargs):
        try:
            return k_fn(model, x, *args, **kwargs)
        except OverflowError as exc:
            raise EvalFailureError(f"{model.label}: k-jet overflows at x={x!r}") from exc

    return guarded


@_refuses_overflow
def k_function(model: WeibullTypeModel, x: float) -> float:
    """k(x) = d/dx [-log(-log F(x))].

    Equals f / (F * (-log F)) for densities, H' exactly for the
    LOG_CDF_EXP family, and H' * (1 + O(e^-H)) in the tail otherwise, H'
    from an order-1 hazard jet or as e^(log pdf + H).  A value past the
    double range is refused as ``eval_failure``.
    """
    if model.analytic_k_path:
        h, d1 = hazard_jet(model, x, 1)
        k = d1 * _chain_weights(model, x, h)[0]
        if not math.isfinite(k):
            raise EvalFailureError(f"{model.label}: k = {k!r} at x={x!r}")
        return k
    h = cumulative_hazard(model, x)
    g1 = _chain_weights(model, x, h)[0]
    v = math.exp(model.classical_log_pdf(x) + h)
    if not math.isfinite(v):
        raise TailUnderflowError(f"hazard overflow at x={x!r}")
    return v * g1


class KJet(NamedTuple):
    """(k, k', ..., k^(order)) at one point and the path that produced it.

    On the numeric path ``errors[j - 1]`` is the Richardson error estimate
    of k^(j); the analytic path carries none, even where a tail family's
    spec has no d1..d4 and ``SlowlyVaryingSpec.deriv`` forms l' to l'''' by
    Richardson differentiation: "analytic" names the route.
    """

    values: Tuple[float, ...]
    method: str  # "analytic" | "numeric"
    errors: Optional[Tuple[float, ...]] = None

    @property
    def phi(self) -> float:
        """(1/k)' = -k'/k^2; at x = b_n this is the penultimate shape gamma_n."""
        k, k1 = self.values[0], self.values[1]
        return -k1 / (k * k)


def _require_k_power(model: WeibullTypeModel, x: float, k: float, order: int) -> None:
    """Refuse a k whose power its readers divide by leaves the normal doubles:
    k^2 at order 1 (phi), k^3 at orders 2-3 (the von Mises conditions)."""
    power = min(order + 1, 3)
    if abs(k) < 2.0 ** -(1022 // power):
        raise EvalFailureError(f"{model.label}: k = {k!r} at x={x!r}, too small to divide by k^{power}")


@_refuses_overflow
def k_jet(model: WeibullTypeModel, x: float, order: int = 3, method: str = "auto") -> KJet:
    """k and its first ``order`` derivatives at x.

    ``method``: "analytic" (the composition rule T = g(H) on one hazard
    jet of order ``order`` + 1; tail families always, classical models only
    with hazard derivatives; for a spec without derivatives see
    :class:`KJet`), "numeric" (Richardson differentiation of k itself, one
    estimate per order up to ``order``), or "auto" preferring analytic.
    Third-order numeric differentiation of classical models without hazard
    derivatives raises the extrapolation depth, since that path is the
    only one available there.  A jet past the double range, or whose k is
    too small to divide by the power its readers take (k^2 at order 1, k^3
    above), is refused as ``eval_failure``.
    """
    if not 1 <= order <= 3:
        raise ValueError("k_jet order must be in [1, 3]")
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "analytic" if model.analytic_k_path else "numeric"
    if method == "analytic":
        jet = hazard_jet(model, x, order + 1)
        g1, g2, g3, g4 = _chain_weights(model, x, jet[0])
        d1, d2 = jet[1], jet[2]
        k, k1 = d1 * g1, d2 * g1 + d1 * d1 * g2
        if order == 1:
            values = k, k1
        else:
            d3 = jet[3]
            k2 = d3 * g1 + 3.0 * d1 * d2 * g2 + d1**3 * g3
            values = (k, k1, k2) if order == 2 else (
                k, k1, k2, jet[4] * g1
                + (4.0 * d1 * d3 + 3.0 * d2 * d2) * g2
                + 6.0 * d1 * d1 * d2 * g3
                + d1**4 * g4)
        if not all(map(math.isfinite, values)):
            raise EvalFailureError(f"{model.label}: k-jet {values!r} at x={x!r}")
        _require_k_power(model, x, values[0], order)
        return KJet(values=values, method="analytic")
    k = k_function.__wrapped__  # the stencils type their own failures
    k0 = k(model, x)
    _require_k_power(model, x, k0, order)
    ests = [
        numerics.derivative(
            lambda t: k(model, t),
            x,
            j,
            levels=4 if j == 3 and not model.analytic_k_path else 3,
            lower=model.support_lower,
        )
        for j in range(1, order + 1)
    ]
    return KJet(
        values=(k0, *(e.value for e in ests)),
        method="numeric",
        errors=tuple(e.error for e in ests),
    )


def k_derivative(model: WeibullTypeModel, x: float, order: int, method: str = "auto") -> float:
    """k^(order)(x), the one entry of :func:`k_jet` at that order."""
    return k_jet(model, x, order, method).values[order]
