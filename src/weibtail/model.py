"""Weibull-type tail models and the k-function machinery.

Three families share one pipeline.  Writing T(x) = -log(-log F(x)) for the
Gumbel-scale transform of the cdf:

* ``TAIL_EXP``     1 - F = exp(-H), H = x^(1/theta) l(x):  T = g(H) with
  g(u) = -log(-log(1 - e^-u)), so T ~ H with an e^-H correction.
* ``LOG_CDF_EXP``  -log F = exp(-H):  T = H exactly.
* ``CLASSICAL``    cdf/density supplied directly:  T = g(-log sf), reusing
  the same g because 1 - F = exp(log sf) tautologically.

k = T' is the hazard-like object of the Gumbel domain; its first three
derivatives follow from the composition rule using the chain weights in
:mod:`weibtail.numerics` plus family-specific H-derivatives (the slowly
varying spec for tail families, hazard recurrences for classical models).
This module also evaluates the generalized extreme value cdf/density with
a series-corrected branch through gamma = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import numerics
from .errors import (
    BelowRangeError,
    BelowSupportError,
    BracketMissError,
    OutsideSupportError,
    OutsideTailRegionError,
    TailUnderflowError,
)
from .slowly_varying import SlowlyVaryingSpec

ScalarFn = Callable[[float], float]
# (H', H'', H''', H'''') of the classical hazard H = -log(1 - F); the first
# entry is the ordinary hazard rate f / (1 - F).
HazardDerivs = Callable[[float], Tuple[float, float, float, float]]


class Family(enum.Enum):
    TAIL_EXP = "tail_exp"
    LOG_CDF_EXP = "log_cdf_exp"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class WeibullTypeModel:
    """A distribution in one of the three supported families.

    ``theta`` is the Weibull-tail coefficient for the exponential-tail
    families and the known reference value for classical models.  Classical
    models must supply cdf/density plus log-space variants accurate deep in
    the tail; ``hazard_derivs`` unlocks the analytic k-derivative path.
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

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")
        if self.family is Family.CLASSICAL:
            if self.classical_cdf is None or self.classical_density is None:
                raise ValueError("classical models need cdf and density")
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
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.inf


def _require_support(model: WeibullTypeModel, x: float) -> None:
    if x < model.support_lower:
        raise BelowSupportError(
            f"x={x!r} below support lower endpoint {model.support_lower!r} of {model.label}"
        )


def _classical_log_sf(model: WeibullTypeModel, x: float) -> float:
    if model.classical_log_sf is not None:
        return model.classical_log_sf(x)
    p = model.classical_cdf(x)
    return math.log1p(-p) if p < 1.0 else -math.inf  # sf rounded to 0


def _classical_log_cdf(model: WeibullTypeModel, x: float) -> float:
    if model.classical_log_cdf is not None:
        return model.classical_log_cdf(x)
    p = model.classical_cdf(x)
    return math.log(p) if p > 0.0 else -math.inf


def _classical_log_pdf(model: WeibullTypeModel, x: float) -> float:
    if model.classical_log_pdf is not None:
        return model.classical_log_pdf(x)
    return math.log(model.classical_density(x))


def cumulative_hazard(model: WeibullTypeModel, x: float) -> float:
    """H(x) = x^(1/theta) l(x) for the tail families; -log(1 - F) classical."""
    if model.family is Family.CLASSICAL:
        return -_classical_log_sf(model, x)
    _require_support(model, x)
    c = 1.0 / model.theta
    return _pow(x, c) * model.l.value_checked(x)


def hazard_derivative_block(model: WeibullTypeModel, x: float) -> Tuple[float, float, float, float]:
    """(H', H'', H''', H'''') at x.

    Tail families expand derivatives of x^c l(x) in the decay ratios
    u_j = x^j l^(j)/l; classical models delegate to their hazard
    recurrences.  Raises TailUnderflowError for classical models without
    an analytic hazard path.
    """
    if model.family is Family.CLASSICAL:
        if model.hazard_derivs is None:
            raise TailUnderflowError(f"{model.label}: no analytic hazard derivatives")
        return model.hazard_derivs(x)
    _require_support(model, x)
    c = 1.0 / model.theta
    spec = model.l
    l0 = spec.value_checked(x)
    u1 = x * spec.deriv(1, x) / l0
    u2 = x * x * spec.deriv(2, x) / l0
    u3 = x**3 * spec.deriv(3, x) / l0
    u4 = x**4 * spec.deriv(4, x) / l0
    d1 = _pow(x, c - 1.0) * l0 * (c + u1)
    d2 = _pow(x, c - 2.0) * l0 * (c * (c - 1.0) + 2.0 * c * u1 + u2)
    d3 = _pow(x, c - 3.0) * l0 * (
        c * (c - 1.0) * (c - 2.0) + 3.0 * c * (c - 1.0) * u1 + 3.0 * c * u2 + u3
    )
    d4 = _pow(x, c - 4.0) * l0 * (
        c * (c - 1.0) * (c - 2.0) * (c - 3.0)
        + 4.0 * c * (c - 1.0) * (c - 2.0) * u1
        + 6.0 * c * (c - 1.0) * u2
        + 4.0 * c * u3
        + u4
    )
    return d1, d2, d3, d4


def cumulative_hazard_inverse(model: WeibullTypeModel, y: float) -> float:
    """x with H(x) = y.

    Constant l uses the closed form (y/c)^theta; otherwise a bracket is
    grown from the support endpoint and solved by the monotone root
    finder.  Classical models invert -log sf the same way.
    """
    if model.family is Family.CLASSICAL:
        return _invert_increasing(
            lambda t: cumulative_hazard(model, t), y, two_sided=True
        )
    lo = model.support_lower
    h_lo = cumulative_hazard(model, lo) if lo > 0.0 else 0.0
    if y < h_lo:
        raise BelowRangeError(f"y={y!r} below H(support) = {h_lo!r}")
    if model.l.is_constant:
        cval = model.l.value(max(lo, 2.0))
        return _pow(y / cval, model.theta)
    return _invert_increasing(
        lambda t: cumulative_hazard(model, t),
        y,
        lo_start=lo + 1e-9 * max(1.0, lo),
        lo_fixed=True,
    )


def _invert_increasing(
    f: ScalarFn,
    y: float,
    lo_start: float = -1.0,
    lo_fixed: bool = False,
    two_sided: bool = False,
    rel_tol: float = 1e-14,
) -> float:
    lo = lo_start if (lo_fixed or two_sided) else 1.0
    hi = max(2.0, lo * 2.0, lo + 1.0)
    try:
        br = numerics.grow_bracket(f, y, lo, hi, lo_min=lo if lo_fixed else None)
    except BracketMissError as exc:
        raise BelowRangeError(str(exc)) from exc
    return numerics.solve_increasing(f, y, br, rel_tol=rel_tol)


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


def exact_level_for_gumbel_coordinate(t: float) -> float:
    """H-level y with -log(-log(1 - e^-y)) = t, stable for all t."""
    if t < 36.0:
        return -math.log(-math.expm1(-math.exp(-t)))
    # margin below double resolution: y = t + e^-t/2 rounds to t
    return t


def gumbel_coordinate_inverse(model: WeibullTypeModel, t: float) -> float:
    """x with T(x) = t (exact level, solved per family)."""
    if model.family is Family.LOG_CDF_EXP:
        return cumulative_hazard_inverse(model, t)
    if model.family is Family.TAIL_EXP:
        return cumulative_hazard_inverse(model, exact_level_for_gumbel_coordinate(t))
    if math.isfinite(model.support_lower):
        return _invert_increasing(
            lambda z: gumbel_coordinate(model, z),
            t,
            lo_start=model.support_lower + 1e-9 * max(1.0, abs(model.support_lower)),
            lo_fixed=True,
        )
    return _invert_increasing(lambda z: gumbel_coordinate(model, z), t, two_sided=True)


def log_cdf(model: WeibullTypeModel, x: float) -> float:
    if model.family is Family.TAIL_EXP:
        h = cumulative_hazard(model, x)
        if h <= 0.0:
            return -math.inf
        return math.log(-math.expm1(-h)) if h < 36.0 else -math.exp(-h)
    if model.family is Family.LOG_CDF_EXP:
        _require_support(model, x)
        return -math.exp(-cumulative_hazard(model, x))
    return _classical_log_cdf(model, x)


def cdf(model: WeibullTypeModel, x: float) -> float:
    if model.family is Family.TAIL_EXP:
        h = cumulative_hazard(model, x)
        return -math.expm1(-h) if h > 0.0 else 0.0
    return math.exp(log_cdf(model, x))


def density(model: WeibullTypeModel, x: float) -> float:
    """f(x); tail families use H' e^-H and its LOG_CDF_EXP analogue."""
    if model.family is Family.CLASSICAL:
        return model.classical_density(x)
    h = cumulative_hazard(model, x)
    d1 = hazard_derivative_block(model, x)[0]
    if model.family is Family.TAIL_EXP:
        return d1 * math.exp(-h)
    return d1 * math.exp(-h - math.exp(-h))


def log_cdf_of_maxima(model: WeibullTypeModel, x: float, log_n: float) -> float:
    """log F^n(x) with n = e^log_n, safe at any block scale.

    Points below the support endpoint report -inf: there F <= F(x0) < 1 so
    F^n vanishes to far below double resolution for the block sizes where
    maxima asymptotics are meaningful.
    """
    try:
        t = gumbel_coordinate(model, x)
    except (BelowSupportError, OutsideTailRegionError):
        return -math.inf
    except TailUnderflowError:
        return -0.0  # F = 1 at double precision, so F^n is too
    return numerics.log_cdf_power(-t, log_n)


def _chain_weights(model: WeibullTypeModel, x: float) -> Tuple[float, float, float, float]:
    if model.family is Family.LOG_CDF_EXP:
        return 1.0, 0.0, 0.0, 0.0
    h = cumulative_hazard(model, x)
    if not h > 0.0:
        raise TailUnderflowError(f"F(x) = 0 numerically at x={x!r}")
    if math.isinf(h):
        raise TailUnderflowError(f"F(x) = 1 numerically at x={x!r}")
    return numerics.log_neg_log_cdf_derivs(h)


def _hazard_value(model: WeibullTypeModel, x: float) -> float:
    """H'(x) (tail families) or the hazard rate f/sf (classical)."""
    if model.family is Family.CLASSICAL:
        if model.hazard_derivs is not None:
            return model.hazard_derivs(x)[0]
        v = math.exp(_classical_log_pdf(model, x) - _classical_log_sf(model, x))
        if not math.isfinite(v):
            raise TailUnderflowError(f"hazard overflow at x={x!r}")
        return v
    return hazard_derivative_block(model, x)[0]


def k_function(model: WeibullTypeModel, x: float) -> float:
    """k(x) = d/dx [-log(-log F(x))].

    Equals f / (F * (-log F)) for densities, H' exactly for the
    LOG_CDF_EXP family, and H' * (1 + O(e^-H)) in the tail otherwise.
    """
    g1 = _chain_weights(model, x)[0]
    return _hazard_value(model, x) * g1


def k_derivatives_analytic(model: WeibullTypeModel, x: float) -> Tuple[float, float, float, float]:
    """(k, k', k'', k''') by the composition rule T = g(H)."""
    d1, d2, d3, d4 = hazard_derivative_block(model, x)
    g1, g2, g3, g4 = _chain_weights(model, x)
    k0 = d1 * g1
    k1 = d2 * g1 + d1 * d1 * g2
    k2 = d3 * g1 + 3.0 * d1 * d2 * g2 + d1**3 * g3
    k3 = (
        d4 * g1
        + (4.0 * d1 * d3 + 3.0 * d2 * d2) * g2
        + 6.0 * d1 * d1 * d2 * g3
        + d1**4 * g4
    )
    return k0, k1, k2, k3


@dataclass(frozen=True)
class KDerivativeEstimate:
    value: float
    method: str  # "analytic" | "numeric"
    error: Optional[float] = None
    low_confidence: bool = False


def k_derivative_estimate(
    model: WeibullTypeModel,
    x: float,
    order: int,
    method: str = "auto",
    cfg: Optional[numerics.DiffConfig] = None,
) -> KDerivativeEstimate:
    """k^(order)(x) with the path used and, for the numeric path, the
    Richardson error estimate.

    ``method``: "analytic" (closed chain; tail families always, classical
    only with hazard recurrences), "numeric" (Richardson on k itself), or
    "auto" preferring analytic.  Third-order numeric differentiation of
    classical models without hazard recurrences raises the extrapolation
    depth, since that path is the only one available there.
    """
    if not 1 <= order <= 3:
        raise ValueError("k_derivative order must be in [1, 3]")
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "analytic" if model.analytic_k_path else "numeric"
    if method == "analytic":
        if not model.analytic_k_path:
            raise TailUnderflowError(f"{model.label}: analytic k path unavailable")
        value = k_derivatives_analytic(model, x)[order]
        return KDerivativeEstimate(value=value, method="analytic")
    if cfg is None:
        levels = 4 if (order == 3 and not model.analytic_k_path) else 3
        cfg = numerics.DiffConfig(richardson_levels=levels)
    est = numerics.derivative(lambda t: k_function(model, t), x, order, cfg, tol=1e-5)
    return KDerivativeEstimate(
        value=est.value, method="numeric", error=est.error, low_confidence=est.low_confidence
    )


def k_derivative(model: WeibullTypeModel, x: float, order: int, method: str = "auto") -> float:
    return k_derivative_estimate(model, x, order, method).value


def rv_ratios(model: WeibullTypeModel, x: float) -> Tuple[float, float, float]:
    """(x^2 k'/(x k), x^3 k''/(x k), x^4 k'''/(x k)).

    Regular-variation diagnostics: the limits are (c-1), (c-1)(c-2) and
    (c-1)(c-2)(c-3) with c = 1/theta.
    """
    k0, k1, k2, k3 = k_derivatives_analytic(model, x) if model.analytic_k_path else (
        k_function(model, x),
        k_derivative(model, x, 1),
        k_derivative(model, x, 2),
        k_derivative(model, x, 3),
    )
    if k0 == 0.0:
        raise TailUnderflowError(f"k(x) = 0 at x={x!r}")
    return x * k1 / k0, x * x * k2 / k0, x**3 * k3 / k0


# ----------------------------------------------------------------------
# Generalized extreme value family
# ----------------------------------------------------------------------

_GEV_SERIES_GAMMA = 1e-8


@dataclass(frozen=True)
class GevPoint:
    """Evaluation point (gamma, x) with 1 + gamma*x > 0 enforced."""

    gamma: float
    x: float

    def __post_init__(self):
        if self.gamma != 0.0 and 1.0 + self.gamma * self.x <= 0.0:
            raise OutsideSupportError(
                f"1 + gamma*x = {1.0 + self.gamma * self.x!r} <= 0 (gamma={self.gamma!r}, x={self.x!r})"
            )


def _gumbel_argument(gamma: float, x: float) -> float:
    """w with G_gamma(x) = exp(-e^-w); w = log1p(gamma x)/gamma.

    Tiny |gamma| goes through the series x(1 - gx/2 + (gx)^2/3) so the map
    is continuous through gamma = 0.
    """
    if abs(gamma) < _GEV_SERIES_GAMMA:
        t = gamma * x
        return x * (1.0 - t / 2.0 + t * t / 3.0)
    return math.log1p(gamma * x) / gamma


def gev_cdf(p: GevPoint) -> float:
    """G_gamma(x) = exp(-(1 + gamma x)^(-1/gamma)); Gumbel at gamma = 0."""
    w = _gumbel_argument(p.gamma, p.x)
    if w < -690.0:
        return 0.0
    return math.exp(-math.exp(-w))


def gev_density(p: GevPoint) -> float:
    """g_gamma = G'_gamma, evaluated as exp(-e^-w - w) / (1 + gamma x)."""
    w = _gumbel_argument(p.gamma, p.x)
    if w < -690.0:
        return 0.0
    return math.exp(-math.exp(-w) - w) / (1.0 + p.gamma * p.x)


def gev_cdf_array(gamma: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized G_gamma over points already inside the support."""
    xs = np.asarray(xs, dtype=float)
    if gamma == 0.0 or abs(gamma) < _GEV_SERIES_GAMMA:
        t = gamma * xs
        w = xs * (1.0 - t / 2.0 + t * t / 3.0)
    else:
        w = np.log1p(gamma * xs) / gamma
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-w))


def gumbel_cdf_array(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-xs))


def gumbel_density_array(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-xs) - xs)
