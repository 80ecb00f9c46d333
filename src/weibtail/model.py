"""Weibull-type tail models and the k-function machinery.

Three families share one pipeline.  Writing T(x) = -log(-log F(x)) for the
Gumbel-scale transform of the cdf:

* ``TAIL_EXP``     1 - F = exp(-H), H = x^(1/theta) l(x):  T = g(H) with
  g(u) = -log(-log(1 - e^-u)), so T ~ H with an e^-H correction.
* ``LOG_CDF_EXP``  -log F = exp(-H):  T = H exactly.
* ``CLASSICAL``    cdf/density supplied directly:  T = g(-log sf), reusing
  the same g because 1 - F = exp(log sf) tautologically.

k = T' is the hazard-like object of the Gumbel domain.  :func:`k_jet`
returns k and its first derivatives at one point as a :class:`KJet`: by the
composition rule from the chain weights in :mod:`weibtail.numerics` and one
block of family-specific H-derivatives (the slowly varying spec for tail
families, hazard recurrences for classical models), or by Richardson
differentiation of k for classical models without hazard recurrences.
``KJet.phi`` = (1/k)' = -k'/k^2 is the one place that shape is formed.
This module also evaluates the Gumbel and generalized extreme value cdfs
over arrays, the latter with a series-corrected branch through gamma = 0.
Only the array functions import numpy, so scalar quantities start without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Tuple

from . import numerics
from .errors import (
    BelowRangeError,
    BelowSupportError,
    BracketMissError,
    DomainError,
    EvalFailureError,
    OutsideTailRegionError,
    TailUnderflowError,
)
from .slowly_varying import ArrayFn, SlowlyVaryingSpec

if TYPE_CHECKING:
    import numpy as np

ScalarFn = Callable[[float], float]
# (H', H'', H''', H'''') of the classical hazard H = -log(1 - F); the first
# entry is the ordinary hazard rate f / (1 - F).
HazardDerivs = Callable[[float], Tuple[float, float, float, float]]


class Family(enum.Enum):
    """How a model gives its tail: 1 - F = e^-H, -log F = e^-H, or a cdf."""

    TAIL_EXP = "tail_exp"
    LOG_CDF_EXP = "log_cdf_exp"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class WeibullTypeModel:
    """A distribution in one of the three supported families.

    ``theta`` is the Weibull-tail coefficient for the exponential-tail
    families and the known reference value for classical models.  Classical
    models must supply cdf/density plus log-space variants accurate deep in
    the tail; ``hazard_derivs`` unlocks the analytic k-derivative path, and
    ``classical_log_sf_array`` (``classical_log_sf`` over a float array)
    the array evaluation of :func:`gumbel_coordinate_array`.  The library
    never writes into the array it returns, so a read-only array or a view
    will do.
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


def _classical_log_pdf(model: WeibullTypeModel, x: float) -> float:
    if model.classical_log_pdf is not None:
        return model.classical_log_pdf(x)
    return math.log(model.classical_density(x))


def cumulative_hazard(model: WeibullTypeModel, x: float) -> float:
    """H(x) = x^(1/theta) l(x) for the tail families; -log(1 - F) classical."""
    if model.family is Family.CLASSICAL:
        return -_classical_log_sf(model, x)
    _require_support(model, x)
    try:
        return _pow(x, 1.0 / model.theta) * model.l.value_checked(x)
    except DomainError:
        if x == math.inf:
            return math.inf  # x^(1/theta) outgrows every slowly varying l
        raise


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
        return _invert_increasing(lambda t: cumulative_hazard(model, t), y)
    lo = model.support_lower
    h_lo = cumulative_hazard(model, lo) if lo > 0.0 else 0.0
    if y < h_lo:
        raise BelowRangeError(f"y={y!r} below H(support) = {h_lo!r}")
    if model.l.is_constant:
        cval = model.l.value(max(lo, 2.0))
        return _pow(y / cval, model.theta)
    return _invert_increasing(
        lambda t: cumulative_hazard(model, t), y, lo=lo + 1e-9 * max(1.0, lo)
    )


def _invert_increasing(f: ScalarFn, y: float, lo: Optional[float] = None) -> float:
    """x with f(x) = y for increasing f.  The bracket starts at
    [lo, max(2, 2 lo, lo + 1)] and grows only to the right, so a y below
    f(lo) is out of range (``below_range``); ``lo`` None starts from -1 and
    grows both ways.  A y above f(``BRACKET_HI_CAP``) stays a bracket miss."""
    start = -1.0 if lo is None else lo
    hi = max(2.0, start * 2.0, start + 1.0)
    try:
        return numerics.solve_increasing(f, y, start, hi, lo_fixed=lo is not None)
    except BracketMissError as exc:
        if not exc.below:
            raise  # above f at the right-hand cap: a plain bracket miss
        raise BelowRangeError(str(exc)) from exc


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
    """:func:`gumbel_coordinate`, saturated as :func:`gumbel_coordinate_array`
    does: -inf where F = 0 and +inf where F = 1 at double precision."""
    try:
        return gumbel_coordinate(model, x)
    except (BelowSupportError, DomainError, OutsideTailRegionError):
        return -math.inf  # F = 0
    except TailUnderflowError:
        return math.inf  # F = 1 at double precision


def gumbel_coordinate_array(model: WeibullTypeModel, xs: np.ndarray) -> np.ndarray:
    """T(x) = -log(-log F(x)) over an array, saturated rather than raising:
    -inf where F = 0 (below the support or the slowly varying domain, a
    non-positive l, or H <= 0) and +inf where F = 1 at double precision.

    In the LOG_CDF_EXP family T = H, so H = 0 at the support endpoint is a
    finite T = 0.  The model needs an array form (:func:`array_form_of`); the
    error curves of the rest take the scalar :func:`_saturated_coordinate`
    point by point.  ``xs`` is only read, and the result is always a new
    array.
    """
    import numpy as np

    array_form = array_form_of(model)
    if model.family is Family.CLASSICAL:
        h = np.negative(array_form(xs))
    else:
        # H = -inf where F = 0; support_lower >= l.domain_lower, so l is
        # only asked for points in its domain
        h = numerics.piecewise(xs >= model.support_lower, _tail_hazard_array(model, array_form),
                               -math.inf, xs)
        if model.family is Family.LOG_CDF_EXP:
            return h
    return numerics.piecewise((h > 0.0) & (h < math.inf), numerics.log_neg_log_cdf_from_H_array,
                              _saturate, h)


def _tail_hazard_array(model: WeibullTypeModel, array_form: ArrayFn):
    """z -> H(z) = z^c l(z) for z in the support, -inf where l(z) is not
    finite and positive, but +inf at z = +inf."""
    import numpy as np

    c = 1.0 / model.theta

    def power_times(z: np.ndarray, l: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = np.power(z, c)
            h *= l
        return h

    def hazard(z: np.ndarray) -> np.ndarray:
        l = array_form(z)
        return numerics.piecewise(np.isfinite(l) & (l > 0.0), power_times,
                                  lambda z, l: _saturate(z), z, l)

    return hazard


def _saturate(h: np.ndarray) -> np.ndarray:
    """T for H outside (0, inf): +inf where H = inf (F = 1), else -inf (F = 0)."""
    import numpy as np

    return np.where(h == math.inf, math.inf, -math.inf)


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

    def coordinate(z: float) -> float:
        try:
            return gumbel_coordinate(model, z)
        except OutsideTailRegionError:
            # F(z) rounds to 0, as near the support endpoint of a
            # large-shape gamma: below every level, a lower bracket end
            return -math.inf

    lo = None
    if math.isfinite(model.support_lower):
        lo = model.support_lower + 1e-9 * max(1.0, abs(model.support_lower))
    return _invert_increasing(coordinate, t, lo)


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


class KJet(NamedTuple):
    """(k, k', ..., k^(order)) at one point and the path that produced it.

    On the numeric path ``errors[j - 1]`` is the Richardson error estimate
    of k^(j) and ``low_confidence`` is set when any order missed its
    tolerance; the analytic path carries neither.
    """

    values: Tuple[float, ...]
    method: str  # "analytic" | "numeric"
    errors: Optional[Tuple[float, ...]] = None
    low_confidence: bool = False

    @property
    def phi(self) -> float:
        """(1/k)' = -k'/k^2; at x = b_n this is the penultimate shape gamma_n."""
        k, k1 = self.values[0], self.values[1]
        return -k1 / (k * k)


def k_jet(model: WeibullTypeModel, x: float, order: int = 3, method: str = "auto") -> KJet:
    """k and its first ``order`` derivatives at x.

    ``method``: "analytic" (the composition rule T = g(H) on one hazard
    block; tail families always, classical models only with hazard
    recurrences), "numeric" (Richardson differentiation of k itself, one
    estimate per order up to ``order``), or "auto" preferring analytic.
    Third-order numeric differentiation of classical models without hazard
    recurrences raises the extrapolation depth, since that path is the
    only one available there.  An analytic jet past the double range is
    refused as ``eval_failure``.
    """
    if not 1 <= order <= 3:
        raise ValueError("k_jet order must be in [1, 3]")
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "analytic" if model.analytic_k_path else "numeric"
    if method == "analytic":
        if not model.analytic_k_path:
            raise TailUnderflowError(f"{model.label}: analytic k path unavailable")
        try:
            g1, g2, g3, g4 = _chain_weights(model, x)
            d1, d2, d3, d4 = hazard_derivative_block(model, x)
            values = (
                d1 * g1,
                d2 * g1 + d1 * d1 * g2,
                d3 * g1 + 3.0 * d1 * d2 * g2 + d1**3 * g3,
                d4 * g1
                + (4.0 * d1 * d3 + 3.0 * d2 * d2) * g2
                + 6.0 * d1 * d1 * d2 * g3
                + d1**4 * g4,
            )
        except OverflowError as exc:  # a float ** past the double range
            raise EvalFailureError(f"{model.label}: k-jet overflows at x={x!r}") from exc
        return KJet(values=values[: order + 1], method="analytic")
    k0 = k_function(model, x)
    ests = [
        numerics.derivative(
            lambda t: k_function(model, t),
            x,
            j,
            levels=4 if j == 3 and not model.analytic_k_path else 3,
            tol=1e-5,
        )
        for j in range(1, order + 1)
    ]
    return KJet(
        values=(k0, *(e.value for e in ests)),
        method="numeric",
        errors=tuple(e.error for e in ests),
        low_confidence=any(e.low_confidence for e in ests),
    )


def k_derivative(model: WeibullTypeModel, x: float, order: int, method: str = "auto") -> float:
    """k^(order)(x), the one entry of :func:`k_jet` at that order."""
    return k_jet(model, x, order, method).values[order]


# ----------------------------------------------------------------------
# Generalized extreme value family
# ----------------------------------------------------------------------

_GEV_SERIES_GAMMA = 1e-8
# |gamma x| below which the series' first dropped term, (gamma x)^3/4
# relative, is under an ulp
_GEV_SERIES_T = 1e-5


def gev_cdf_array(gamma: float, xs: np.ndarray) -> np.ndarray:
    """G_gamma(x) = exp(-(1 + gamma x)^(-1/gamma)) over points already
    inside the support; Gumbel at gamma = 0.

    With w = log1p(gamma x)/gamma, G_gamma = exp(-e^-w).  Tiny |gamma| goes
    through the series x(1 - t/2 + t^2/3), t = gamma x, so the map is
    continuous through gamma = 0; points where |t| is not small keep the
    log1p form, so a window near 1e307 neither overflows t^2 nor leaves
    the series' range.
    """
    import numpy as np

    x = np.asarray(xs, dtype=float)
    if abs(gamma) < _GEV_SERIES_GAMMA:
        t = np.multiply(x, gamma)
        w = numerics.piecewise(np.abs(t) < _GEV_SERIES_T, _gev_series,
                               lambda x, t: _gev_log1p(x, gamma), x, t)
    else:
        w = _gev_log1p(x, gamma)
    return _gumbel_cdf(w, out=w)


def _gev_series(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x (1 - t/2 + t^2/3), t = gamma x."""
    import numpy as np

    w = np.divide(t, 2.0)
    np.subtract(1.0, w, out=w)
    t2 = np.multiply(t, t)
    t2 /= 3.0
    w += t2
    w *= x
    return w


def _gev_log1p(x: np.ndarray, gamma: float) -> np.ndarray:
    """log1p(gamma x) / gamma."""
    import numpy as np

    w = np.multiply(x, gamma)
    np.log1p(w, out=w)
    w /= gamma
    return w


def _gumbel_cdf(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(-e^-w) into ``out`` (which may be ``w`` itself) or a new array."""
    import numpy as np

    with np.errstate(over="ignore"):
        out = np.negative(w, out=out)
        np.exp(out, out=out)
        np.negative(out, out=out)
        return np.exp(out, out=out)


def gumbel_cdf_array(xs: np.ndarray) -> np.ndarray:
    import numpy as np

    return _gumbel_cdf(np.asarray(xs, dtype=float))


def gumbel_density_array(xs: np.ndarray) -> np.ndarray:
    """g_0(x) = exp(-e^-x - x)."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        out = np.negative(xs)
        np.exp(out, out=out)
        np.negative(out, out=out)
        out -= xs
        return np.exp(out, out=out)
