"""Numerical kernel: log-space tail probabilities, Richardson central
differences, and monotone root finding.

Everything here is a pure function of its arguments (no caches, no
globals), so concurrent use needs no locking.  Block sizes are carried as
``log n`` throughout the package; this module is where the Gumbel-scale
transform -log(-log F) is made safe for log n up to several hundred, far
past where F^n would underflow in linear space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .errors import (
    BracketMissError,
    EvalFailureError,
    NoConvergenceError,
    OutsideTailRegionError,
    StencilFailureError,
)

if TYPE_CHECKING:
    import numpy as np

_EPS = math.ulp(1.0)

# Central-difference stencils with O(h^2) leading truncation error,
# (offset, weight) with weights in units of h**-order.
_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
    4: ((2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)),
}

# Direct evaluation of the -log(-log(1 - e^-u)) derivative formulas cancels
# catastrophically for small e^-u; the e^-u power series takes over here.
# Cross-validated against 60-digit arithmetic: worst case ~1e-10 relative
# right at the seam, <1e-12 elsewhere.
_SERIES_SWITCH = 7.0


@dataclass(frozen=True)
class DiffConfig:
    """Step and extrapolation policy for :func:`derivative`.

    ``base_step_scale`` is the relative step as a fraction of max(|x|, 1);
    ``None`` selects the default eps**(1/(order + 2*levels)).  That is the
    truncation/rounding balance for the extrapolated scheme: after L
    halvings the Neville table cancels truncation up to h^(2L) while the
    finest stencil still pays eps/h^order in rounding, so the single-
    stencil optimum eps**(1/(order+2)) would under-step by several orders.
    """

    base_step_scale: Optional[float] = None
    richardson_levels: int = 3
    max_order: int = 4

    def __post_init__(self):
        if self.base_step_scale is not None and not self.base_step_scale > 0.0:
            raise ValueError("base_step_scale must be positive")
        if self.richardson_levels < 1:
            raise ValueError("richardson_levels must be >= 1")
        if not 1 <= self.max_order <= 4:
            raise ValueError("max_order must be in [1, 4]")


DEFAULT_DIFF = DiffConfig()


@dataclass(frozen=True)
class Bracket:
    """A bracket [lo, hi] on which the target function is increasing."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")


@dataclass(frozen=True)
class DerivativeEstimate:
    """Derivative value plus the last-two-levels extrapolation gap."""

    value: float
    error: float
    low_confidence: bool = False


def _stencil(f: Callable[[float], float], x: float, h: float, order: int) -> float:
    acc = 0.0
    for offset, weight in _STENCILS[order]:
        point = x + offset * h
        try:
            fx = f(point)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise StencilFailureError(
                f"evaluation failed at {point!r} (order {order} stencil): {exc}"
            ) from exc
        if not math.isfinite(fx):
            raise StencilFailureError(
                f"non-finite evaluation at {point!r} (order {order} stencil)"
            )
        acc += weight * fx
    return acc / h**order


def derivative(
    f: Callable[[float], float],
    x: float,
    order: int,
    cfg: DiffConfig = DEFAULT_DIFF,
    tol: Optional[float] = None,
) -> DerivativeEstimate:
    """Order-th derivative of ``f`` at ``x`` by Richardson-extrapolated
    central differences.

    The stencil is evaluated at cfg.richardson_levels halved steps and
    extrapolated through a Neville table in even powers of h.  The
    reported ``error`` is the difference of the last two extrapolation
    levels; when ``tol`` is given and the estimate exceeds
    ``tol * max(1, |value|)`` the result is flagged ``low_confidence``
    (but still returned).
    """
    if not 1 <= order <= cfg.max_order:
        raise ValueError(f"order {order} outside [1, {cfg.max_order}]")
    scale = cfg.base_step_scale
    if scale is None:
        scale = _EPS ** (1.0 / (order + 2 * cfg.richardson_levels))
    h = scale * max(abs(x), 1.0)
    h = (x + h) - x  # snap to a step representable relative to x
    table = [_stencil(f, x, h / 2.0**level, order) for level in range(cfg.richardson_levels)]
    for j in range(1, len(table)):
        factor = 4.0**j
        for i in range(len(table) - 1, j - 1, -1):
            table[i] = (factor * table[i] - table[i - 1]) / (factor - 1.0)
    value = table[-1]
    error = abs(table[-1] - table[-2]) if len(table) >= 2 else math.inf
    low = tol is not None and error > tol * max(1.0, abs(value))
    return DerivativeEstimate(value=value, error=error, low_confidence=low)


def solve_increasing(
    f: Callable[[float], float],
    target: float,
    bracket: Bracket,
    rel_tol: float = 1e-12,
    max_iter: int = 400,
) -> float:
    """Solve f(x) = target for increasing f on the bracket.

    Safeguarded bisection with secant acceleration on alternate steps;
    terminates when |f(x) - target| <= rel_tol * max(1, |target|), or
    returns the best point seen once the bracket is down to a few ulp.
    Raises NoConvergenceError when ``max_iter`` steps reach neither.  The
    endpoint values may be +/-inf (treated purely by sign), which lets
    callers grow brackets into overflow territory without special cases.
    """
    a, b = bracket.lo, bracket.hi
    ga = _residual(f, a, target)
    gb = _residual(f, b, target)
    tol = rel_tol * max(1.0, abs(target))
    if ga > 0.0 or gb < 0.0:
        raise BracketMissError(
            f"target {target!r} outside [f(lo), f(hi)] = [{ga + target!r}, {gb + target!r}]"
        )
    if abs(ga) <= tol:
        return a
    if abs(gb) <= tol:
        return b
    x_prev, g_prev = a, ga
    x_cur, g_cur = b, gb
    best_x, best_g = (a, abs(ga)) if abs(ga) < abs(gb) else (b, abs(gb))
    for iteration in range(max_iter):
        cand = 0.5 * (a + b)
        if iteration % 2 == 0 and math.isfinite(g_cur) and math.isfinite(g_prev) and g_cur != g_prev:
            sec = x_cur - g_cur * (x_cur - x_prev) / (g_cur - g_prev)
            margin = 1e-3 * (b - a)
            if a + margin < sec < b - margin:
                cand = sec
        gx = _residual(f, cand, target)
        if abs(gx) <= tol:
            return cand
        if abs(gx) < best_g:
            best_x, best_g = cand, abs(gx)
        if gx < 0.0:
            a, ga = cand, gx
        else:
            b, gb = cand, gx
        x_prev, g_prev = x_cur, g_cur
        x_cur, g_cur = cand, gx
        if b - a <= 4.0 * math.ulp(max(abs(a), abs(b), 1.0)):
            # x spacing exhausted; the residual target may be unreachable
            # for extremely steep f, so return the best point seen.
            return best_x
    raise NoConvergenceError(
        f"target {target!r} not reached in {max_iter} iterations; "
        f"best |f(x) - target| = {best_g!r} at x = {best_x!r}"
    )


def _residual(f: Callable[[float], float], x: float, target: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise EvalFailureError(f"f({x!r}) is NaN")
    return fx - target


def grow_bracket(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    lo_min: Optional[float] = None,
    hi_cap: float = 1e300,
) -> Bracket:
    """Expand [lo, hi] until it brackets ``target`` for increasing ``f``.

    ``hi`` doubles (of max(hi, 1)) up to ``hi_cap``; ``lo`` walks left the
    same way when ``lo_min`` is None, otherwise it stays put and a miss is
    reported.  Raises BracketMissError if the cap is reached first.
    """
    flo = _residual(f, lo, target)
    fhi = _residual(f, hi, target)
    while fhi < 0.0:
        if hi >= hi_cap:
            raise BracketMissError(f"target {target!r} above f({hi_cap!r})")
        hi = min(max(hi * 2.0, 2.0), hi_cap)
        fhi = _residual(f, hi, target)
    while flo > 0.0:
        if lo_min is not None:
            raise BracketMissError(f"target {target!r} below f({lo!r})")
        lo = lo * 2.0 if lo < -1.0 else lo - max(1.0, abs(lo))
        if lo < -1e300:
            raise BracketMissError(f"target {target!r} below f(-1e300)")
        flo = _residual(f, lo, target)
    return Bracket(lo, hi)


def log_neg_log_cdf_from_H(h_value: float) -> float:
    """-log(-log F) for the tail family 1 - F = exp(-H), given H(x).

    Exact relation: -log(-log F) = H - log1p(s/2 + s^2/3 + ...), s = e^-H,
    so the result approaches H from below.  Below the series switch the
    closed form is evaluated with expm1; above it the subtraction is
    applied to the series margin, which keeps the path free of
    overflow/underflow for H up to (and far past) 700.  For H large enough
    that the margin is below one ulp the returned double equals H; use
    :func:`log_neg_log_cdf_margin` when the gap itself is needed.
    """
    if not h_value > 0.0:
        raise OutsideTailRegionError(f"H must be positive, got {h_value!r}")
    if h_value < _SERIES_SWITCH:
        one_minus_f = -math.expm1(-h_value)  # = F(x), in (0, 1)
        return -math.log(-math.log(one_minus_f))
    return h_value - log_neg_log_cdf_margin(h_value)


def log_neg_log_cdf_from_H_array(h: np.ndarray) -> np.ndarray:
    """:func:`log_neg_log_cdf_from_H` over an array of H in (0, inf), with
    the same closed form and series on either side of the switch."""
    import numpy as np

    out = np.empty_like(h)
    low = h < _SERIES_SWITCH
    out[low] = -np.log(-np.log(-np.expm1(-h[low])))
    high = h[~low]
    s = np.exp(-high)
    out[~low] = high - np.log1p(s * (0.5 + s * (1.0 / 3.0 + s * (0.25 + s * 0.2))))
    return out


def log_neg_log_cdf_margin(h_value: float) -> float:
    """The positive gap H - (-log(-log F)) for the tail family.

    Representable even when subtracting it from H rounds to H itself,
    which happens near H ~ 37 in double precision.
    """
    if not h_value > 0.0:
        raise OutsideTailRegionError(f"H must be positive, got {h_value!r}")
    if h_value < _SERIES_SWITCH:
        return h_value - log_neg_log_cdf_from_H(h_value)
    s = math.exp(-h_value)
    return math.log1p(s * (0.5 + s * (1.0 / 3.0 + s * (0.25 + s * 0.2))))


def log_neg_log_cdf_derivs(h_value: float) -> Tuple[float, float, float, float]:
    """First four derivatives of u -> -log(-log(1 - e^-u)) at u = H.

    These are the chain weights that turn H-derivatives into derivatives
    of -log(-log F) for the 1 - F = exp(-H) family; the first weight tends
    to 1 as H grows, recovering k ~ H'.
    """
    if not h_value > 0.0:
        raise OutsideTailRegionError(f"H must be positive, got {h_value!r}")
    s = math.exp(-h_value)
    if h_value >= _SERIES_SWITCH:
        g1 = 1.0 + s * (0.5 + s * (5.0 / 12.0 + s * (0.375 + s * (251.0 / 720.0))))
        g2 = -s * (0.5 + s * (5.0 / 6.0 + s * (1.125 + s * (251.0 / 180.0))))
        g3 = s * (0.5 + s * (5.0 / 3.0 + s * (3.375 + s * (251.0 / 45.0))))
        g4 = -s * (0.5 + s * (10.0 / 3.0 + s * (10.125 + s * (1004.0 / 45.0))))
        return g1, g2, g3, g4
    a = 1.0 / math.expm1(h_value)  # e^-u / (1 - e^-u)
    b = 1.0 + a
    w = -math.log(-math.expm1(-h_value))  # -log F
    r = a / w
    g1 = r
    g2 = r * (r - b)
    g3 = a * b * (1.0 + 2.0 * a) / w - 3.0 * a * a * b / (w * w) + 2.0 * a**3 / w**3
    g4 = (
        -a * b * (1.0 + 6.0 * a * (1.0 + a)) / w
        + a * a * b * (7.0 + 11.0 * a) / (w * w)
        - 12.0 * a**3 * b / w**3
        + 6.0 * a**4 / w**4
    )
    return g1, g2, g3, g4
