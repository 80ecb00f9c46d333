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
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import (
    BelowRangeError,
    BracketMissError,
    EvalFailureError,
    NoConvergenceError,
    OutsideTailRegionError,
    StencilFailureError,
)

_EPS = math.ulp(1.0)
_LN2 = math.log(2.0)

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
# From here on the series margin, ~e^-H/2, is under a quarter ulp of H: T = H
# to the bit on the scalar and the array path (they differ up to H ~ 32.6)
_T_EQUALS_H = 40.0


# Residual tolerance of every root solve, relative to |target|.
ROOT_REL_TOL = 1e-14
# The von Mises verdicts' thresholds (weibtail.vonmises) and the remainder
# ratio's denominator cutoff (weibtail.penultimate).  They live here, with
# ROOT_REL_TOL, because the CLI prints all of them in every JSON meta
# header, and a run that prints neither quantity should not import them.
VERDICT_ABS = 0.05
VERDICT_SHRINK = 0.5
LIMIT_AGREEMENT = 0.05
FAILURE_FRACTION = 0.2
REMAINDER_DENOMINATOR_CUTOFF = 1e-12
# Upper end past which a bracket is not grown.
BRACKET_HI_CAP = 1e300
# Secant/bisection steps a root solve may take after its bracket is grown.
ROOT_MAX_ITER = 400


class DerivativeEstimate(NamedTuple):
    """Derivative value plus the last-two-levels extrapolation gap."""

    value: float
    error: float


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
    levels: int = 3,
    lower: float = -math.inf,
) -> DerivativeEstimate:
    """Order-th derivative of ``f`` at ``x`` by Richardson-extrapolated
    central differences.

    The stencil is evaluated at ``levels`` halved steps and extrapolated
    through a Neville table in even powers of h.  The first step is
    eps**(1/(order + 2*levels)) of max(|x|, 1): the truncation/rounding
    balance for the extrapolated scheme.  After L halvings the table
    cancels truncation up to h^(2L) while the finest stencil still pays
    eps/h^order in rounding, so the single-stencil optimum
    eps**(1/(order+2)) would under-step by several orders.  The reported
    ``error`` is the difference of the last two extrapolation levels.  A
    stencil reaching below ``lower`` refuses unevaluated, as
    StencilFailureError.
    """
    if order not in _STENCILS:
        raise ValueError(f"order {order} outside [1, 4]")
    h = _EPS ** (1.0 / (order + 2 * levels)) * max(abs(x), 1.0)
    h = (x + h) - x  # snap to a step representable relative to x
    if x + _STENCILS[order][-1][0] * h < lower:  # the first, widest stencil's lowest point
        raise StencilFailureError(
            f"order {order} stencil at x={x!r} with step {h!r} reaches below the end {lower!r}")
    table = [_stencil(f, x, h / 2.0**level, order) for level in range(levels)]
    for j in range(1, len(table)):
        factor = 4.0**j
        for i in range(len(table) - 1, j - 1, -1):
            table[i] = (factor * table[i] - table[i - 1]) / (factor - 1.0)
    value = table[-1]
    error = abs(table[-1] - table[-2]) if len(table) >= 2 else math.inf
    return DerivativeEstimate(value=value, error=error)


def solve_increasing(
    f: Callable[[float], float],
    target: float,
    lower: Optional[float] = None,
) -> float:
    """Solve f(x) = target for f increasing on (lower, inf), or on the whole
    line when ``lower`` is None.

    The bracket starts at lo = lower + 1e-9 max(1, |lower|), just inside
    the lower end (lo = -1 when ``lower`` is None), and hi = max(2, 2 lo,
    lo + 1).  ``hi`` doubles up to ``BRACKET_HI_CAP``, and a target above f
    there raises BracketMissError.  A target below f(lo) raises
    BelowRangeError: at once when ``lower`` is given, else once lo has
    doubled past -1e300.

    Each lo the walk leaves becomes hi, so the bracket is [2 lo, lo] of
    the last step.  The solve is safeguarded bisection with secant
    acceleration on alternate steps, started from the residuals the growth
    computed, so no bracket end is evaluated again.  It terminates when
    |f(x) - target| <= ROOT_REL_TOL * |target| (a target of 0 only when hit
    exactly), or returns the best point seen once the bracket is down to a
    few ulp.  Raises NoConvergenceError when ``ROOT_MAX_ITER`` steps reach
    neither.  The values of f may be +/-inf (treated purely by sign), which
    lets the bracket grow into overflow territory without special cases.
    """
    lo = -1.0 if lower is None else lower + 1e-9 * max(1.0, abs(lower))
    hi = max(2.0, 2.0 * lo, lo + 1.0)
    ga = _residual(f, lo, target)
    gb = _residual(f, hi, target)
    while gb < 0.0:
        if hi >= BRACKET_HI_CAP:
            raise BracketMissError(f"target {target!r} above f({BRACKET_HI_CAP!r})")
        hi = min(hi * 2.0, BRACKET_HI_CAP)
        gb = _residual(f, hi, target)
    while ga > 0.0:
        if lower is not None:
            raise BelowRangeError(f"target {target!r} below f({lo!r})")
        hi, gb = lo, ga  # f(lo) is above the target: lo bounds the root
        lo *= 2.0
        if lo < -1e300:
            raise BelowRangeError(f"target {target!r} below f(-1e300)")
        ga = _residual(f, lo, target)
    tol = ROOT_REL_TOL * abs(target)
    if abs(ga) <= tol:
        return lo
    if abs(gb) <= tol:
        return hi
    x_prev, g_prev = lo, ga
    x_cur, g_cur = hi, gb
    best_x, best_g = (lo, abs(ga)) if abs(ga) < abs(gb) else (hi, abs(gb))
    for iteration in range(ROOT_MAX_ITER):
        cand = 0.5 * (lo + hi)
        if iteration % 2 == 0 and math.isfinite(g_cur) and math.isfinite(g_prev) and g_cur != g_prev:
            sec = x_cur - g_cur * (x_cur - x_prev) / (g_cur - g_prev)
            margin = 1e-3 * (hi - lo)
            if lo + margin < sec < hi - margin:
                cand = sec
        gx = _residual(f, cand, target)
        if abs(gx) <= tol:
            return cand
        if abs(gx) < best_g:
            best_x, best_g = cand, abs(gx)
        if gx < 0.0:
            lo, ga = cand, gx
        else:
            hi, gb = cand, gx
        x_prev, g_prev = x_cur, g_cur
        x_cur, g_cur = cand, gx
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            # x spacing exhausted; the residual target may be unreachable
            # for extremely steep f, so return the best point seen.
            return best_x
    raise NoConvergenceError(
        f"target {target!r} not reached in {ROOT_MAX_ITER} iterations; "
        f"best |f(x) - target| = {best_g!r} at x = {best_x!r}"
    )


def _residual(f: Callable[[float], float], x: float, target: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise EvalFailureError(f"f({x!r}) is NaN")
    return fx - target


def log1mexp(v: float) -> float:
    """log(1 - e^v) for v <= 0, accurate at both ends."""
    return math.log(-math.expm1(v)) if v > -_LN2 else math.log1p(-math.exp(v))


def log_neg_log_cdf_from_H(h_value: float) -> float:
    """-log(-log F) for the tail family 1 - F = exp(-H), given H(x).

    Exact relation: -log(-log F) = H - log1p(s/2 + s^2/3 + ...), s = e^-H,
    so the result approaches H from below.  Below the series switch the
    closed form is evaluated with expm1; above it the subtraction is
    applied to the series margin, which keeps the path free of
    overflow/underflow for H up to (and far past) 700.  From H =
    ``_T_EQUALS_H`` on the margin rounds away: H itself is returned; use
    :func:`log_neg_log_cdf_margin` when the gap itself is needed.
    """
    if not h_value > 0.0:
        raise OutsideTailRegionError(f"H must be positive, got {h_value!r}")
    if h_value < _SERIES_SWITCH:
        one_minus_f = -math.expm1(-h_value)  # = F(x), in (0, 1)
        return -math.log(-math.log(one_minus_f))
    if h_value >= _T_EQUALS_H:
        return h_value
    return h_value - log_neg_log_cdf_margin(h_value)


def log_neg_log_cdf_margin(h_value: float) -> float:
    """The positive gap H - (-log(-log F)) for the tail family.

    Representable even when subtracting it from H rounds to H itself,
    as it does from ``_T_EQUALS_H`` on.
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
    if a == math.inf:  # a subnormal H, where a**3 below would not raise
        raise OverflowError(f"1/H past the double range at H={h_value!r}")
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
