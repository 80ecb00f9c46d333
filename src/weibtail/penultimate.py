"""Penultimate tail index and ultimate-vs-penultimate error curves.

The n-dependent shape gamma_n = -k'(b_n)/k^2(b_n) approaches (theta-1)/log n,
positive for theta > 1 (Frechet-type penultimate behavior) and negative for
theta < 1 (Weibull-type); at theta = 1 the asymptotic fields are refused
because the 1/log n scaling does not hold uniformly there.  Error curves
compare F^n(a_n x + b_n) against the Gumbel limit G_0 and against the
penultimate GEV G_{gamma_n} on a fixed grid, all in log space so no block
scale underflows.  Grids up to the default 1000 points, and models without
an array form, take the one scalar pass here, in ``math``; larger grids
take its array twin, ``weibtail.arrays.curve``, which :func:`_curve`
imports when it first needs it.  Both passes switch G_gamma to a series
through gamma = 0 at the same ``_GEV_SERIES_*`` constants, and each forms
e^-x once for both G_0 = exp(-e^-x) and the density g_0 = exp(-e^-x - x)
of the remainder ratio, and gamma x once for both the support test
1 + gamma x > 0 and G_gamma.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import List, NamedTuple, Optional, Tuple

from .errors import (
    DegenerateProfileError,
    EvalFailureError,
    GridSupportEmptyError,
    InsufficientGridError,
    ThetaOneExcludedError,
)
from .model import WeibullTypeModel, _saturated_coordinate, array_form_of
from .norming import Location, locate
from .numerics import REMAINDER_DENOMINATOR_CUTOFF

# Default evaluation window: covers all but ~1e-3 of the Gumbel mass.
DEFAULT_GRID: Tuple[float, float, int] = (-3.0, 6.0, 1000)
_GEV_SERIES_GAMMA = 1e-8
# |gamma x| below which the series' first dropped term, (gamma x)^3/4
# relative, is under an ulp
_GEV_SERIES_T = 1e-5


class Classification(enum.Enum):
    """Penultimate limit type: Frechet for theta > 1, Weibull for theta < 1."""

    FRECHET = "frechet"
    WEIBULL = "weibull"
    EXCLUDED_THETA_ONE = "excluded_theta_one"


class PenultimateIndex(NamedTuple):
    """Exact and asymptotic penultimate shape at one block size.

    ``rate_ultimate`` is the (1-theta)/log n convergence-rate functional of
    the ultimate (Gumbel) approximation; ``rate_penultimate`` the recorded
    second-order formula 2 theta (1-theta)/log^2 n.  ``gamma_prime_exact``
    evaluates the closed form
    (2(c-1)^2 - (c-1)(c-2)) / (b k(b))^2,  c = 1/theta,
    with the exact b k(b).  All theta-dependent fields are None with
    ``error`` = "theta_one_excluded" when theta = 1, and a non-finite one
    (log^2 n underflows) is refused as ``eval_failure``; gamma_n is always filled.
    """

    log_n: float
    gamma_exact: float
    classification: Classification
    gamma_asymptotic: Optional[float] = None
    rate_ultimate: Optional[float] = None
    rate_penultimate: Optional[float] = None
    gamma_prime_exact: Optional[float] = None
    error: Optional[str] = None


class ErrorComparison(NamedTuple):
    """Sup-norm errors of the ultimate and penultimate approximations on
    the (lo, hi, count) window ``grid_spec``."""

    log_n: float
    grid_spec: Tuple[float, float, int]
    sup_error_ultimate: float
    sup_error_penultimate: float
    argmax_ultimate: float
    argmax_penultimate: float
    remainder_max_deviation: Optional[float]
    gamma_used: float
    n_clipped: int


def gamma_of_t(model: WeibullTypeModel, t: float) -> float:
    """phi evaluated at the exact level: -k'(x)/k^2(x) at -log(-log F(x)) = t > 0."""
    return locate(model, t).jet.phi


def penultimate_index(model: WeibullTypeModel, log_n: float) -> PenultimateIndex:
    """gamma_n = -k'(b_n)/k^2(b_n) at block size n = e^log_n, with its
    asymptote (theta-1)/log n and the convergence-rate functionals."""
    return penultimate_index_at(model, locate(model, log_n))


def penultimate_index_at(model: WeibullTypeModel, loc: Location) -> PenultimateIndex:
    """:func:`penultimate_index` at a located block size."""
    log_n, b_exact, jet = loc
    gamma_exact = jet.phi
    theta = model.theta
    if model.theta_is_one:
        return PenultimateIndex(log_n, gamma_exact, Classification.EXCLUDED_THETA_ONE,
                                error=ThetaOneExcludedError.code)
    c = 1.0 / theta
    bk = b_exact * jet.values[0]
    try:
        asymptotic = (
            (theta - 1.0) / log_n,
            (1.0 - theta) / log_n,
            2.0 * theta * (1.0 - theta) / (log_n * log_n),
            (2.0 * (c - 1.0) ** 2 - (c - 1.0) * (c - 2.0)) / (bk * bk),
        )
    except (OverflowError, ZeroDivisionError):  # a square over- or underflowed
        asymptotic = (math.inf,)
    if not all(map(math.isfinite, asymptotic)):
        raise EvalFailureError(f"{model.label}: asymptotic fields not finite at log n = {log_n!r}")
    classification = Classification.FRECHET if theta > 1.0 else Classification.WEIBULL
    return PenultimateIndex(log_n, gamma_exact, classification, *asymptotic)


def _check_grid(grid_spec: Tuple[float, float, int]) -> Tuple[float, float, int]:
    """The spec with an int count (1075.0 and 1075 are one grid, and one
    memo key), or refused."""
    lo, hi, count = grid_spec
    if count < 100:
        raise InsufficientGridError(f"grid needs at least 100 points, got {count}")
    if not count % 1 == 0:  # a fraction, or an infinite or NaN count
        raise InsufficientGridError(f"grid needs a whole number of points, got {count!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise InsufficientGridError(f"grid needs finite lo, hi and hi - lo, got {lo!r}:{hi!r}")
    if not lo < hi:
        raise InsufficientGridError("grid needs lo < hi")
    return lo, hi, int(count)


def _linspace(lo: float, hi: float, count: int) -> List[float]:
    """``np.linspace(lo, hi, count)`` bit for bit, as floats: i * step + lo,
    with numpy's scaling by the span when the step underflows to 0, and hi
    itself last."""
    div = int(count) - 1
    span = hi - lo
    step = span / div
    if step == 0.0:
        xs = [i / div * span + lo for i in range(div)]
    else:
        xs = [i * step + lo for i in range(div)]
    xs.append(hi)
    return xs


# (sup |F^n - G_0|, its argmax, sup |F^n - G_gamma|, its argmax, n_clipped,
# max |R - 1| or None where the remainder denominator is below the cutoff
# on the whole grid)
_Curve = Tuple[float, float, float, float, int, Optional[float]]


def _curve(model: WeibullTypeModel, loc: Location, grid_spec: Tuple[float, float, int],
           gamma: float) -> _Curve:
    """The error curve on the grid at ``loc``, by the scalar pass up to the
    default grid size or when the model has no array form, else over arrays.

    The choice depends on the configuration only, so equal configurations
    print equal bytes; the two paths differ in the last bits (libm against
    numpy's exp and log, and each model's own scalar and array T).  The
    array pass takes the spec; what it keeps is in ``weibtail.arrays``.
    """
    if _takes_scalar_path(model, grid_spec[2]):
        return _scalar_curve(model, loc, _linspace(*grid_spec), gamma)
    from . import arrays

    return arrays.curve(model, loc, grid_spec, gamma)


def _takes_scalar_path(model: WeibullTypeModel, count: int) -> bool:
    return count <= DEFAULT_GRID[2] or array_form_of(model) is None


def _maxima_point(model: WeibullTypeModel, log_n: float, z: float) -> float:
    """F^n(z) = exp(-e^(log n - T(z))), saturated as ``arrays.curve`` saturates it."""
    try:
        return math.exp(-math.exp(log_n - _saturated_coordinate(model, z)))
    except OverflowError:  # e^(log n - T) past the double range: F^n = 0
        return 0.0


def _scalar_curve(model: WeibullTypeModel, loc: Location, xs: List[float],
                  gamma: float) -> _Curve:
    """``arrays.curve`` in one pass over the grid points in ``math``: the
    same formulas point by point, first-index argmaxes as np.argmax."""
    log_n, b, jet = loc
    a, rate = 1.0 / jet.values[0], -jet.phi
    series = abs(gamma) < _GEV_SERIES_GAMMA
    sup_ult = sup_pen = dev = -1.0
    arg_ult = arg_pen = math.nan
    n_clipped = 0
    for x in xs:
        fn = _maxima_point(model, log_n, x * a + b)
        try:
            e = math.exp(-x)
        except OverflowError:
            e = math.inf
        diff = fn - math.exp(-e)
        d = abs(diff)
        if d > sup_ult:
            sup_ult, arg_ult = d, x
        t = x * gamma
        if t + 1.0 > 0.0:  # inside the support of G_gamma
            if series and abs(t) < _GEV_SERIES_T:
                w = (1.0 - t / 2.0 + t * t / 3.0) * x
            else:
                w = math.log1p(t) / gamma
            try:
                d = abs(fn - math.exp(-math.exp(-w)))
            except OverflowError:  # G_gamma = 0
                d = fn
            if d > sup_pen:
                sup_pen, arg_pen = d, x
        else:
            n_clipped += 1
        # g_0 is 0 beyond |x| = 1e3, where the array path clips the grid
        if -1e3 <= x <= 1e3:
            den = x * 0.5 * x * rate * math.exp(-e - x)
            if abs(den) > REMAINDER_DENOMINATOR_CUTOFF:
                d = abs(diff / den - 1.0)
                if d > dev:
                    dev = d
    return sup_ult, arg_ult, sup_pen, arg_pen, n_clipped, dev if dev >= 0.0 else None


def error_comparison(model: WeibullTypeModel, log_n: float,
                     grid_spec: Tuple[float, float, int] = DEFAULT_GRID,
                     gamma_mode: str = "exact") -> ErrorComparison:
    """Sup |F^n(a x + b) - G_0| and sup |F^n(a x + b) - G_{gamma_n}|.

    ``gamma_mode`` selects the shape of the penultimate comparison curve:
    "exact" (default) uses -k'(b)/k^2(b); "asymptotic" uses (theta-1)/log n,
    reproducing the leading-order statements (refused at theta = 1).
    Grid points outside the support of G_{gamma_n} are clipped from the
    penultimate sup and counted in ``n_clipped``.  Everything but
    G_{gamma_n} is the same in both modes, so a call in the other mode
    may take it from the array pass's kept curve (``weibtail.arrays``).
    """
    grid_spec = _check_grid(grid_spec)  # a bad grid is refused before a bad log n
    return _compare(model, _located(model, log_n, grid_spec), grid_spec, gamma_mode)


def error_comparison_at(model: WeibullTypeModel, loc: Location,
                        grid_spec: Tuple[float, float, int], gamma_mode: str) -> ErrorComparison:
    """:func:`error_comparison` at a located block size."""
    return _compare(model, loc, _check_grid(grid_spec), gamma_mode)


def _located(model: WeibullTypeModel, log_n: float, grid_spec: Tuple[float, float, int]) -> Location:
    """The Location of the array pass's kept curve (``weibtail.arrays``)
    where its key matches, else ``locate``'s; none is kept before that
    module is first imported."""
    arrays = sys.modules.get(__package__ + ".arrays")
    kept = arrays.kept_curve(model, log_n, grid_spec) if arrays else None
    return kept[0] if kept else locate(model, log_n)


def _compare(model: WeibullTypeModel, loc: Location,
             grid_spec: Tuple[float, float, int], gamma_mode: str) -> ErrorComparison:
    """:func:`error_comparison_at` on a checked grid."""
    log_n, _, jet = loc
    if gamma_mode == "exact":
        gamma_n = jet.phi
    elif gamma_mode == "asymptotic":
        if model.theta_is_one:
            raise ThetaOneExcludedError(f"{model.label}: asymptotic gamma undefined at theta = 1")
        gamma_n = (model.theta - 1.0) / log_n
        if not math.isfinite(gamma_n):
            raise EvalFailureError(f"{model.label}: asymptotic gamma not finite at log n = {log_n!r}")
    else:
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    # 1 + gamma x rounds monotonically in x, so an end of the window decides
    lo, hi, _ = grid_spec
    if not max(lo * gamma_n, hi * gamma_n) + 1.0 > 0.0:
        raise GridSupportEmptyError(
            f"no grid point satisfies 1 + gamma*x > 0 for gamma = {gamma_n!r}")
    sup_ult, arg_ult, sup_pen, arg_pen, n_clipped, dev = _curve(model, loc, grid_spec, gamma_n)
    return ErrorComparison(
        log_n=log_n, grid_spec=grid_spec,
        sup_error_ultimate=sup_ult, sup_error_penultimate=sup_pen,
        argmax_ultimate=arg_ult, argmax_penultimate=arg_pen,
        remainder_max_deviation=dev, gamma_used=gamma_n, n_clipped=n_clipped,
    )


def remainder_profile(model: WeibullTypeModel, log_n: float,
                      grid_spec: Tuple[float, float, int] = DEFAULT_GRID) -> float:
    """Max deviation of the first-order remainder ratio from 1 (Gumbel branch).

    Shrinks as log n grows when the remainder expansion applies; raises
    ``DegenerateProfileError`` when the denominator vanishes on the whole
    grid (the exact-Gumbel fixture).  It is the remainder of the exact
    :func:`error_comparison`, so either may take it from the array pass's
    kept curve (``weibtail.arrays``).
    """
    grid_spec = _check_grid(grid_spec)
    # gamma 0 clips no point; only the remainder is read
    dev = _curve(model, _located(model, log_n, grid_spec), grid_spec, 0.0)[5]
    if dev is None:
        raise DegenerateProfileError(f"{model.label}: remainder denominator below cutoff everywhere")
    return dev
