"""Penultimate tail index and ultimate-vs-penultimate error curves.

The n-dependent shape gamma_n = -k'(b_n)/k^2(b_n) approaches (theta-1)/log n,
positive for theta > 1 (Frechet-type penultimate behavior) and negative for
theta < 1 (Weibull-type); at theta = 1 the asymptotic fields are refused
because the 1/log n scaling does not hold uniformly there.  Error curves
compare F^n(a_n x + b_n) against the Gumbel limit G_0 and against the
penultimate GEV G_{gamma_n} on a fixed grid, all in log space so no block
scale underflows.  Grids up to the default 1000 points, and models without
an array form, take one scalar pass in ``math``, which needs no numpy;
larger grids run over numpy arrays.  Both forms of G_gamma live here, with
one series switch through gamma = 0.  Each pass forms e^-x once for both
G_0 = exp(-e^-x) and the density g_0 = exp(-e^-x - x) of the remainder
ratio, and gamma x once for both the support test 1 + gamma x > 0 and
G_gamma.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from . import numerics
from .errors import (
    DegenerateProfileError,
    EvalFailureError,
    GridSupportEmptyError,
    InsufficientGridError,
    ThetaOneExcludedError,
)
from .model import (
    WeibullTypeModel,
    _saturated_coordinate,
    array_form_of,
    gumbel_coordinate_array,
)
from .norming import Location, locate

if TYPE_CHECKING:
    import numpy as np

# Default evaluation window: covers all but ~1e-3 of the Gumbel mass.
DEFAULT_GRID: Tuple[float, float, int] = (-3.0, 6.0, 1000)
REMAINDER_DENOMINATOR_CUTOFF = 1e-12
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
    """Sup-norm errors of the ultimate and penultimate approximations.

    ``grid_spec`` is the (lo, hi, count) window; ``grid`` builds its points
    on demand, so a call that does not read them does not hold them.
    """

    log_n: float
    grid_spec: Tuple[float, float, int]
    sup_error_ultimate: float
    sup_error_penultimate: float
    argmax_ultimate: float
    argmax_penultimate: float
    remainder_max_deviation: Optional[float]
    gamma_used: float
    n_clipped: int

    @property
    def grid(self) -> Tuple[float, ...]:
        return tuple(_linspace(*self.grid_spec))


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


def _check_grid(grid_spec: Tuple[float, float, int]) -> None:
    lo, hi, count = grid_spec
    if count < 100:
        raise InsufficientGridError(f"grid needs at least 100 points, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise InsufficientGridError(f"grid needs finite lo, hi and hi - lo, got {lo!r}:{hi!r}")
    if not lo < hi:
        raise InsufficientGridError("grid needs lo < hi")


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


def _validate_grid(grid_spec: Tuple[float, float, int]) -> np.ndarray:
    """The grid as a new array: :func:`_linspace`'s steps over ``np.arange``,
    so ``np.linspace`` bit for bit without its per-call overhead."""
    import numpy as np

    _check_grid(grid_spec)
    lo, hi, count = grid_spec
    div = int(count) - 1
    span = hi - lo
    step = span / div
    xs = np.arange(div + 1, dtype=float)
    if step == 0.0:
        xs /= div
        xs *= span
    else:
        xs *= step
    xs += lo
    xs[-1] = hi
    return xs


# (sup |F^n - G_0|, its argmax, sup |F^n - G_gamma|, its argmax, n_clipped,
# max |R - 1| or None where the remainder denominator is below the cutoff
# on the whole grid)
_Curve = Tuple[float, float, float, float, int, Optional[float]]


def _curve(model: WeibullTypeModel, log_n: float, grid_spec: Tuple[float, float, int],
           b: float, a: float, gamma: float, rate: float) -> _Curve:
    """The error curve on the grid, by the scalar pass up to the default
    grid size or when the model has no array form, else over arrays.

    The choice depends on the configuration only, so equal configurations
    print equal bytes; the two paths differ in the last bits (libm against
    numpy's exp and log, and each model's own scalar and array T).
    """
    if _takes_scalar_path(model, grid_spec[2]):
        return _scalar_curve(model, log_n, _linspace(*grid_spec), b, a, gamma, rate)
    return _array_curve(model, log_n, _validate_grid(grid_spec), b, a, gamma, rate)


def _takes_scalar_path(model: WeibullTypeModel, count: int) -> bool:
    return count <= DEFAULT_GRID[2] or array_form_of(model) is None


def _maxima_point(model: WeibullTypeModel, log_n: float, z: float) -> float:
    """F^n(z) = exp(-e^(log n - T(z))), saturated as :func:`_maxima_curve`."""
    try:
        return math.exp(-math.exp(log_n - _saturated_coordinate(model, z)))
    except OverflowError:  # e^(log n - T) past the double range: F^n = 0
        return 0.0


def _scalar_curve(model: WeibullTypeModel, log_n: float, xs: List[float],
                  b: float, a: float, gamma: float, rate: float) -> _Curve:
    """:func:`_array_curve` in one pass over the grid points in ``math``:
    the same formulas point by point, first-index argmaxes as np.argmax."""
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


def _array_curve(model: WeibullTypeModel, log_n: float, xs: np.ndarray,
                 b: float, a: float, gamma: float, rate: float) -> _Curve:
    """The error curve over the grid array ``xs``, in numpy, under one
    floating-point context: overflow to inf is the saturation the formulas
    expect (e^-x past the double range gives G_0 = g_0 = 0)."""
    import numpy as np

    with np.errstate(over="ignore"):
        fn = _maxima(model, log_n, xs, b, a)
        sup_pen, arg_pen, n_clipped = _penultimate_sup(xs, fn, gamma)
        # -e^-x, shared by G_0 = exp(-e^-x) and g_0 = exp(-e^-x - x)
        density = _neg_exp_neg(xs)
        # F^n - G_0, shared by the remainder ratio and the ultimate sup
        diff = np.exp(density)
        np.subtract(fn, diff, out=diff)
        del fn  # the rest needs only diff
        density -= xs
        np.exp(density, out=density)
        dev = _remainder_deviation(xs, diff, density, rate)
        i_ult, sup_ult = _argmax_abs(diff)
    return sup_ult, float(xs[i_ult]), sup_pen, arg_pen, n_clipped, dev


def _maxima_curve(model: WeibullTypeModel, log_n: float, xs: np.ndarray,
                  b: float, a: float) -> np.ndarray:
    """F^n(a x + b) on the grid, via exp(-e^(log n - T(z))); T = -inf where
    F = 0 gives F^n = 0, T = +inf where F = 1 gives F^n = 1, and a z that
    overflows to +/-inf in a huge window saturates the same way."""
    import numpy as np

    with np.errstate(over="ignore"):
        return _maxima(model, log_n, xs, b, a)


def _maxima(model: WeibullTypeModel, log_n: float, xs: np.ndarray,
            b: float, a: float) -> np.ndarray:
    """:func:`_maxima_curve` inside the caller's floating-point context."""
    import numpy as np

    z = np.multiply(xs, a)
    z += b
    # a new array of the coordinate's own: the chain runs in its storage
    t = gumbel_coordinate_array(model, z)
    np.subtract(log_n, t, out=t)
    np.exp(t, out=t)
    np.negative(t, out=t)
    return np.exp(t, out=t)


def error_comparison(
    model: WeibullTypeModel,
    log_n: float,
    grid_spec: Tuple[float, float, int] = DEFAULT_GRID,
    gamma_mode: str = "exact",
) -> ErrorComparison:
    """Sup |F^n(a x + b) - G_0| and sup |F^n(a x + b) - G_{gamma_n}|.

    ``gamma_mode`` selects the shape of the penultimate comparison curve:
    "exact" (default) uses -k'(b)/k^2(b); "asymptotic" uses (theta-1)/log n,
    reproducing the leading-order statements (refused at theta = 1).
    Grid points outside the support of G_{gamma_n} are clipped from the
    penultimate sup and counted in ``n_clipped``.
    """
    _check_grid(grid_spec)  # a bad grid is refused before a bad log n
    return error_comparison_at(model, locate(model, log_n), grid_spec, gamma_mode)


def error_comparison_at(model: WeibullTypeModel, loc: Location,
                        grid_spec: Tuple[float, float, int], gamma_mode: str) -> ErrorComparison:
    """:func:`error_comparison` at a located block size."""
    _check_grid(grid_spec)
    log_n, b, jet = loc
    if gamma_mode == "exact":
        gamma_n = jet.phi
    elif gamma_mode == "asymptotic":
        if model.theta_is_one:
            raise ThetaOneExcludedError(
                f"{model.label}: asymptotic gamma undefined at theta = 1"
            )
        gamma_n = (model.theta - 1.0) / log_n
        if not math.isfinite(gamma_n):
            raise EvalFailureError(f"{model.label}: asymptotic gamma not finite at log n = {log_n!r}")
    else:
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    # 1 + gamma x rounds monotonically in x, so an end of the window decides
    lo, hi, _ = grid_spec
    if not max(lo * gamma_n, hi * gamma_n) + 1.0 > 0.0:
        raise GridSupportEmptyError(
            f"no grid point satisfies 1 + gamma*x > 0 for gamma = {gamma_n!r}"
        )
    sup_ult, arg_ult, sup_pen, arg_pen, n_clipped, dev = _curve(
        model, log_n, grid_spec, b, 1.0 / jet.values[0], gamma_n, -jet.phi)
    return ErrorComparison(
        log_n=log_n,
        grid_spec=tuple(grid_spec),
        sup_error_ultimate=sup_ult,
        sup_error_penultimate=sup_pen,
        argmax_ultimate=arg_ult,
        argmax_penultimate=arg_pen,
        remainder_max_deviation=dev,
        gamma_used=gamma_n,
        n_clipped=n_clipped,
    )


def _penultimate_sup(xs: np.ndarray, fn: np.ndarray, gamma: float) -> Tuple[float, float, int]:
    """(sup |F^n - G_gamma|, its argmax, n_clipped) over the grid points
    inside the support 1 + gamma x > 0 of G_gamma, which holds some.
    gamma x is formed once, for the support test and for G_gamma."""
    import numpy as np

    t = np.multiply(xs, gamma)
    n_clipped = 0
    # 1 + gamma x rounds monotonically along the ascending grid, so the
    # ends decide whether any point is clipped
    if not (t[0] + 1.0 > 0.0 and t[-1] + 1.0 > 0.0):
        valid = t + 1.0 > 0.0
        n_clipped = xs.size - int(np.count_nonzero(valid))
        t, xs, fn = t[valid], xs[valid], fn[valid]
    diff = _gev_cdf(gamma, xs, t)
    np.subtract(fn, diff, out=diff)
    i, sup = _argmax_abs(diff)
    return sup, float(xs[i]), n_clipped


def _argmax_abs(diff: np.ndarray) -> Tuple[int, float]:
    """(first index of max |diff|, that |diff|), taking |diff| in place."""
    import numpy as np

    np.abs(diff, out=diff)
    i = int(np.argmax(diff))
    return i, float(diff[i])


def _remainder_deviation(xs: np.ndarray, diff: np.ndarray, density: np.ndarray,
                         rate: float) -> Optional[float]:
    """max |R - 1| with R = (F^n - G_0) / ((x^2/2) rate g_0(x)), rate = k'(b)/k^2(b),
    given ``diff`` = F^n - G_0 and ``density`` = g_0 on the grid, over the
    points where the denominator passes the cutoff; None where it passes
    nowhere.  The denominator and the ratio are formed in ``density``'s
    storage, and the points below the cutoff are masked, not gathered.

    g_0(x) is 0 beyond |x| = 1e3, so x^2 is taken on the ascending grid
    clipped there: x^2 stays finite in a window wide enough to overflow it,
    and the denominator is 0 there rather than inf * 0.
    """
    import numpy as np

    if xs[0] < -1e3 or xs[-1] > 1e3:
        xs = np.clip(xs, -1e3, 1e3)
    scratch = np.multiply(xs, 0.5)
    scratch *= xs
    scratch *= rate
    den = np.multiply(density, scratch, out=density)
    inside = np.abs(den, out=scratch) > REMAINDER_DENOMINATOR_CUTOFF
    del scratch
    n_inside = np.count_nonzero(inside)
    if not n_inside:
        return None
    where = True if n_inside == inside.size else inside
    ratio = np.divide(diff, den, out=den, where=where)
    ratio -= 1.0
    return float(np.max(np.abs(ratio, out=ratio), where=where, initial=0.0))


def remainder_profile(
    model: WeibullTypeModel,
    log_n: float,
    grid_spec: Tuple[float, float, int] = DEFAULT_GRID,
) -> float:
    """Max deviation of the first-order remainder ratio from 1 (Gumbel branch).

    Shrinks as log n grows when the remainder expansion applies; raises
    ``DegenerateProfileError`` when the denominator vanishes on the whole
    grid (the exact-Gumbel fixture).
    """
    _check_grid(grid_spec)
    _, b, jet = locate(model, log_n)
    # gamma 0 clips no point; only the remainder is read
    dev = _curve(model, log_n, grid_spec, b, 1.0 / jet.values[0], 0.0, -jet.phi)[5]
    if dev is None:
        raise DegenerateProfileError(
            f"{model.label}: remainder denominator below cutoff everywhere"
        )
    return dev


# Gumbel and generalized extreme value cdfs over arrays


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
    with np.errstate(over="ignore"):
        return _gev_cdf(gamma, x, np.multiply(x, gamma))


def _gev_cdf(gamma: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`gev_cdf_array` given t = gamma x, whose storage it may reuse."""
    import numpy as np

    if abs(gamma) < _GEV_SERIES_GAMMA:
        w = numerics.piecewise(np.abs(t) < _GEV_SERIES_T, _gev_series,
                               lambda x, t: _gev_log1p(t, gamma), x, t)
    else:
        w = _gev_log1p(t, gamma, out=t)
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


def _gev_log1p(t: np.ndarray, gamma: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """log1p(t) / gamma, t = gamma x, into ``out`` (which may be ``t``) or a new array."""
    import numpy as np

    out = np.log1p(t, out=out)
    out /= gamma
    return out


def _neg_exp_neg(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """-e^-w into ``out`` (which may be ``w`` itself) or a new array, inside
    the caller's floating-point context: the exponent of G_0 and of g_0."""
    import numpy as np

    out = np.negative(w, out=out)
    np.exp(out, out=out)
    return np.negative(out, out=out)


def _gumbel_cdf(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(-e^-w) into ``out`` (which may be ``w`` itself) or a new array,
    inside the caller's floating-point context."""
    import numpy as np

    out = _neg_exp_neg(w, out=out)
    return np.exp(out, out=out)


def gumbel_cdf_array(xs: np.ndarray) -> np.ndarray:
    import numpy as np

    with np.errstate(over="ignore"):
        return _gumbel_cdf(np.asarray(xs, dtype=float))


def gumbel_density_array(xs: np.ndarray) -> np.ndarray:
    """g_0(x) = exp(-e^-x - x)."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        out = _neg_exp_neg(xs)
        out -= xs
        return np.exp(out, out=out)
