"""Penultimate tail index and ultimate-vs-penultimate error curves.

The n-dependent shape gamma_n = -k'(b_n)/k^2(b_n) approaches (theta-1)/log n,
positive for theta > 1 (Frechet-type penultimate behavior) and negative for
theta < 1 (Weibull-type); at theta = 1 the asymptotic fields are refused
because the 1/log n scaling does not hold uniformly there.  Error curves
compare F^n(a_n x + b_n) against the Gumbel limit G_0 and against the
penultimate GEV G_{gamma_n} on a fixed grid, all in log space so no block
scale underflows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import (
    DegenerateProfileError,
    GridSupportEmptyError,
    InsufficientGridError,
    ThetaOneExcludedError,
)
from .model import (
    WeibullTypeModel,
    gev_cdf_array,
    gumbel_cdf_array,
    gumbel_coordinate_array,
    gumbel_density_array,
)
from .norming import locate

if TYPE_CHECKING:
    import numpy as np

# Default evaluation window: covers all but ~1e-3 of the Gumbel mass.
DEFAULT_GRID: Tuple[float, float, int] = (-3.0, 6.0, 1000)
REMAINDER_DENOMINATOR_CUTOFF = 1e-12


class Classification(enum.Enum):
    """Penultimate limit type: Frechet for theta > 1, Weibull for theta < 1."""

    FRECHET = "frechet"
    WEIBULL = "weibull"
    EXCLUDED_THETA_ONE = "excluded_theta_one"


@dataclass(frozen=True)
class PenultimateIndex:
    """Exact and asymptotic penultimate shape at one block size.

    ``rate_ultimate`` is the (1-theta)/log n convergence-rate functional of
    the ultimate (Gumbel) approximation; ``rate_penultimate`` the recorded
    second-order formula 2 theta (1-theta)/log^2 n.  ``gamma_prime_exact``
    evaluates the closed form
    (2(c-1)^2 - (c-1)(c-2)) / (b k(b))^2,  c = 1/theta,
    with the exact b k(b).  All theta-dependent fields are None with
    ``error`` = "theta_one_excluded" when theta = 1; the exact gamma_n is
    always filled.
    """

    log_n: float
    gamma_exact: float
    classification: Classification
    gamma_asymptotic: Optional[float] = None
    rate_ultimate: Optional[float] = None
    rate_penultimate: Optional[float] = None
    gamma_prime_exact: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class ErrorComparison:
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
        return tuple(_validate_grid(self.grid_spec).tolist())


def gamma_of_t(model: WeibullTypeModel, t: float) -> float:
    """phi evaluated at the exact level: -k'(x)/k^2(x) at -log(-log F(x)) = t > 0."""
    return locate(model, t)[1].phi


def penultimate_index(model: WeibullTypeModel, log_n: float) -> PenultimateIndex:
    """gamma_n = -k'(b_n)/k^2(b_n) at block size n = e^log_n, with its
    asymptote (theta-1)/log n and the convergence-rate functionals."""
    b_exact, jet = locate(model, log_n)
    gamma_exact = jet.phi
    theta = model.theta
    if model.theta_is_one:
        return PenultimateIndex(
            log_n=log_n,
            gamma_exact=gamma_exact,
            classification=Classification.EXCLUDED_THETA_ONE,
            error=ThetaOneExcludedError.code,
        )
    c = 1.0 / theta
    bk = b_exact * jet.values[0]
    return PenultimateIndex(
        log_n=log_n,
        gamma_exact=gamma_exact,
        classification=Classification.FRECHET if theta > 1.0 else Classification.WEIBULL,
        gamma_asymptotic=(theta - 1.0) / log_n,
        rate_ultimate=(1.0 - theta) / log_n,
        rate_penultimate=2.0 * theta * (1.0 - theta) / (log_n * log_n),
        gamma_prime_exact=(2.0 * (c - 1.0) ** 2 - (c - 1.0) * (c - 2.0)) / (bk * bk),
    )


def _validate_grid(grid_spec: Tuple[float, float, int]) -> np.ndarray:
    import numpy as np

    lo, hi, count = grid_spec
    if count < 100:
        raise InsufficientGridError(f"grid needs at least 100 points, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise InsufficientGridError(f"grid needs finite lo, hi and hi - lo, got {lo!r}:{hi!r}")
    if not lo < hi:
        raise InsufficientGridError("grid needs lo < hi")
    return np.linspace(lo, hi, int(count))


def _maxima_curve(model: WeibullTypeModel, log_n: float, xs: np.ndarray,
                  b: float, a: float) -> np.ndarray:
    """F^n(a x + b) on the grid, via exp(-e^(log n - T(z))); T = -inf where
    F = 0 gives F^n = 0, T = +inf where F = 1 gives F^n = 1, and a z that
    overflows to +/-inf in a huge window saturates the same way."""
    import numpy as np

    with np.errstate(over="ignore"):
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
    import numpy as np

    xs = _validate_grid(grid_spec)
    b, jet = locate(model, log_n)
    if gamma_mode == "exact":
        gamma_n = jet.phi
    elif gamma_mode == "asymptotic":
        if model.theta_is_one:
            raise ThetaOneExcludedError(
                f"{model.label}: asymptotic gamma undefined at theta = 1"
            )
        gamma_n = (model.theta - 1.0) / log_n
    else:
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")

    fn = _maxima_curve(model, log_n, xs, b, 1.0 / jet.values[0])
    g0 = gumbel_cdf_array(xs)
    # F^n - G_0, shared by the remainder ratio and the ultimate sup
    diff = np.subtract(fn, g0, out=g0)
    sup_pen, argmax_pen, n_clipped = _penultimate_sup(xs, fn, gamma_n)
    del fn  # the rest needs only diff
    try:
        remainder = _remainder_deviation(model, xs, diff, -jet.phi)
    except DegenerateProfileError:
        remainder = None
    i_ult, sup_ult = _argmax_abs(diff)

    return ErrorComparison(
        log_n=log_n,
        grid_spec=tuple(grid_spec),
        sup_error_ultimate=sup_ult,
        sup_error_penultimate=sup_pen,
        argmax_ultimate=float(xs[i_ult]),
        argmax_penultimate=argmax_pen,
        remainder_max_deviation=remainder,
        gamma_used=gamma_n,
        n_clipped=n_clipped,
    )


def _penultimate_sup(xs: np.ndarray, fn: np.ndarray, gamma: float) -> Tuple[float, float, int]:
    """(sup |F^n - G_gamma|, its argmax, n_clipped) over the grid points
    inside the support 1 + gamma x > 0 of G_gamma."""
    import numpy as np

    n_clipped = 0
    if gamma != 0.0:
        valid = xs * gamma + 1.0 > 0.0
        n_clipped = xs.size - int(np.count_nonzero(valid))
    if n_clipped == xs.size:
        raise GridSupportEmptyError(
            f"no grid point satisfies 1 + gamma*x > 0 for gamma = {gamma!r}"
        )
    if n_clipped:
        xs, fn = xs[valid], fn[valid]
    diff = gev_cdf_array(gamma, xs)
    np.subtract(fn, diff, out=diff)
    i, sup = _argmax_abs(diff)
    return sup, float(xs[i]), n_clipped


def _argmax_abs(diff: np.ndarray) -> Tuple[int, float]:
    """(first index of max |diff|, that |diff|), taking |diff| in place."""
    import numpy as np

    np.abs(diff, out=diff)
    i = int(np.argmax(diff))
    return i, float(diff[i])


def _remainder_deviation(model: WeibullTypeModel, xs: np.ndarray, diff: np.ndarray,
                         rate: float) -> float:
    """max |R - 1| with R = (F^n - G_0) / ((x^2/2) rate g_0(x)), rate = k'(b)/k^2(b),
    given ``diff`` = F^n - G_0.

    g_0(x) is 0 beyond |x| = 1e3, so the ascending grid is clipped there:
    x^2 stays finite in a window wide enough to overflow it, and the
    denominator is 0 there rather than inf * 0.
    """
    import numpy as np

    if xs[0] < -1e3 or xs[-1] > 1e3:
        xs = np.clip(xs, -1e3, 1e3)
    den = np.multiply(xs, 0.5)
    den *= xs
    den *= rate
    scratch = gumbel_density_array(xs)
    den *= scratch
    inside = np.abs(den, out=scratch) > REMAINDER_DENOMINATOR_CUTOFF
    del scratch
    n_inside = np.count_nonzero(inside)
    if not n_inside:
        raise DegenerateProfileError(
            f"{model.label}: remainder denominator below cutoff everywhere"
        )
    if n_inside < inside.size:
        diff, den = diff[inside], den[inside]
    ratio = np.divide(diff, den)
    ratio -= 1.0
    return float(np.max(np.abs(ratio, out=ratio)))


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
    xs = _validate_grid(grid_spec)
    b, jet = locate(model, log_n)
    fn = _maxima_curve(model, log_n, xs, b, 1.0 / jet.values[0])
    return _remainder_deviation(model, xs, fn - gumbel_cdf_array(xs), -jet.phi)
