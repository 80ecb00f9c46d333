"""Built-in model catalog, addressable by name + parameters from the CLI.

Reference Weibull-tail coefficients: pure Weibull(alpha, lambda) has
theta = 1/alpha, the extended Weibull(beta, delta) theta = 1/beta, the
Normal 1/2, and Exponential/Gamma/Logistic sit at theta = 1 where the
(theta - 1)-asymptotics are excluded; those models are constructible and
their exact quantities compute, but penultimate asymptotics refuse them.

Every model here is built from scalar ``math`` code.  Its array log sf
(or its spec's array value), which the error curves' array pass reads,
is a form from :func:`weibtail.slowly_varying.array_form` whose kernel
lives in :mod:`weibtail.arrays`, so building a model loads no numpy.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from . import numerics
from . import slowly_varying as sv
from .model import Family, WeibullTypeModel
from .numerics import _EPS, _LN2

_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_LENTZ_TINY = 1e-300
_GAMMA_MAX_TERMS = 1000
# Largest gamma shape taken.  log Q carries a log x - x - lgamma(a), whose
# rounding grows like eps a log x: at log n in {1, 10, 100, 700}, b_n, a_n
# and gamma_n are within 1e-12 of a 60-digit oracle at 1000 (shapes sampled
# from 800 on reach 1.5e-12), 2e-11 near 1e4; by 1e20 evaluation fails.
_GAMMA_MAX_SHAPE = 1000.0
# Smallest gamma shape taken.  Below x = a + 1, log P = a log x - x -
# lgamma(a + 1) + log(sum) cancels to ~-0.2 a near x = 1 against a rounding
# of a few eps, so for small shapes it can round positive and log(1 - P)
# fails untyped: a dense scan of x found such shapes up to 5.2e-15, and
# none in 1400 random shapes from there to 1e-13.
_GAMMA_MIN_SHAPE = 1e-14
# The gamma hazard recurrence h' = h(psi + h) cancels, losing ~eps x^(j+1) at
# order j; from here on (and from 2 * shape, where the asymptotic series
# starts out decreasing) the hazard derivatives come from the large-x series.
_GAMMA_LARGE_X = 50.0
# Normal tail switches in x: the Mills-ratio continued fraction from
# x = 2 (z = x/sqrt 2 = 1.41), and the asymptotic form of log Q from just
# below z = 26.5, where erfc(z) leaves the normal doubles.
_NORMAL_CF_X = 2.0
_NORMAL_ASYMPTOTIC_X = 37.0
# (x + _SPLITTER) - _SPLITTER rounds |x| < 2^40 to a multiple of 2^-11.
_SPLITTER = 1.5 * 2.0**41


def weibull_type(
    theta: float,
    l: sv.SlowlyVaryingSpec,
    family: Family = Family.TAIL_EXP,
    support_lower: float = 0.0,
    label: Optional[str] = None,
) -> WeibullTypeModel:
    """Generic constructor for the two exponential-tail families."""
    return WeibullTypeModel(
        family=family,
        theta=theta,
        l=l,
        support_lower=support_lower,
        label=label or f"{family.value}(theta={theta:g}, l={l.label})",
    )


def pure_weibull(theta: Optional[float] = None, alpha: Optional[float] = None,
                 scale: float = 1.0) -> WeibullTypeModel:
    """Weibull(alpha, lambda): 1 - F = exp(-(x/lambda)^alpha), theta = 1/alpha."""
    if (theta is None) == (alpha is None):
        raise ValueError("give exactly one of theta or alpha")
    if theta is None:
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        theta = 1.0 / alpha
    if not theta > 0.0 or not scale > 0.0:
        raise ValueError("theta and scale must be positive")
    try:
        c = scale ** (-1.0 / theta)
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise ValueError(f"scale ** (-1/theta) = {scale:g} ** {-1.0 / theta:g} "
                         "is past the double range")
    return weibull_type(
        theta=theta,
        l=sv.constant(c),
        support_lower=0.0,
        label=f"pure-weibull(theta={theta:g}, scale={scale:g})",
    )


def extended_weibull(beta: float, delta: float = 1.0) -> WeibullTypeModel:
    """1 - F = exp(-x^beta (log x)^delta); theta = 1/beta."""
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    # keep H strictly increasing: H' > 0 needs log x > -delta/beta
    lmin = max(1.0, 0.5 - delta / beta)
    if not lmin <= _LOG_DOUBLE_MAX:
        raise ValueError(f"support floor exp({lmin:g}) is past the double range")
    return weibull_type(
        theta=1.0 / beta,
        l=sv.log_power(delta),
        support_lower=math.exp(lmin),
        label=f"extended-weibull(beta={beta:g}, delta={delta:g})",
    )


def gumbel_fixture() -> WeibullTypeModel:
    """-log F = e^-x: the exact-Gumbel null fixture (k == 1, zero errors)."""
    return weibull_type(
        theta=1.0,
        l=sv.constant(1.0),
        family=Family.LOG_CDF_EXP,
        support_lower=0.0,
        label="gumbel-fixture",
    )


def _normal_pdf(x: float) -> float:
    """phi(x) to a few ulp; 0 beyond |x| = 40, where phi < 1e-347.

    x^2 = xh^2 + (x - xh)(x + xh) with xh = x rounded to 2^-11, whose square
    is exact, so exp(-x^2/2) does not lose the ~x^2 ulp that rounding x^2
    costs."""
    if not abs(x) <= 40.0:
        return 0.0
    xh = (x + _SPLITTER) - _SPLITTER
    return _INV_SQRT_2PI * math.exp(-0.5 * xh * xh) * math.exp(-0.5 * (x - xh) * (x + xh))


def _normal_sf(x: float) -> float:
    """Q(x) = erfc(x/sqrt 2)/2 to a few ulp, down to the subnormals.

    For x >= 0 the rounding of z = x/sqrt 2 would move erfc(z) by 2 z^2
    times itself; erfcx(z) = erfc(z) e^(z^2) barely moves, so Q is taken
    as erfc(z) e^(z^2 - x^2/2)/2 with z^2 - x^2/2 from exactly split squares.
    From x = 37, where erfc(z) leaves the normal doubles, Q = phi/h with h
    from the asymptotic series.
    """
    if x < 0.0:
        return 0.5 * math.erfc(x * _SQRT1_2)  # erfc is flat there
    if x >= _NORMAL_ASYMPTOTIC_X:
        return _normal_pdf(x) / (x + _normal_hazard_excess(x))
    z = x * _SQRT1_2
    zh = (z + _SPLITTER) - _SPLITTER
    xh = (x + _SPLITTER) - _SPLITTER
    c = (zh * zh - 0.5 * xh * xh) + ((z - zh) * (z + zh) - 0.5 * (x - xh) * (x + xh))
    return 0.5 * math.erfc(z) * (1.0 + c)  # e^c = 1 + c: |c| < 1e-12


def _normal_hazard(x: float) -> Tuple[float, float]:
    """(h, h - x) for the hazard h = phi(x) / Q(x), x < 50.

    From x = 2 on, the Mills ratio Q/phi = x / (x^2 + 1 - t) with
    t = 1*2 / (x^2 + 5 - 3*4 / (x^2 + 9 - 5*6 / ...)), the even continued
    fraction of erfcx (DLMF 7.9.3 with z = x/sqrt 2), summed by the
    modified Lentz algorithm in 55 steps at x = 2 and 4 beyond x = 24.
    Then h - x = (1 - t)/x, free of the cancellation in h - x that costs
    ~x^2 ulp, and h = x + (h - x).
    """
    if x < _NORMAL_CF_X:
        h = _normal_pdf(x) / _normal_sf(x)
        return h, h - x
    b = x * x + 5.0
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    tau = d
    for i in range(2, 100):
        an = -(2.0 * i - 1.0) * (2.0 * i)
        b += 4.0
        d = 1.0 / (an * d + b)  # the denominators stay positive for x > 0
        c = b + an / c
        delta = d * c
        tau *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    u = (1.0 - 2.0 * tau) / x
    return x + u, u


def _normal_hazard_excess(x: float) -> float:
    """h - x by the inverse-Mills asymptotic series (DLMF 7.12.1), cut at
    the x^-9 term: relative truncation ~2e-12 at x = 37, O(x^-10), which
    is ~2e-12/x^2 in h itself."""
    v = 1.0 / (x * x)
    return (1.0 / x) * (1.0 - v * (2.0 - v * (10.0 - v * (74.0 - 706.0 * v))))


def _normal_log_sf(x: float) -> float:
    """log Q(x): log1p(-Phi) below 0, log Q until Q underflows, then the
    asymptotic form log(phi/h) = -x^2/2 - log sqrt(2 pi) - log h."""
    if x < 0.0:
        return math.log1p(-_normal_sf(-x))
    if x < _NORMAL_ASYMPTOTIC_X:
        return math.log(_normal_sf(x))
    return -0.5 * x * x - _LOG_SQRT_2PI - math.log(x + _normal_hazard_excess(x))


def normal() -> WeibullTypeModel:
    """Standard Normal (reference theta = 1/2).

    The scalar tail comes from libm's erfc (``_normal_sf``) and the hazard
    from a Mills-ratio continued fraction (``_normal_hazard``), both
    accurate to a few ulp arbitrarily deep in the tail; ``hazard_derivs``
    gives H = -log Q, the hazard, and its derivatives from the Mills-ratio
    recurrence h' = h(h - x).  The array log sf of the error curves is a
    numpy piecewise polynomial (``arrays._normal_log_sf_array``); no code
    path loads scipy.
    """

    def hazard_derivs(x: float, m: int) -> Tuple[float, ...]:
        if x < 50.0:
            h, u = _normal_hazard(x)
            h1 = h * u
            h2 = h1 * u + h * (h1 - 1.0)
            h3 = h2 * u + 2.0 * h1 * (h1 - 1.0) + h * h2
            return (-_normal_log_sf(x), h, h1, h2, h3)[: m + 1]
        # The recurrence cancels in h' - 1 for large x; all four orders come
        # from the inverse-Mills asymptotic series instead (relative
        # truncation ~3e-9 at x = 50, O(x^-8) beyond).
        v = 1.0 / (x * x)
        h = x + _normal_hazard_excess(x)
        h1 = 1.0 - v * (1.0 - v * (6.0 - v * (50.0 - 518.0 * v)))
        h2 = (2.0 - v * (24.0 - v * (300.0 - 4144.0 * v))) * v / x
        h3 = -(6.0 - v * (120.0 - v * (2100.0 - 37296.0 * v))) * v * v
        return (-_normal_log_sf(x), h, h1, h2, h3)[: m + 1]

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=0.5,
        label="normal",
        support_lower=-math.inf,
        classical_log_sf=_normal_log_sf,
        hazard_derivs=hazard_derivs,
        classical_log_sf_array=sv.array_form("_normal_log_sf_array"),
    )


def exponential() -> WeibullTypeModel:
    """Standard Exponential (theta = 1; excluded from asymptotics)."""

    log_sf = lambda x: -x if x > 0.0 else 0.0

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label="exponential",
        support_lower=0.0,
        classical_log_sf=log_sf,
        hazard_derivs=lambda x, m: (-log_sf(x), 1.0, 0.0, 0.0, 0.0)[: m + 1],
        classical_log_sf_array=sv.array_form("_exponential_log_sf_array"),
    )


def logistic() -> WeibullTypeModel:
    """Standard Logistic (theta = 1; excluded from asymptotics)."""

    def log_sf(x: float) -> float:
        if x >= 0.0:
            return -x - math.log1p(math.exp(-x))
        return -math.log1p(math.exp(x))

    def hazard_derivs(x: float, m: int) -> Tuple[float, ...]:
        log_q = log_sf(x)
        h = 1.0 / (1.0 + math.exp(-x)) if x > -500.0 else math.exp(x)  # F
        h1 = h * math.exp(log_q)  # F * (1 - F), stable for large x
        h2 = h1 * (1.0 - 2.0 * h)
        h3 = h2 * (1.0 - 2.0 * h) - 2.0 * h1 * h1
        return (-log_q, h, h1, h2, h3)[: m + 1]

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label="logistic",
        support_lower=-math.inf,
        classical_log_sf=log_sf,
        hazard_derivs=hazard_derivs,
        classical_log_sf_array=sv.array_form("_logistic_log_sf_array"),
    )


def gamma_model(shape: float = 2.0) -> WeibullTypeModel:
    """Gamma(shape) with unit scale (theta = 1; excluded from asymptotics).

    shape = 1 collapses to the Exponential; the interesting members here
    have shape != 1 (their penultimate index decays like 1/log^2 n rather
    than 1/n, one reason the theta = 1 row is not treated uniformly).

    The regularized upper incomplete gamma Q is evaluated in log space:
    log(1 - P) with the power series for P below x = shape + 1, and the
    continued fraction for Gamma(shape, x) above (DLMF 8.7.1, §8.9), so
    log Q stays finite arbitrarily deep in the tail.  ``hazard_derivs``
    takes H = -log Q and the hazard f/Q from one run of either loop.
    """
    if not _GAMMA_MIN_SHAPE <= shape <= _GAMMA_MAX_SHAPE:
        raise ValueError(f"shape must be in [{_GAMMA_MIN_SHAPE:g}, {_GAMMA_MAX_SHAPE:g}]")
    a = shape
    lga = math.lgamma(a)
    lga1 = math.lgamma(a + 1.0)
    x_large = max(_GAMMA_LARGE_X, 2.0 * a)

    # Every residual of a gamma root solve runs one of these two loops to
    # full precision, so each step is kept to the float operations it
    # needs, on locals.
    def series_log_p(x: float) -> float:
        """log P(a, x) for 0 < x < a + 1: P = x^a e^-x / Gamma(a + 1) *
        sum_n x^n / ((a + 1) ... (a + n))."""
        eps = _EPS
        term = total = 1.0
        ap = a
        for _ in range(_GAMMA_MAX_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if term <= eps * total:
                break
        return a * math.log(x) - x - lga1 + math.log(total)

    def continued_fraction(x: float) -> float:
        """cf = Gamma(a, x) e^x x^-a for a + 1 <= x < inf, by the modified
        Lentz algorithm.

        Lentz's guard against a denominator near 0 cannot act here: with
        b_i = x + 1 - a + 2i and a_i = i (a - i), the denominators
        D_i = b_i + a_i / D_(i-1) (D_0 = b_0) and C_i = b_i + a_i / C_(i-1)
        (C_0 = 1/_LENTZ_TINY) stay >= max(2, i + 1) for x >= a + 1.  D_0 =
        x + 1 - a >= 2, and given D_(i-1) >= i: a_i >= 0 (i <= a) leaves
        D_i >= b_i >= 2 + 2i, and a_i < 0 (i > a) takes at most
        i (i - a) / i from b_i, so D_i >= x + 1 + i; likewise C_i.  Each
        step rounds off a few ulp against a margin of at least 1, so the
        rounded ones stay above (1 - 1e-12) max(2, i + 1), far from 1e-300.

        The step counter i is a float, and a_i = i (a - i) equals -i (i - a)
        to the bit, since u - v = -(v - u) exactly (a zero a_i may differ in
        sign, which b_i + a_i d and b_i + a_i / c absorb).  The stop
        -eps <= delta - 1 <= eps has the truth value of |delta - 1| <= eps
        for every double and for NaN, without a call per step.
        """
        eps, neg_eps = _EPS, -_EPS
        b = x + 1.0 - a
        c = 1.0 / _LENTZ_TINY
        d = 1.0 / b
        cf = d
        i = 0.0
        for _ in range(1, _GAMMA_MAX_TERMS):
            i += 1.0
            an = i * (a - i)
            b += 2.0
            d = an * d + b
            c = b + an / c
            d = 1.0 / d
            delta = d * c
            cf *= delta
            if neg_eps <= delta - 1.0 <= eps:
                break
        return cf

    def log_sf(x: float) -> float:
        """log Q(a, x): log(1 - P) below x = a + 1, log Gamma(a, x) -
        log Gamma(a) from there on."""
        if x <= 0.0:
            return 0.0
        if x < a + 1.0:
            return numerics.log1mexp(series_log_p(x))
        if x == math.inf:
            return -math.inf
        return a * math.log(x) - x - lga + math.log(continued_fraction(x))

    def hazard_derivs(x: float, m: int) -> Tuple[float, ...]:
        if x < x_large:
            if x < a + 1.0:
                log_q = log_sf(x)
                if log_q == 0.0:  # F(x) = 0 (all x <= 0), which every k route refuses
                    return (-log_q,) + (math.nan,) * m
                h = math.exp((a - 1.0) * math.log(x) - x - lga - log_q)  # f/Q
            else:
                # the hazard x^(a-1) e^-x / Gamma(a, x) is 1 / (x cf) exactly
                cf = continued_fraction(x)
                log_q, h = a * math.log(x) - x - lga + math.log(cf), 1.0 / (x * cf)
            x3 = x**3
            if x3 == 0.0:  # x^3 underflowed, so 1/x^3 is past the double range
                raise OverflowError(f"1/x^3 past the double range at x={x!r}")
            psi = (a - 1.0) / x - 1.0  # f'/f
            psi1 = -(a - 1.0) / (x * x)
            psi2 = 2.0 * (a - 1.0) / x3
            h1 = h * (psi + h)
            h2 = h1 * (psi + h) + h * (psi1 + h1)
            h3 = h2 * (psi + h) + 2.0 * h1 * (psi1 + h1) + h * (psi2 + h2)
            return (-log_q, h, h1, h2, h3)[: m + 1]
        # The recurrence cancels in psi + h and its derivatives for large x.
        # Instead r = 1/h = e^x x^(1-a) Gamma(a, x) ~ sum_k (a-1)...(a-k) x^-k
        # (DLMF 8.11.2), summed with its first three derivatives and cut at
        # its smallest term; x >= 2a keeps the terms decreasing from the start.
        r, r1, r2, r3 = 1.0, 0.0, 0.0, 0.0
        term, prev = 1.0, math.inf
        for k in range(1, _GAMMA_MAX_TERMS):
            term *= (a - k) / x
            mag = abs(term)
            if mag == 0.0 or mag >= prev:
                break
            r += term
            r1 -= k * term
            r2 += k * (k + 1) * term
            r3 -= k * (k + 1) * (k + 2) * term
            if k * k * k * mag <= _EPS * abs(r1):
                break
            prev = mag
        r1 /= x
        r2 /= x * x
        r3 /= x**3
        h = 1.0 / r
        h1 = -r1 * h * h
        h2 = (2.0 * r1 * r1 - r * r2) * h**3
        h3 = (6.0 * r * r1 * r2 - 6.0 * r1**3 - r * r * r3) * h**4
        return (-log_sf(x), h, h1, h2, h3)[: m + 1]

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label=f"gamma(shape={shape:g})",
        support_lower=0.0,
        classical_log_sf=log_sf,
        hazard_derivs=hazard_derivs,
        classical_log_sf_array=sv.array_form("_gamma_log_sf_array", a),
    )


class CatalogEntry(NamedTuple):
    build: Callable[..., WeibullTypeModel]
    params: Tuple[str, ...]
    family: str
    theta_reference: str
    theta_is_one: bool
    required: Tuple[str, ...] = ()  # the params ``build`` has no default for


CATALOG: Dict[str, CatalogEntry] = {
    "pure-weibull": CatalogEntry(
        build=pure_weibull,
        params=("theta", "alpha", "scale"),
        family=Family.TAIL_EXP.value,
        theta_reference="theta = 1/alpha",
        theta_is_one=False,
    ),
    "extended-weibull": CatalogEntry(
        build=extended_weibull,
        params=("beta", "delta"),
        family=Family.TAIL_EXP.value,
        theta_reference="theta = 1/beta",
        theta_is_one=False,
        required=("beta",),
    ),
    "normal": CatalogEntry(
        build=normal,
        params=(),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1/2",
        theta_is_one=False,
    ),
    "exponential": CatalogEntry(
        build=exponential,
        params=(),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1",
        theta_is_one=True,
    ),
    "logistic": CatalogEntry(
        build=logistic,
        params=(),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1",
        theta_is_one=True,
    ),
    "gamma": CatalogEntry(
        build=gamma_model,
        params=("shape",),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1",
        theta_is_one=True,
    ),
    "gumbel-fixture": CatalogEntry(
        build=gumbel_fixture,
        params=(),
        family=Family.LOG_CDF_EXP.value,
        theta_reference="theta = 1 (exact Gumbel)",
        theta_is_one=True,
    ),
}


def build_model(name: str, **params: float) -> WeibullTypeModel:
    """Resolve a catalog name and construct the model, validating params:
    an unknown or a missing required parameter is a ValueError."""
    entry = CATALOG.get(name)
    if entry is None:
        raise KeyError(f"unknown model {name!r}; available: {', '.join(sorted(CATALOG))}")
    unknown = set(params) - set(entry.params)
    if unknown:
        raise ValueError(
            f"model {name!r} does not take parameter(s) {sorted(unknown)}; allowed: {list(entry.params)}"
        )
    missing = [p for p in entry.required if p not in params]
    if missing:
        raise ValueError(f"model {name!r} needs parameter(s) {missing}")
    return entry.build(**params)
