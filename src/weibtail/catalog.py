"""Built-in model catalog, addressable by name + parameters from the CLI.

Reference Weibull-tail coefficients: pure Weibull(alpha, lambda) has
theta = 1/alpha, the extended Weibull(beta, delta) theta = 1/beta, the
Normal 1/2, and Exponential/Gamma/Logistic sit at theta = 1 where the
(theta - 1)-asymptotics are excluded; those models are constructible and
their exact quantities compute, but penultimate asymptotics refuse them.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

from . import numerics
from . import slowly_varying as sv
from .model import Family, WeibullTypeModel

if TYPE_CHECKING:
    import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_EPS = math.ulp(1.0)
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
# starts out decreasing) the hazard block comes from the large-x series.
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
    c = scale ** (-1.0 / theta)
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


# log Q over an array: P(t) = log(erfcx(z) / (2 t)), z = x/sqrt 2 and
# t = 2/(2 + z), as a degree-7 polynomial in u = 32 t - k on each piece
# [k, k + 1]/32 of t; the last row is t = 1 (x = 0) alone.  Rebuilt, bit
# for bit, by tools/gen_normal_log_sf.py.
_NORMAL_LOG_SF_PIECES = 32
_NORMAL_LOG_SF_TABLE = (
    (-1.9586593040445908, 0.03125000000000053, 0.0003662109374889898, 2.5431315983298756e-06,
     -8.19567308305068e-08, -4.2833533363071346e-09, -8.634762133606876e-11, 1.376505409031185e-12),
    (-1.927040636300558, 0.031989701517634465, 0.00037330449205608764, 2.17079256250174e-06,
     -1.0462058895714672e-07, -4.770891817181035e-09, -7.682863200053082e-11, 2.5723453418516447e-12),
    (-1.8946755689640422, 0.03274238009965517, 0.0003791403388805227, 1.7031549689709288e-06,
     -1.295374731027713e-07, -5.175989433390938e-09, -5.888113757260049e-11, 3.926321883648196e-12),
    (-1.861552480138955, 0.03350522588668232, 0.0003834200182907014, 1.132205205677767e-06,
     -1.5616320059434463e-07, -5.444934696217287e-09, -3.136417833557262e-11, 5.3070212178134646e-12),
    (-1.8276628636629686, 0.03427481051037015, 0.0003858248463443493, 4.526617172187882e-07,
     -1.8367252036042487e-07, -5.520002770085297e-09, 5.934913200240305e-12, 6.529438429608626e-12),
    (-1.7930019648245956, 0.035047055979431585, 0.0003860258224923762, -3.368810256843414e-07,
     -2.1095485121808572e-07, -5.346117587163545e-09, 5.191484427374546e-11, 7.37907934635072e-12),
    (-1.7575694361453722, 0.03581722679448936, 0.0003836969228214487, -1.2328649982086153e-06,
     -2.3664827069847604e-07, -4.879299919514546e-09, 1.039465720623972e-10, 7.65228359399837e-12),
    (-1.7213699867090315, 0.03657995173280021, 0.0003785313651068636, -2.2259043928342097e-06,
     -2.592175365014699e-07, -4.095541818699889e-09, 1.5794873483502486e-10, 7.2037111353074944e-12),
    (-1.6844139926634432, 0.03732928040009754, 0.00037025991180689974, -3.300319051398703e-06,
     -2.7707368272915084e-07, -2.9982403705493997e-09, 2.08803836615908e-10, 5.987177489176553e-12),
    (-1.6467180325277222, 0.03805877727535578, 0.0003586697879464683, -4.434210869925411e-06,
     -2.887231099070804e-07, -1.6223038966241643e-09, 2.510666265824034e-10, 4.076548997954547e-12),
    (-1.6083053097655604, 0.03876165274961309, 0.00034362244524865557, -5.600162731025506e-06,
     -2.929258481509965e-07, -3.360610109089824e-11, 2.798205240228756e-10, 1.6593689962354977e-12),
    (-1.569205927411404, 0.039430926971030365, 0.00032506829806106224, -6.7665481291955595e-06,
     -2.888384693258477e-07, 1.6765293366390173e-09, 2.914861306675103e-10, -9.95377840969462e-13),
    (-1.5294569855618911, 0.0400596186934809, 0.0003030567395379985, -7.89934225138761e-06,
     -2.761184259321381e-07, 3.400995515270692e-09, 2.843972825240547e-10, -3.5862175195276863e-12),
    (-1.489102481907743, 0.04064094835835458, 0.000277740202827848, -8.964243938480785e-06,
     -2.549731323917084e-07, 5.028992321880969e-09, 2.5902673243009006e-10, -5.8317902407523e-12),
    (-1.4481930072814442, 0.0411685427979631, 0.00024937168506887215, -9.928870397865377e-06,
     -2.2614705506398938e-07, 6.458377681260099e-09, 2.1783744994936117e-10, -7.514696455428092e-12),
    (-1.4067852411471646, 0.041636628514996256, 0.00021829588506833863, -1.076478126946332e-05,
     -1.9085081262813835e-07, 7.606228988971226e-09, 1.6482381530478508e-10, -8.508289964212798e-12),
    (-1.3649412646166377, 0.04204020149860357, 0.0001849347923508807, -1.1449123589619645e-05,
     -1.506452891533071e-07, 8.416116028103345e-09, 1.0486525752762602e-10, -8.783659754541807e-12),
    (-1.3227277195823643, 0.04237516377966629, 0.0001497690995239195, -1.196575364685727e-05,
     -1.0729932123184283e-07, 8.861373058573639e-09, 4.303345791385199e-11, -8.399060997034059e-12),
    (-1.2802148508601348, 0.04263842002676214, 0.00011331712550397534, -1.2305770349324637e-05,
     -6.264104496187759e-08, 8.944452547024036e-09, -1.602276919151282e-11, -7.477325526070699e-12),
    (-1.2374754731983104, 0.042827930976328366, 7.611301534369075e-05, -1.2467471953744634e-05,
     -1.842090865626794e-08, 8.693069933003659e-09, -6.853068713853528e-11, -6.17793793200605e-12),
    (-1.1945839064811394, 0.042942723918441325, 3.868584703170371e-05, -1.2455811484517352e-05,
     2.3800218877907336e-08, 8.154214644701448e-09, -1.1184835735677045e-10, -4.6698259557945535e-12),
    (-1.1516149206892357, 0.04298286344622251, 1.5409802463180948e-06, -1.2281468618659888e-05,
     6.273012754139236e-08, 7.387197406451416e-09, -1.4452704025949443e-10, -3.1091688337212753e-12),
    (-1.1086427277616968, 0.04294938796843139, -3.485540606733619e-05, -1.1959675253339487e-05,
     9.738942268910831e-08, 6.456779352560057e-09, -1.6621759270562772e-10, -1.624414762481337e-12),
    (-1.065740051196226, 0.04284421896344904, -7.008805487245929e-05, -1.150893076006291e-05,
     1.271232557394629e-07, 5.427167143766513e-09, -1.7747227201048338e-10, -3.0880078041978153e-13),
    (-1.0229772968457675, 0.04267005062328843, -0.00010380050451347656, -1.0949726140591398e-05,
     1.5158626470073063e-07, 4.357345516984237e-09, -1.7949504983282713e-10, 7.806827424641821e-13),
    (-0.9804218406882375, 0.04243022749612139, -0.0001356992679210028, -1.0303370066053149e-05,
     1.7070795846147517e-07, 3.2979232785556556e-09, -1.7388578123681627e-10, 1.6196541638687218e-12),
    (-0.9381374419964875, 0.04212861713955494, -0.00016555472540741854, -9.590979930123082e-06,
     1.8464604068260613e-07, 2.2894341000446546e-09, -1.6241090337784824e-10, 2.209958219111262e-12),
    (-0.8961837837869963, 0.041769483821287604, -0.00019319928436519832, -8.832672236207253e-06,
     1.9373445340136077e-07, 1.361877635789713e-09, -1.4681966971522707e-10, 2.5722408487241636e-12),
    (-0.8546161369702264, 0.041357368120138197, -0.00021852342385344419, -8.046961983567317e-06,
     1.9843162255164918e-07, 5.352075989295273e-10, -1.2871294881781456e-10, 2.738754869142649e-12),
    (-0.8134851403950693, 0.040896976035902415, -0.00024147024117197814, -7.250361818215823e-06,
     1.9927285992766567e-07, -1.7954264352267324e-10, -1.0946270854503061e-10, 2.747194584290047e-12),
    (-0.7728366859755553, 0.04039308002428431, -0.00026202906914212583, -6.4571589252507e-06,
     1.9682938501896702e-07, -7.78778938526741e-10, -9.01747692460389e-11, 2.6359353222350566e-12),
    (-0.7327118962162711, 0.03985043331027243, -0.000280228654663439, -5.679340443969954e-06,
     1.9167514460949613e-07, -1.2647397037180218e-09, -7.168484294743223e-11, 2.440735171606867e-12),
    (-0.6931471805599453, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0),
)


@functools.lru_cache(maxsize=None)
def _normal_log_sf_columns() -> Tuple[np.ndarray, ...]:
    """The table's columns c_0 .. c_7 as read-only contiguous arrays."""
    import numpy as np

    columns = np.array(_NORMAL_LOG_SF_TABLE).T.copy()
    columns.flags.writeable = False
    return tuple(columns)


def _normal_log_sf_array(x: np.ndarray) -> np.ndarray:
    """log Q(x) over a float array, numpy only: within 4 ulp for x > 0 and
    1e-14 relative for x <= 0 (tests/test_catalog.py, against mpmath).

    With w = z/2 = x/sqrt 8 and 1/t = 1 + w, log Q = P(t) - log1p(w) - x^2/2
    for x > 0, every term <= 0 and x^2 rounded once.  For x <= 0,
    log Q = log1p(-q) with q = Q(|x|) = e^P e^(-x^2/2) / (1 + w), and
    e^(-x^2/2) from exactly split squares as in ``_normal_pdf``.
    """
    import numpy as np

    lowest = x.min() if x.size else math.inf
    if math.isnan(lowest):
        # log Q = NaN there, which T saturates to -inf as for every model;
        # a NaN must not reach the table index below
        out = np.full(x.shape, math.nan)
        known = ~np.isnan(x)
        out[known] = _normal_log_sf_array(x[known])
        return out
    columns = _normal_log_sf_columns()
    any_neg = lowest <= 0.0
    # few live temporaries, updated in place: each one more of a large grid
    # is memory the allocator hands back and takes again on every call
    w = np.abs(x) if any_neg else x.copy()
    w *= 0.5 * _SQRT1_2
    u = w + 1.0
    np.divide(_NORMAL_LOG_SF_PIECES, u, out=u)
    k = u.astype(np.intp)  # u > 0: truncation is the floor
    u -= k
    p = columns[-1].take(k)
    c = np.empty_like(p)
    for column in columns[-2::-1]:
        p *= u
        p += column.take(k, out=c, mode="clip")  # k is in range: no checked copy
    if any_neg:
        neg = x <= 0.0
        a = np.minimum(-x[neg], 40.0)  # Q(40) < 1e-349: q = 0 from there
        ah = (a + _SPLITTER) - _SPLITTER
        q = np.exp(-0.5 * ah * ah) * np.exp(p[neg] - 0.5 * (a - ah) * (a + ah)) / (w[neg] + 1.0)
    p -= np.log1p(w, out=w)
    np.multiply(x, 0.5, out=u)
    with np.errstate(over="ignore"):  # x^2/2 past the doubles: log Q = -inf
        u *= x
    p -= u
    if any_neg:
        p[neg] = np.log1p(-q)
    return p


def normal() -> WeibullTypeModel:
    """Standard Normal (reference theta = 1/2).

    The scalar tail comes from libm's erfc (``_normal_sf``) and the hazard
    from a Mills-ratio continued fraction (``_normal_hazard``), both
    accurate to a few ulp arbitrarily deep in the tail; the hazard
    derivatives use the Mills-ratio recurrence h' = h(h - x).  The array
    log sf of the error curves is a numpy piecewise polynomial
    (``_normal_log_sf_array``); no code path loads scipy.
    """

    def hazard_block(x: float) -> Tuple[float, float, float, float]:
        if x < 50.0:
            h, u = _normal_hazard(x)
            h1 = h * u
            h2 = h1 * u + h * (h1 - 1.0)
            h3 = h2 * u + 2.0 * h1 * (h1 - 1.0) + h * h2
            return h, h1, h2, h3
        # The recurrence cancels in h' - 1 for large x; all four orders come
        # from the inverse-Mills asymptotic series instead (relative
        # truncation ~3e-9 at x = 50, O(x^-8) beyond).
        v = 1.0 / (x * x)
        h = x + _normal_hazard_excess(x)
        h1 = 1.0 - v * (1.0 - v * (6.0 - v * (50.0 - 518.0 * v)))
        h2 = (2.0 - v * (24.0 - v * (300.0 - 4144.0 * v))) * v / x
        h3 = -(6.0 - v * (120.0 - v * (2100.0 - 37296.0 * v))) * v * v
        return h, h1, h2, h3

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=0.5,
        label="normal",
        support_lower=-math.inf,
        classical_cdf=lambda x: _normal_sf(-x),
        classical_density=_normal_pdf,
        classical_log_cdf=lambda x: _normal_log_sf(-x),
        classical_log_sf=_normal_log_sf,
        classical_log_pdf=lambda x: -0.5 * x * x - _LOG_SQRT_2PI,
        hazard_derivs=hazard_block,
        classical_log_sf_array=_normal_log_sf_array,
    )


def exponential() -> WeibullTypeModel:
    """Standard Exponential (theta = 1; excluded from asymptotics)."""

    def hazard_block(x: float) -> Tuple[float, float, float, float]:
        return 1.0, 0.0, 0.0, 0.0

    def log_sf_array(x: np.ndarray) -> np.ndarray:
        import numpy as np

        return numerics.piecewise(x > 0.0, np.negative, 0.0, x)

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label="exponential",
        support_lower=0.0,
        classical_cdf=lambda x: -math.expm1(-x) if x > 0.0 else 0.0,
        classical_density=lambda x: math.exp(-x) if x > 0.0 else 0.0,
        classical_log_cdf=lambda x: math.log(-math.expm1(-x)) if x > 0.0 else -math.inf,
        classical_log_sf=lambda x: -x if x > 0.0 else 0.0,
        classical_log_pdf=lambda x: -x if x > 0.0 else -math.inf,
        hazard_derivs=hazard_block,
        classical_log_sf_array=log_sf_array,
    )


def logistic() -> WeibullTypeModel:
    """Standard Logistic (theta = 1; excluded from asymptotics)."""

    def F(x: float) -> float:
        return 1.0 / (1.0 + math.exp(-x)) if x > -500.0 else math.exp(x)

    def log_sf(x: float) -> float:
        if x >= 0.0:
            return -x - math.log1p(math.exp(-x))
        return -math.log1p(math.exp(x))

    def log_sf_right(x: np.ndarray) -> np.ndarray:
        """-x - log1p(e^-x), for x >= 0."""
        import numpy as np

        out = np.negative(x)
        e = np.exp(out)
        np.log1p(e, out=e)
        out -= e
        return out

    def log_sf_left(x: np.ndarray) -> np.ndarray:
        """-log1p(e^x), for x < 0."""
        import numpy as np

        out = np.exp(x)
        np.log1p(out, out=out)
        return np.negative(out, out=out)

    def log_sf_array(x: np.ndarray) -> np.ndarray:
        return numerics.piecewise(x >= 0.0, log_sf_right, log_sf_left, x)

    def hazard_block(x: float) -> Tuple[float, float, float, float]:
        h = F(x)
        h1 = h * math.exp(log_sf(x))  # F * (1 - F), stable for large x
        h2 = h1 * (1.0 - 2.0 * h)
        h3 = h2 * (1.0 - 2.0 * h) - 2.0 * h1 * h1
        return h, h1, h2, h3

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label="logistic",
        support_lower=-math.inf,
        classical_cdf=F,
        classical_density=lambda x: F(x) * math.exp(log_sf(x)),
        classical_log_cdf=lambda x: log_sf(-x),
        classical_log_sf=log_sf,
        classical_log_pdf=lambda x: log_sf(x) + log_sf(-x),
        hazard_derivs=hazard_block,
        classical_log_sf_array=log_sf_array,
    )


def _log1mexp_array(v: np.ndarray) -> np.ndarray:
    """:func:`numerics.log1mexp` over an array."""
    return numerics.piecewise(v > -_LN2, _log_neg_expm1, _log1p_neg_exp, v)


def _log_neg_expm1(v: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.expm1(v)
    np.negative(out, out=out)
    return np.log(out, out=out)


def _log1p_neg_exp(v: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.exp(v)
    np.negative(out, out=out)
    return np.log1p(out, out=out)


def _until_converged(steps: range, advance: Callable[[int, list], Optional[np.ndarray]],
                     state: list) -> np.ndarray:
    """Run ``advance(i, state)`` for i in ``steps`` on the points not yet
    converged and return ``state[0]`` as it stood at each point's
    converging step (after the last step for the rest).

    ``state`` holds arrays over the live points that ``advance`` updates in
    place; it returns the mask of the points that converged at step i, or
    None when none did.  The live set is compacted only on steps where some
    point converged, and the loop stops once every point has.  The list is
    emptied on return, which frees the arrays it alone holds.
    """
    import numpy as np

    out, live = None, None  # live None: every point, in order
    for i in steps:
        done = advance(i, state)
        if done is None:
            continue
        if done.all():
            break
        if out is None:
            out, live = np.empty_like(state[0]), np.arange(done.size)
        out[live[done]] = state[0][done]
        keep = ~done
        live = live[keep]
        state[:] = [v[keep] for v in state]
    if out is None:
        out = state[0]
    else:
        out[live] = state[0]
    state.clear()
    return out


def _clamp_tiny(v: np.ndarray, scratch: np.ndarray) -> None:
    """Lentz's guard: entries of v with |v| < _LENTZ_TINY become _LENTZ_TINY."""
    import numpy as np

    # fmin skips NaN, as the comparison does; v >= _LENTZ_TINY everywhere,
    # the usual case, needs no |v|
    if np.fmin.reduce(v) >= _LENTZ_TINY:
        return
    np.abs(v, out=scratch)
    v[scratch < _LENTZ_TINY] = _LENTZ_TINY


def gamma_model(shape: float = 2.0) -> WeibullTypeModel:
    """Gamma(shape) with unit scale (theta = 1; excluded from asymptotics).

    shape = 1 collapses to the Exponential; the interesting members here
    have shape != 1 (their penultimate index decays like 1/log^2 n rather
    than 1/n, one reason the theta = 1 row is not treated uniformly).

    The regularized incomplete gammas P and Q are evaluated in log space:
    the power series for P below x = shape + 1 and the continued fraction
    for Gamma(shape, x) above (DLMF 8.7.1, §8.9), so log Q stays finite
    arbitrarily deep in the tail.
    """
    if not _GAMMA_MIN_SHAPE <= shape <= _GAMMA_MAX_SHAPE:
        raise ValueError(f"shape must be in [{_GAMMA_MIN_SHAPE:g}, {_GAMMA_MAX_SHAPE:g}]")
    a = shape
    lga = math.lgamma(a)
    lga1 = math.lgamma(a + 1.0)
    x_large = max(_GAMMA_LARGE_X, 2.0 * a)

    def log_pdf(x: float) -> float:
        if x > 0.0:
            return (a - 1.0) * math.log(x) - x - lga
        if x == 0.0 and a <= 1.0:
            return 0.0 if a == 1.0 else math.inf
        return -math.inf

    def tail(x: float) -> Tuple[float, float, float]:
        """(log P(a, x), log Q(a, x), hazard f/Q)."""
        if x <= 0.0:
            return -math.inf, 0.0, math.exp(log_pdf(x))
        if x < a + 1.0:
            # P = x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a + 1) ... (a + n))
            term = total = 1.0
            ap = a
            for _ in range(_GAMMA_MAX_TERMS):
                ap += 1.0
                term *= x / ap
                total += term
                if term <= _EPS * total:
                    break
            log_p = a * math.log(x) - x - lga1 + math.log(total)
            log_q = numerics.log1mexp(log_p)
            return log_p, log_q, math.exp(log_pdf(x) - log_q)
        if x == math.inf:
            return 0.0, -math.inf, 1.0
        # Gamma(a, x) = e^-x x^a cf, cf by the modified Lentz algorithm;
        # the hazard x^(a-1) e^-x / Gamma(a, x) is then 1 / (x cf) exactly.
        b = x + 1.0 - a
        c = 1.0 / _LENTZ_TINY
        d = 1.0 / b
        cf = d
        for i in range(1, _GAMMA_MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _LENTZ_TINY:
                d = _LENTZ_TINY
            c = b + an / c
            if abs(c) < _LENTZ_TINY:
                c = _LENTZ_TINY
            d = 1.0 / d
            delta = d * c
            cf *= delta
            if abs(delta - 1.0) <= _EPS:
                break
        log_q = a * math.log(x) - x - lga + math.log(cf)
        return numerics.log1mexp(log_q), log_q, 1.0 / (x * cf)

    def scaled_log(x: np.ndarray, s: np.ndarray, log_norm: float) -> np.ndarray:
        """a log x - x - log_norm + log s, in the storage of s (consumed)."""
        import numpy as np

        r = np.log(x)
        r *= a
        r -= x
        r -= log_norm
        np.log(s, out=s)
        s += r
        return s

    def series(x: np.ndarray) -> np.ndarray:
        """log Q = log(1 - P) below x = a + 1, P by its power series."""
        import numpy as np

        ap = a

        def step(_, state):
            nonlocal ap
            tot, term, xl, scratch = state
            ap += 1.0
            np.divide(xl, ap, out=scratch)
            term *= scratch
            tot += term
            np.multiply(tot, _EPS, out=scratch)
            done = term <= scratch
            return done if done.any() else None

        state = [np.ones_like(x), np.ones_like(x), x, np.empty_like(x)]
        total = _until_converged(range(_GAMMA_MAX_TERMS), step, state)
        return _log1mexp_array(scaled_log(x, total, lga1))

    def continued_fraction(x: np.ndarray) -> np.ndarray:
        """log Q = log Gamma(a, x) - log Gamma(a) from x = a + 1 on, by the
        modified Lentz algorithm as in ``tail``."""
        import numpy as np

        def step(i, state):
            cf, b, c, d, scratch = state
            an = -i * (i - a)
            b += 2.0
            d *= an
            d += b
            _clamp_tiny(d, scratch)
            np.divide(an, c, out=c)
            c += b
            _clamp_tiny(c, scratch)
            np.divide(1.0, d, out=d)
            delta = np.multiply(d, c, out=scratch)
            cf *= delta
            delta -= 1.0
            np.abs(delta, out=delta)
            # fmin skips NaN, as the comparison does
            return delta <= _EPS if np.fmin.reduce(delta) <= _EPS else None

        b = np.add(x, 1.0)
        b -= a
        d = np.divide(1.0, b)
        state = [d.copy(), b, np.full_like(x, 1.0 / _LENTZ_TINY), d, np.empty_like(x)]
        del b, d  # the state list alone holds them
        cf = _until_converged(range(1, _GAMMA_MAX_TERMS), step, state)
        return scaled_log(x, cf, lga)

    def outside(x: np.ndarray) -> np.ndarray:
        """log Q outside (0, inf): 0 at and below x = 0, -inf at x = inf."""
        import numpy as np

        return np.where(x == math.inf, -math.inf, 0.0)

    def log_sf_array(x: np.ndarray) -> np.ndarray:
        """log Q(a, x) over an array: ``tail``'s series and continued
        fraction, each point stopped at the step where ``tail`` stops;
        0 at and below x = 0 and -inf at x = inf."""
        return numerics.piecewise(
            (x > 0.0) & (x < math.inf),
            lambda x: numerics.piecewise(x < a + 1.0, series, continued_fraction, x),
            outside,
            x,
        )

    def hazard_block(x: float) -> Tuple[float, float, float, float]:
        if x < x_large:
            x3 = x**3
            if x3 == 0.0:  # x^3 underflowed, so 1/x^3 is past the double range
                raise OverflowError(f"1/x^3 past the double range at x={x!r}")
            h = tail(x)[2]
            psi = (a - 1.0) / x - 1.0  # f'/f
            psi1 = -(a - 1.0) / (x * x)
            psi2 = 2.0 * (a - 1.0) / x3
            h1 = h * (psi + h)
            h2 = h1 * (psi + h) + h * (psi1 + h1)
            h3 = h2 * (psi + h) + 2.0 * h1 * (psi1 + h1) + h * (psi2 + h2)
            return h, h1, h2, h3
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
        return h, h1, h2, h3

    return WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label=f"gamma(shape={shape:g})",
        support_lower=0.0,
        classical_cdf=lambda x: math.exp(tail(x)[0]),
        classical_density=lambda x: math.exp(log_pdf(x)),
        classical_log_cdf=lambda x: tail(x)[0],
        classical_log_sf=lambda x: tail(x)[1],
        classical_log_pdf=log_pdf,
        hazard_derivs=hazard_block,
        classical_log_sf_array=log_sf_array,
    )


class CatalogEntry(NamedTuple):
    name: str
    build: Callable[..., WeibullTypeModel]
    params: Tuple[str, ...]
    family: str
    theta_reference: str
    theta_is_one: bool


CATALOG: Dict[str, CatalogEntry] = {
    "pure-weibull": CatalogEntry(
        name="pure-weibull",
        build=pure_weibull,
        params=("theta", "alpha", "scale"),
        family=Family.TAIL_EXP.value,
        theta_reference="theta = 1/alpha",
        theta_is_one=False,
    ),
    "extended-weibull": CatalogEntry(
        name="extended-weibull",
        build=extended_weibull,
        params=("beta", "delta"),
        family=Family.TAIL_EXP.value,
        theta_reference="theta = 1/beta",
        theta_is_one=False,
    ),
    "normal": CatalogEntry(
        name="normal",
        build=normal,
        params=(),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1/2",
        theta_is_one=False,
    ),
    "exponential": CatalogEntry(
        name="exponential",
        build=exponential,
        params=(),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1",
        theta_is_one=True,
    ),
    "logistic": CatalogEntry(
        name="logistic",
        build=logistic,
        params=(),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1",
        theta_is_one=True,
    ),
    "gamma": CatalogEntry(
        name="gamma",
        build=gamma_model,
        params=("shape",),
        family=Family.CLASSICAL.value,
        theta_reference="theta = 1",
        theta_is_one=True,
    ),
    "gumbel-fixture": CatalogEntry(
        name="gumbel-fixture",
        build=gumbel_fixture,
        params=(),
        family=Family.LOG_CDF_EXP.value,
        theta_reference="theta = 1 (exact Gumbel)",
        theta_is_one=True,
    ),
}


def build_model(name: str, **params: float) -> WeibullTypeModel:
    """Resolve a catalog name and construct the model, validating params."""
    entry = CATALOG.get(name)
    if entry is None:
        raise KeyError(f"unknown model {name!r}; available: {', '.join(sorted(CATALOG))}")
    unknown = set(params) - set(entry.params)
    if unknown:
        raise ValueError(
            f"model {name!r} does not take parameter(s) {sorted(unknown)}; allowed: {list(entry.params)}"
        )
    return entry.build(**params)
