"""Everything weibtail computes over numpy arrays: the array pass of the
error curves and the array forms of the built-in models.

This is the one module that imports numpy, and no other module imports it
at load time.  It holds only what the library calls, reached lazily from
two places: the array branch of ``penultimate._curve`` (:func:`curve`, for
grids of more than 1000 points), and the forms that
:func:`weibtail.slowly_varying.array_form` builds, which the stock slowly
varying functions and the catalog models hand out as ``value_array`` and
``classical_log_sf_array``.  A process that never takes the array pass
never loads numpy.

Each kernel is its scalar twin's formula over a float array.  A constant
the two share is defined once, in the scalar module, and imported here.
A kernel never writes into its arguments: it allocates its own result
and runs its ufunc chain in that storage with ``out=``.  The one state is
:func:`grid_terms`'s memo of the last grid's points, G_0 and g_0.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .catalog import _EPS, _GAMMA_MAX_TERMS, _LENTZ_TINY, _LN2, _SPLITTER, _SQRT1_2
from .model import Family, WeibullTypeModel, array_form_of, constant_l_value
from .numerics import _SERIES_SWITCH, _T_EQUALS_H
from .penultimate import _GEV_SERIES_GAMMA, _GEV_SERIES_T, REMAINDER_DENOMINATOR_CUTOFF, _Curve

ArrayFormula = Callable[..., np.ndarray]
# the positive finite doubles, 0 < a < inf, as bounds of within()
_POSITIVE = (math.ulp(0.0), np.finfo(float).max)


def within(a: np.ndarray, lo: float, hi: float = math.inf) -> np.ndarray:
    """Where lo <= a <= hi: np.True_ when the min (and, for a finite hi, the
    max) of ``a`` shows that it holds at every point, else the mask.  A NaN
    fails every comparison, so it gets the mask."""
    if not a.size or (lo <= a.min() and (hi == math.inf or a.max() <= hi)):
        return np.True_
    mask = a >= lo
    if hi < math.inf:
        mask &= a <= hi
    return mask


def piecewise(mask: np.ndarray, formula: ArrayFormula,
              otherwise: Union[ArrayFormula, float], *arrays: np.ndarray) -> np.ndarray:
    """``formula(*arrays)`` where ``mask`` holds, ``otherwise`` elsewhere.

    Each formula maps float arrays of equal shape to a new array and never
    writes into its arguments; ``otherwise`` may be a constant fill
    instead.  ``mask`` is a boolean array or, from :func:`within`, one
    numpy bool for all the points.  A formula sees only its own points: the
    arrays themselves when ``mask`` is uniform, slices when it is one run
    of True at either end (a regime test on an ascending grid), so neither
    pays a gather or a scatter.  Every point goes through the same
    operations either way.
    """
    n_true = mask.size if mask is np.True_ else np.count_nonzero(mask)
    if n_true == mask.size:
        return formula(*arrays)
    if callable(otherwise) and not n_true:
        return otherwise(*arrays)
    out = np.empty(mask.shape) if callable(otherwise) else np.full(mask.shape, otherwise)
    if n_true:  # mixed: n_true leading or trailing True rows can only be one point each
        where, elsewhere = mask, ~mask
        if mask[:n_true].all():
            where, elsewhere = slice(n_true), slice(n_true, None)
        elif mask[-n_true:].all():
            where, elsewhere = slice(-n_true, None), slice(-n_true)
        out[where] = formula(*(a[where] for a in arrays))
        if callable(otherwise):
            out[elsewhere] = otherwise(*(a[elsewhere] for a in arrays))
    return out


# -log(-log F) from H: numerics.log_neg_log_cdf_from_H over arrays


def _log_neg_log_closed(h: np.ndarray) -> np.ndarray:
    """-log(-log(-expm1(-H))), below the series switch."""
    out = np.negative(h)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return np.negative(out, out=out)


def _log_neg_log_series(h: np.ndarray) -> np.ndarray:
    """H - log1p(s/2 + s^2/3 + s^3/4 + s^4/5), s = e^-H, from the switch on."""
    s = np.negative(h)
    np.exp(s, out=s)
    out = np.multiply(s, 0.2)
    for coef in (0.25, 1.0 / 3.0, 0.5):
        out += coef
        out *= s
    np.log1p(out, out=out)
    return np.subtract(h, out, out=out)


# Value forms of the stock slowly varying functions


def _constant_value_array(x: np.ndarray, c: float) -> np.ndarray:
    return np.full_like(x, c)


def _log_power_value_array(x: np.ndarray, beta: float) -> np.ndarray:
    return np.log(x) ** beta


def _log_shift_value_array(x: np.ndarray, c: float, d: float) -> np.ndarray:
    return c + d / np.log(x)


# Log survival forms of the catalog's classical models

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


# the table's columns c_0 .. c_7 as the read-only contiguous rows of one array
_NORMAL_LOG_SF_COLUMNS = np.array(_NORMAL_LOG_SF_TABLE).T.copy()
_NORMAL_LOG_SF_COLUMNS.flags.writeable = False


def _normal_log_sf_array(x: np.ndarray) -> np.ndarray:
    """log Q(x) over a float array, numpy only: within 4 ulp for x > 0 and
    1e-14 relative for x <= 0 (tests/test_catalog.py, against mpmath).

    With w = z/2 = x/sqrt 8 and 1/t = 1 + w, log Q = P(t) - log1p(w) - x^2/2
    for x > 0, every term <= 0 and x^2 rounded once.  For x <= 0,
    log Q = log1p(-q) with q = Q(|x|) = e^P e^(-x^2/2) / (1 + w), and
    e^(-x^2/2) from exactly split squares as in ``catalog._normal_pdf``.
    """
    lowest = x.min() if x.size else math.inf
    if math.isnan(lowest):
        # log Q = NaN there, which T saturates to -inf as for every model;
        # a NaN must not reach the table index below
        out = np.full(x.shape, math.nan)
        known = ~np.isnan(x)
        out[known] = _normal_log_sf_array(x[known])
        return out
    columns = _NORMAL_LOG_SF_COLUMNS
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


def _exponential_log_sf_array(x: np.ndarray) -> np.ndarray:
    return piecewise(x > 0.0, np.negative, 0.0, x)


def _logistic_log_sf_array(x: np.ndarray) -> np.ndarray:
    return piecewise(x >= 0.0, _logistic_log_sf_right, _logistic_log_sf_left, x)


def _logistic_log_sf_right(x: np.ndarray) -> np.ndarray:
    """-x - log1p(e^-x), for x >= 0."""
    out = np.negative(x)
    e = np.exp(out)
    np.log1p(e, out=e)
    out -= e
    return out


def _logistic_log_sf_left(x: np.ndarray) -> np.ndarray:
    """-log1p(e^x), for x < 0."""
    out = np.exp(x)
    np.log1p(out, out=out)
    return np.negative(out, out=out)


def _log1mexp_array(v: np.ndarray) -> np.ndarray:
    """:func:`numerics.log1mexp` over an array."""
    return piecewise(v > -_LN2, _log_neg_expm1, _log1p_neg_exp, v)


def _log_neg_expm1(v: np.ndarray) -> np.ndarray:
    out = np.expm1(v)
    np.negative(out, out=out)
    return np.log(out, out=out)


def _log1p_neg_exp(v: np.ndarray) -> np.ndarray:
    out = np.exp(v)
    np.negative(out, out=out)
    return np.log1p(out, out=out)


def _until_converged(steps: range, advance: Callable[[int, list], Optional[np.ndarray]],
                     state: list) -> np.ndarray:
    """Run ``advance(i, state)`` for i in ``steps`` and return ``state[0]``
    as it stood at each point's first converging step (after the last step
    for the points that never converge).

    ``state`` holds arrays that ``advance`` updates in place; it returns
    a new mask of the points that meet the stopping test at step i (the
    loop keeps the first one), or None.  One rule retires points: the live
    points are one slice of the arrays, ``advance`` sees views of it, and
    after each step the slice shrinks past the converged points at either
    end (on an ascending grid the series converges from small x, the
    continued fraction from large x).  A point left behind is never
    touched again, so it keeps its state of that step without a copy.  A
    converged point inside the slice keeps iterating, but nothing reads
    it: once the first such point exists, ``state[0]`` becomes a copy of
    the live slice of the result, and each point is written out at its
    first converging step.  The loop stops once every point has
    converged, and empties the list, freeing what it alone holds.
    """
    # out: the live slice of result, once state[0] is a copy; ever: the
    # live points that have converged
    result, out, ever = state[0], None, None
    for i in steps:
        done = advance(i, state)
        if done is None:
            continue
        if ever is None:
            ever = done
        else:
            done = np.greater(done, ever)  # converging first at this step
            ever |= done
        if out is not None:
            np.copyto(out, state[0], where=done)
        first = int(ever.argmin())
        if ever[first]:
            break
        last = ever.size - int(ever[::-1].argmin())
        if first or last < ever.size:
            state[:] = [v[first:last] for v in state]
            ever = ever[first:last]
            if out is not None:
                out = out[first:last]
        if out is None and ever.any():
            out, state[0] = state[0], state[0].copy()
    else:
        if out is not None:
            np.copyto(out, state[0], where=~ever)
    state.clear()
    return result


def _gamma_log_sf_array(x: np.ndarray, a: float) -> np.ndarray:
    """log Q(a, x) over an array: the series and continued fraction of
    ``catalog.gamma_model``'s scalar ``log_sf``, each point stopped at the
    step where the scalar loop stops; 0 at and below x = 0 and -inf at
    x = inf."""

    def inside(x: np.ndarray) -> np.ndarray:
        return piecewise(x < a + 1.0, lambda x: _gamma_series(x, a),
                         lambda x: _gamma_continued_fraction(x, a), x)

    return piecewise(within(x, *_POSITIVE), inside, _gamma_outside, x)


def _gamma_scaled_log(x: np.ndarray, s: np.ndarray, a: float, log_norm: float) -> np.ndarray:
    """a log x - x - log_norm + log s, in the storage of s (consumed)."""
    r = np.log(x)
    r *= a
    r -= x
    r -= log_norm
    np.log(s, out=s)
    s += r
    return s


def _gamma_series(x: np.ndarray, a: float) -> np.ndarray:
    """log Q = log(1 - P) below x = a + 1, P by its power series.  On an
    ascending grid the points converge from small x, so ``_until_converged``
    trims the live slice at its low end and mostly needs no copy."""
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
    return _log1mexp_array(_gamma_scaled_log(x, total, a, math.lgamma(a + 1.0)))


def _gamma_continued_fraction(x: np.ndarray, a: float) -> np.ndarray:
    """log Q = log Gamma(a, x) - log Gamma(a) from x = a + 1 on, by the
    modified Lentz algorithm as in ``catalog.gamma_model``'s
    ``continued_fraction``, without Lentz's guard: for x >= a + 1 the
    denominators D_i and C_i stay above (1 - 1e-12) max(2, i + 1) (the
    argument is at the scalar loop), far from the 1e-300 at which the
    guard would act.  On an ascending grid
    the points converge from large x, so ``_until_converged`` trims the
    live slice at its high end; rounding scatters the step at which
    |delta - 1| <= eps first holds, and a point that converges inside the
    slice is written out then and iterates on unread."""

    def step(i, state):
        cf, b, c, d, scratch = state
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        np.divide(an, c, out=c)
        c += b
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
    return _gamma_scaled_log(x, cf, a, math.lgamma(a))


def _gamma_outside(x: np.ndarray) -> np.ndarray:
    """log Q outside (0, inf): 0 at and below x = 0, -inf at x = inf."""
    return np.where(x == math.inf, -math.inf, 0.0)


# T = -log(-log F) over arrays: model.gumbel_coordinate, saturated


def gumbel_coordinate_array(model: WeibullTypeModel, xs: np.ndarray) -> np.ndarray:
    """T(x) = -log(-log F(x)) over an array, saturated rather than raising:
    -inf where F = 0 (below the support or the slowly varying domain, a
    non-positive l, or H <= 0) and +inf where F = 1 at double precision.

    In the LOG_CDF_EXP family T = H, so H = 0 at the support endpoint is a
    finite T = 0.  The model needs an array form (``model.array_form_of``);
    the error curves of the rest take the scalar
    ``model._saturated_coordinate`` point by point.  ``xs`` is only read,
    and the result is always a new array.
    """
    with np.errstate(over="ignore"):  # z^c past the doubles: H = inf
        return _coordinate(model, xs)


def _coordinate(model: WeibullTypeModel, xs: np.ndarray) -> np.ndarray:
    """:func:`gumbel_coordinate_array` inside the caller's floating-point context.

    One min and one max of H decide its regime: T = H from H = 40, and
    on H positive and finite, the series or the closed form when every
    point lies on one side of the switch.  A NaN or an H outside (0, inf)
    takes masks: that one, then the switch's on the points inside."""
    array_form = array_form_of(model)
    if model.family is Family.CLASSICAL:
        h = np.negative(array_form(xs))
    else:
        # H = -inf where F = 0; support_lower >= l.domain_lower, so l is
        # only asked for points in its domain
        c = 1.0 / model.theta
        hazard = lambda z: _tail_hazard(z, array_form(z), c)
        if model.l.is_constant:  # z^c times the one value of l
            l_value = constant_l_value(model)
            valid = 0.0 < l_value < math.inf
            hazard = (lambda z: _power_times(z, l_value, c)) if valid else _saturate
        h = piecewise(within(xs, model.support_lower), hazard, -math.inf, xs)
        if model.family is Family.LOG_CDF_EXP:
            return h
    if not h.size:
        return h
    lowest = h.min()  # NaN if any point is
    if lowest >= _T_EQUALS_H:
        return h  # T = H to the bit, and +inf where H = +inf
    highest = h.max()
    if not (_POSITIVE[0] <= lowest and highest <= _POSITIVE[1]):
        inside = lambda h: piecewise(within(h, _SERIES_SWITCH), _log_neg_log_series, _log_neg_log_closed, h)
        # the mask within(h, *_POSITIVE) would build, without its min
        return piecewise((h > 0.0) & (h < math.inf), inside, _saturate, h)
    if lowest >= _SERIES_SWITCH:
        return _log_neg_log_series(h)
    if highest < _SERIES_SWITCH:
        return _log_neg_log_closed(h)
    return piecewise(h >= _SERIES_SWITCH, _log_neg_log_series, _log_neg_log_closed, h)


def _tail_hazard(z: np.ndarray, l: np.ndarray, c: float) -> np.ndarray:
    """H(z) = z^c l for z in the support and l = l(z), -inf where l is not
    finite and positive, but +inf at z = +inf."""
    return piecewise(within(l, *_POSITIVE), lambda z, l: _power_times(z, l, c),
                     lambda z, l: _saturate(z), z, l)


def _power_times(z: np.ndarray, l: np.ndarray, c: float) -> np.ndarray:
    h = np.power(z, c)
    h *= l
    return h


def _saturate(h: np.ndarray) -> np.ndarray:
    """T for H outside (0, inf): +inf where H = inf (F = 1), else -inf (F = 0)."""
    return np.where(h == math.inf, math.inf, -math.inf)


# The error curve over a grid array: penultimate._scalar_curve's twin


def grid(grid_spec: Tuple[float, float, int]) -> np.ndarray:
    """The checked grid as a new array: ``penultimate._linspace``'s steps
    over ``np.arange``, so ``np.linspace`` bit for bit without its per-call
    overhead."""
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


_GRID_TERMS: dict = {}  # the last grid spec's terms, keyed on its repr: its ends' exact bits
clear_grid_terms = _GRID_TERMS.clear  # frees the kept terms


def grid_terms(grid_spec: Tuple[float, float, int], points_only: bool = False) -> tuple:
    """(x, G_0, g_0) on the checked grid, read-only, kept for the last spec
    until another spec or ``clear_grid_terms()``; (x,) on a new grid if
    ``points_only``.  G_0 and g_0 take the caller's floating-point context."""
    terms = _GRID_TERMS.get(repr(grid_spec))
    if terms is None:
        _GRID_TERMS.clear()  # the last grid's arrays go before the new ones come
        terms = _GRID_TERMS[repr(grid_spec)] = [grid(grid_spec)]
        terms[0].flags.writeable = False
    if len(terms) == 1 and not points_only:
        density = _neg_exp_neg(terms[0])
        cdf = np.exp(density)
        density -= terms[0]
        np.exp(density, out=density)
        cdf.flags.writeable = density.flags.writeable = False
        terms[1:] = cdf, density  # a concurrent build writes the same bits
    return tuple(terms)


def curve(model: WeibullTypeModel, log_n: float, grid_spec: Tuple[float, float, int],
          b: float, a: float, gamma: float, rate: float) -> _Curve:
    """The error curve over the checked grid ``grid_spec``, in numpy, under
    one floating-point context: overflow to inf is the saturation the
    formulas expect (e^-x past the double range gives G_0 = g_0 = 0)."""
    with np.errstate(over="ignore"):
        xs = grid_terms(grid_spec, points_only=True)[0]
        fn = _maxima(model, log_n, xs, b, a)
        if gamma != 0.0:
            sup_pen, arg_pen, n_clipped = _penultimate_sup(xs, fn, gamma)
        _, cdf, density = grid_terms(grid_spec)  # a new grid's, past F^n's and G_gamma's peak
        diff = np.subtract(fn, cdf, out=fn)  # F^n - G_0, for the remainder and the ultimate sup
        dev = None
        if rate != 0.0:  # at rate 0 every denominator is +-0, below the cutoff
            dev = _remainder_deviation(xs, diff, density, rate)
        i_ult, sup_ult = _argmax_abs(diff)
    arg_ult = float(xs[i_ult])
    if gamma == 0.0:
        # G_gamma's series gives w = x (1 - 0 + 0) = x, so G_gamma is G_0
        # to the bit and clips no point
        sup_pen, arg_pen, n_clipped = sup_ult, arg_ult, 0
    return sup_ult, arg_ult, sup_pen, arg_pen, n_clipped, dev


def _maxima(model: WeibullTypeModel, log_n: float, xs: np.ndarray,
            b: float, a: float) -> np.ndarray:
    """F^n(a x + b) = exp(-e^(log n - T(z))) on the grid, in the caller's
    floating-point context: T = -inf (F = 0) gives 0 and T = +inf (F = 1)
    gives 1, also where z overflows to +/-inf in a huge window."""
    z = np.multiply(xs, a)
    z += b
    # a new array of the coordinate's own: the chain runs in its storage
    t = _coordinate(model, z)
    np.subtract(log_n, t, out=t)
    np.exp(t, out=t)
    np.negative(t, out=t)
    return np.exp(t, out=t)


def _penultimate_sup(xs: np.ndarray, fn: np.ndarray, gamma: float) -> Tuple[float, float, int]:
    """(sup |F^n - G_gamma|, its argmax, n_clipped) over the grid points
    inside the support 1 + gamma x > 0 of G_gamma, which holds some.
    gamma x is formed once, for the support test and for G_gamma."""
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
    np.abs(diff, out=diff)
    i = int(diff.argmax())
    return i, float(diff[i])


def _remainder_deviation(xs: np.ndarray, diff: np.ndarray, density: np.ndarray,
                         rate: float) -> Optional[float]:
    """max |R - 1| with R = (F^n - G_0) / ((x^2/2) rate g_0(x)), rate = k'(b)/k^2(b),
    given ``diff`` = F^n - G_0 and ``density`` = g_0 on the grid, over the
    points where the denominator passes the cutoff; None where it passes
    nowhere.  The ratio is formed in the denominator's storage, masked only
    where some point fails the cutoff.  The denominator is taken with |rate|:
    |den| to the bit, so R - 1 = -(diff/|den| + 1) exactly where rate < 0.
    g_0(x) is 0 beyond |x| = 1e3, so x^2 is taken on the ascending grid
    clipped there: x^2 stays finite in a window wide enough to overflow it,
    and the denominator is 0 there rather than inf * 0."""
    if xs[0] < -1e3 or xs[-1] > 1e3:
        xs = np.clip(xs, -1e3, 1e3)
    den = np.multiply(xs, 0.5)
    den *= xs
    den *= abs(rate)
    den *= density
    # |den| > the cutoff, as the bound within() takes
    where = within(den, math.nextafter(REMAINDER_DENOMINATOR_CUTOFF, 1.0))
    if where is not np.True_ and not where.any():
        return None
    masked = {} if where is np.True_ else {"where": where}
    ratio = np.divide(diff, den, out=den, **masked)
    ratio -= math.copysign(1.0, rate)
    return float(np.maximum.reduce(np.abs(ratio, out=ratio), initial=0.0, **masked))


# The generalized extreme value cdf over arrays


def _gev_cdf(gamma: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """G_gamma(x) = exp(-(1 + gamma x)^(-1/gamma)) over points already
    inside the support, given t = gamma x, whose storage it may reuse.

    With w = log1p(t)/gamma, G_gamma = exp(-e^-w).  Tiny |gamma| takes the
    series w = x(1 - t/2 + t^2/3), continuous through gamma = 0, where |t|
    is small, and the log1p form elsewhere: a window near 1e307 neither
    overflows t^2 nor leaves the series' range."""
    if abs(gamma) < _GEV_SERIES_GAMMA:
        w = piecewise(np.abs(t) < _GEV_SERIES_T, _gev_series,
                      lambda x, t: _gev_log1p(t, gamma), x, t)
        _neg_exp_neg(w, out=w)
        return np.exp(w, out=w)
    v = _gev_log1p(t, -gamma, out=t)  # -w, as a quotient rounds alike for either sign
    np.exp(v, out=v)
    return np.exp(np.negative(v, out=v), out=v)


def _gev_series(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x (1 - t/2 + t^2/3), t = gamma x."""
    w = np.divide(t, 2.0)
    np.subtract(1.0, w, out=w)
    t2 = np.multiply(t, t)
    t2 /= 3.0
    w += t2
    w *= x
    return w


def _gev_log1p(t: np.ndarray, gamma: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """log1p(t) / gamma, t = gamma x, into ``out`` (which may be ``t``) or a new array."""
    out = np.log1p(t, out=out)
    out /= gamma
    return out


def _neg_exp_neg(w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """-e^-w into ``out`` (which may be ``w`` itself) or a new array, inside
    the caller's floating-point context: the exponent of G_0 and of g_0."""
    out = np.negative(w, out=out)
    np.exp(out, out=out)
    return np.negative(out, out=out)
