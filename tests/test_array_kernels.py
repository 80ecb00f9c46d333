"""Array kernels of the error curves: one regime or many, the same bits;
no writes into arrays the library does not own; grid-sized temporaries.

A kernel evaluates a grid that lies in one regime of its formula on the
whole array and a mixed grid through masks.  The parity tests split an
ascending array at each switch and require the result on the whole array
to equal, bit for bit, the concatenation of the results on the pieces,
each of which lies in one regime.
"""

import dataclasses
import importlib.util
import inspect
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import weibtail as wt
from weibtail import arrays, catalog, numerics
from weibtail import model as model_module
from weibtail.errors import WeibtailError
from weibtail.model import Family, KJet, _saturated_coordinate
from weibtail.norming import locate
from weibtail.penultimate import REMAINDER_DENOMINATOR_CUTOFF


def _in_curve_context(fn, *args):
    """``fn(*args)`` in the floating-point context of ``arrays.curve``, where
    overflow to inf is the saturation the formulas expect."""
    with np.errstate(over="ignore"):
        return fn(*args)


def _coordinate(model, xs):
    """T over an array, as ``arrays.curve`` forms it."""
    return _in_curve_context(arrays._coordinate, model, xs)


def _gev_cdf(gamma, xs):
    """G_gamma over points inside its support, as ``arrays.curve`` forms it."""
    return _in_curve_context(arrays._gev_cdf, gamma, xs, np.multiply(xs, gamma))


def _pieces_agree(fn, xs, switches):
    """fn(xs) equals, bit for bit, the concatenation of fn on the pieces of
    the ascending xs cut before the first point >= each switch."""
    cuts = [int(np.searchsorted(xs, s, side="left")) for s in switches]
    assert all(0 < c < xs.size for c in cuts), "each switch must fall inside xs"
    whole = fn(xs)
    parts = np.concatenate([fn(p) for p in np.split(xs, cuts)])
    assert whole.tobytes() == parts.tobytes()
    return whole


def test_log_neg_log_cdf_pieces_at_series_switch():
    h = np.concatenate([np.geomspace(1e-300, 6.9, 300), np.linspace(6.9, 7.1, 201),
                        np.geomspace(7.2, 1e300, 300)])
    h.sort()
    # the exponential's H is x itself, so its T over the grid is T from H = h
    exponential = wt.exponential()
    t_of_h = lambda h: _coordinate(exponential, h)
    whole = _pieces_agree(t_of_h, h, [numerics._SERIES_SWITCH])
    # H = 0 at x <= 0 takes the masks, and the points inside the switch's
    with_outside = t_of_h(np.concatenate([[-1.0, 0.0], h]))
    assert with_outside[2:].tobytes() == whole.tobytes()
    assert with_outside[:2].tolist() == [-math.inf, -math.inf]


@pytest.mark.parametrize("shape", [0.01, 0.5, 1.0, 2.0, 5.0, 100.5])
def test_gamma_log_sf_pieces(shape):
    a = shape
    xs = np.concatenate([[-math.inf, -5.0, -0.0], np.linspace(1e-3, a + 1.0, 400),
                         np.linspace(a + 1.0, 3.0 * a + 60.0, 600)[1:],
                         [1e300, math.inf]])
    xs.sort()
    fn = catalog.gamma_model(shape).classical_log_sf_array
    got = _pieces_agree(fn, xs, [1e-300, a + 1.0, math.inf])
    assert got[0] == got[2] == 0.0 and got[-1] == -math.inf


def _lentz_sweep(a, count):
    """x from a + 1, where the continued fraction starts, to 1e300: the
    first doubles at and above a + 1, then a geometric sweep."""
    start = a + 1.0
    near = [start, math.nextafter(start, math.inf), start * (1.0 + 1e-12), start + 1e-6]
    return np.unique(np.concatenate([near, start * np.geomspace(1.0, 1e300 / start, count)]))


def _lentz_bound(i):
    # the bound catalog.gamma_model's tail states for the rounded D_i and C_i
    return (1.0 - 1e-12) * max(2.0, i + 1.0)


def test_lentz_denominators_array(monkeypatch):
    # the array continued fraction's D_i (held inverted) and C_i stay above
    # the bound, so Lentz's guard against a denominator near 0 cannot act
    seen = []
    until_converged = arrays._until_converged

    def checked(steps, advance, state):
        def step(i, state):
            _, _, c, d, _ = state
            bound = _lentz_bound(i - 1)  # the denominators of the step before
            assert c.min() >= bound and 0.0 < d.min() and d.max() <= 1.0 / bound, (a, i)
            seen.append(i)
            return advance(i, state)

        return until_converged(steps, step, state)

    monkeypatch.setattr(arrays, "_until_converged", checked)
    for a in np.geomspace(1e-14, 1000.0, 60):
        xs = _lentz_sweep(a, 4000)
        assert np.isfinite(arrays._gamma_continued_fraction(xs, a)).all()
    assert max(seen) > 50


def _lentz_function(model):
    # the scalar continued fraction, a closure of the model's log sf
    cell = next(c for c in model.classical_log_sf.__closure__
                if getattr(c.cell_contents, "__name__", "") == "continued_fraction")
    return cell.cell_contents


def test_lentz_denominators_scalar():
    # catalog.gamma_model's scalar continued fraction, traced: at the line
    # that inverts D_i it holds D_i, at the line that forms delta it holds C_i
    lines, first = inspect.getsourcelines(_lentz_function(catalog.gamma_model(2.0)))
    line_of = {text.strip(): first + k for k, text in enumerate(lines)}
    invert, product = line_of["d = 1.0 / d"], line_of["delta = d * c"]
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in (invert, product):
            i = frame.f_locals["i"]
            name = "d" if frame.f_lineno == invert else "c"
            assert frame.f_locals[name] >= _lentz_bound(i), (name, i, frame.f_locals["x"])
            seen.append(i)
        return local

    for a in np.geomspace(1e-14, 1000.0, 25).tolist():
        cf = _lentz_function(catalog.gamma_model(a))

        def tracer(frame, event, arg, code=cf.__code__):
            return local if frame.f_code is code else None

        sys.settrace(tracer)
        try:
            for x in _lentz_sweep(a, 60).tolist():
                assert math.isfinite(cf(x))
        finally:
            sys.settrace(None)
    assert max(seen) > 50



def _reference_gamma_tail(a):
    """catalog.gamma_model's (log Q, hazard) with the loops written as they
    were before each step was trimmed to float operations on locals: the
    reference the scalar gamma code must match bit for bit."""
    _EPS, _LENTZ_TINY, _GAMMA_MAX_TERMS = catalog._EPS, catalog._LENTZ_TINY, catalog._GAMMA_MAX_TERMS
    lga = math.lgamma(a)
    lga1 = math.lgamma(a + 1.0)

    def log_pdf(x):
        if x > 0.0:
            return (a - 1.0) * math.log(x) - x - lga
        if x == 0.0 and a <= 1.0:
            return 0.0 if a == 1.0 else math.inf
        return -math.inf

    def tail(x):
        if x <= 0.0:
            return 0.0, math.exp(log_pdf(x))
        if x < a + 1.0:
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
            return log_q, math.exp(log_pdf(x) - log_q)
        if x == math.inf:
            return -math.inf, 1.0
        b = x + 1.0 - a
        c = 1.0 / _LENTZ_TINY
        d = 1.0 / b
        cf = d
        for i in range(1, _GAMMA_MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            c = b + an / c
            d = 1.0 / d
            delta = d * c
            cf *= delta
            if abs(delta - 1.0) <= _EPS:
                break
        log_q = a * math.log(x) - x - lga + math.log(cf)
        return log_q, 1.0 / (x * cf)

    def hazard_jet(x, m):
        # the recurrence branch of catalog.gamma_model's hazard_derivs, below
        # max(50, 2a): H and the hazard from one tail, and NaN derivatives
        # where F = 0
        log_q, h = tail(x)
        if log_q == 0.0:
            return (-log_q,) + (math.nan,) * m
        x3 = x**3
        if x3 == 0.0:
            raise OverflowError
        psi = (a - 1.0) / x - 1.0
        psi1 = -(a - 1.0) / (x * x)
        psi2 = 2.0 * (a - 1.0) / x3
        h1 = h * (psi + h)
        h2 = h1 * (psi + h) + h * (psi1 + h1)
        h3 = h2 * (psi + h) + 2.0 * h1 * (psi1 + h1) + h * (psi2 + h2)
        return (-log_q, h, h1, h2, h3)[: m + 1]

    return tail, hazard_jet


def _bits(fn, x):
    """float.hex of fn(x), entry by entry, or the exception it raises."""
    try:
        value = fn(x)
    except ArithmeticError as exc:
        return type(exc).__name__
    return [v.hex() for v in value] if isinstance(value, tuple) else value.hex()


@pytest.mark.parametrize("a", np.geomspace(1e-14, 1000.0, 25).tolist())
def test_gamma_scalar_tail_matches_reference(a):
    # log Q and the hazard jet of every order at every x below, in float.hex:
    # the series range, both sides of the switch at a + 1, the continued
    # fraction's sweep, x <= 0, inf and NaN
    start = a + 1.0
    switch, below = [start], [math.nextafter(start, 0.0)]
    for _ in range(4):
        switch.append(math.nextafter(switch[-1], math.inf))
        below.append(math.nextafter(below[-1], 0.0))
    series = [x for x in np.geomspace(1e-300, start, 60).tolist() if x < start]
    series += np.linspace(0.0, start, 41)[1:-1].tolist()
    xs = ([-math.inf, -5.0, -1e-300, -0.0, 0.0, math.inf, math.nan] + series + below + switch
          + _lentz_sweep(a, 60).tolist())
    model = catalog.gamma_model(a)
    tail, hazard_jet = _reference_gamma_tail(a)
    x_large = max(catalog._GAMMA_LARGE_X, 2.0 * a)
    for x in xs:
        assert _bits(model.classical_log_sf, x) == _bits(lambda x: tail(x)[0], x), x
        for m in range(1, 5) if x < x_large else ():
            assert (_bits(lambda x: model.hazard_derivs(x, m), x)
                    == _bits(lambda x: hazard_jet(x, m), x)), (x, m)

@pytest.mark.parametrize("build", [catalog.logistic, catalog.normal, catalog.exponential],
                         ids=["logistic", "normal", "exponential"])
def test_classical_log_sf_pieces_at_zero(build):
    xs = np.concatenate([np.linspace(-40.0, -1e-3, 500), [-0.0, 0.0],
                         np.geomspace(1e-300, 1e3, 500)])
    fn = build().classical_log_sf_array
    # logistic switches at x >= 0, the Normal and the Exponential at x > 0
    cut = 1e-300 if build is not catalog.logistic else -0.0
    _pieces_agree(fn, xs, [cut])


@pytest.mark.parametrize("model", [
    catalog.extended_weibull(2.0),
    catalog.extended_weibull(0.5, 1.0),
    catalog.weibull_type(1.5, wt.slowly_varying.log_shift(1.0, 1.0), support_lower=2.0),
    catalog.gumbel_fixture(),
], ids=["ext-2", "ext-0.5", "log-shift", "gumbel-fixture"])
def test_tail_coordinate_pieces_at_support_endpoint(model):
    lo = model.support_lower
    xs = np.linspace(lo - 3.0, lo + 50.0, 2001)
    if not np.any(xs == lo):
        xs = np.sort(np.append(xs, lo))
    got = _pieces_agree(lambda z: _coordinate(model, z), xs, [lo])
    assert np.all(got[xs < lo] == -math.inf) and np.all(np.isfinite(got[xs >= lo]))


def test_classical_coordinate_pieces():
    # H = -log sf crosses the series switch and saturates at both ends
    model = catalog.gamma_model(2.0)
    xs = np.concatenate([[-1.0, 0.0], np.geomspace(1e-3, 800.0, 3000), [math.inf]])
    coordinate = lambda z: _coordinate(model, z)
    h7 = float(xs[np.argmax(-model.classical_log_sf_array(xs) >= numerics._SERIES_SWITCH)])
    got = _pieces_agree(coordinate, xs, [1e-300, h7, math.inf])
    assert got[0] == got[1] == -math.inf and got[-1] == math.inf


def test_coordinate_wholly_below_series_switch():
    # the Normal on -3..2: H from 0.00135 to 3.78, so the switch's mask is
    # all False and the closed form takes every point
    model = catalog.normal()
    xs = np.linspace(-3.0, 2.0, 5001)
    h = -model.classical_log_sf_array(xs)
    assert 0.0 < h.min() and h.max() < numerics._SERIES_SWITCH
    want = _in_curve_context(arrays._log_neg_log_closed, h)
    assert _coordinate(model, xs).tobytes() == want.tobytes()


def _catalog_model(name):
    required = {"pure-weibull": {"theta": 2.0}, "extended-weibull": {"beta": 2.0}}
    return wt.build_model(name, **required.get(name, {}))


@pytest.mark.parametrize("name", sorted(wt.CATALOG))
def test_nan_point_saturates_to_minus_inf(name):
    # NaN reads as F = 0 on every model, without a warning, and the other
    # points keep the bits they have without it
    model = _catalog_model(name)
    xs = np.array([3.0, -1.0])
    got = _coordinate(model, np.insert(xs, 1, math.nan))
    assert got[1] == -math.inf
    assert got[[0, 2]].tobytes() == _coordinate(model, xs).tobytes()


@pytest.mark.parametrize("name", [*sorted(wt.CATALOG), "logpow-inv"])
def test_plus_inf_saturates_to_f_equals_one(name):
    # H(+inf) = +inf, so F(+inf) = 1 on the scalar and the array path,
    # however the slowly varying factor behaves there: l = 1/log x reads
    # 0 at +inf, which its own domain check refuses
    if name == "logpow-inv":
        model = wt.weibull_type(2.0, wt.log_power(-1.0), support_lower=2.0)
    else:
        model = _catalog_model(name)
    assert wt.cumulative_hazard(model, math.inf) == math.inf
    assert _saturated_coordinate(model, math.inf) == math.inf
    assert _coordinate(model, np.array([math.inf])).tolist() == [math.inf]


@pytest.mark.parametrize("gamma", [1e-9, -1e-9])
def test_gev_pieces_at_series_switch(gamma):
    # |gamma x| < 1e-5 takes the series, the rest the log1p form
    edge = 1e-5 / abs(gamma)
    xs = np.linspace(-2.0 * edge, 2.0 * edge, 4001)
    xs = xs[1.0 + gamma * xs > 0.0]
    _pieces_agree(lambda x: _gev_cdf(gamma, x), xs, [-edge, edge])


def _straddle_models():
    # l = 1 - 1/log x is <= 0 up to x = e, below the domain log_shift keeps
    l_neg = dataclasses.replace(wt.slowly_varying.log_shift(1.0, -1.0), domain_lower=1.5)
    return {
        **{name: _catalog_model(name) for name in sorted(wt.CATALOG)},
        "logpow-inv": wt.weibull_type(2.0, wt.log_power(-1.0), support_lower=2.0),
        "log-shift-neg": wt.weibull_type(2.0, l_neg, support_lower=1.5),
    }


def _regime_grids(model):
    """Ascending grids that lie wholly in one regime of T, or straddle H = 7,
    H = 40, the support endpoint (x = 0 on the whole line) or l <= 0, plus
    NaN and +/-inf."""
    if model.family is Family.CLASSICAL:
        lo = wt.cumulative_hazard_inverse(model, 1e-3) - 1.0
    else:
        lo = model.support_lower - 1.0
    hi = abs(lo) + 2.0
    while _coordinate(model, np.array([hi]))[0] < 70.0:
        hi *= 2.0
    wide = np.linspace(lo, hi, 601)
    t = _coordinate(model, wide)
    t7, t40 = numerics.log_neg_log_cdf_from_H(7.0), 40.0
    if model.family is Family.LOG_CDF_EXP:
        t7 = 7.0
    regimes = [np.isfinite(t) & (t < t7), (t >= t7) & (t < t40), t >= t40]

    def across(level):  # 101 points from below to above the level of T
        i = int(np.argmax(t >= level))
        return np.linspace(wide[max(i - 2, 0)], wide[i + 1], 101)

    edge = model.support_lower if math.isfinite(model.support_lower) else 0.0
    mid = float(wide[300])
    specials = [[math.nan], [math.nan, mid, math.inf], [-math.inf, math.inf],
                [math.inf], [-math.inf, mid, math.nan, float(wide[-1])]]
    return [wide, *(wide[p] for p in regimes), across(t7), across(t40),
            np.linspace(edge - 1.0, edge + 1.0, 101), np.linspace(1.5, 5.0, 101),
            *(np.array(s) for s in specials)]


@pytest.mark.parametrize("name", sorted(_straddle_models()))
def test_point_by_point_equals_batched(name):
    # the regime a grid falls in, decided for the grid, never changes the
    # arithmetic of one of its points
    model = _straddle_models()[name]
    for z in _regime_grids(model):
        batched = _coordinate(model, z)
        single = [_coordinate(model, z[i:i + 1]) for i in range(z.size)]
        assert batched.shape == z.shape
        assert batched.tobytes() == b"".join(s.tobytes() for s in single)
    assert _coordinate(model, np.empty(0)).shape == (0,)


def test_t_equals_h_from_forty():
    # from H = 40 on, the series margin rounds away: T = H to the bit on the
    # scalar and the array series, which makes skipping them exact
    h = np.linspace(40.0, 745.0, 100_001)
    twos = [2.0**k for k in range(6, 10)]
    near = [math.nextafter(v, d) for v in twos for d in (0.0, math.inf)]
    h = np.sort(np.concatenate([h, twos, near, [math.nextafter(745.0, 0.0)]]))
    assert arrays._log_neg_log_series(h).tobytes() == h.tobytes()
    for v in h.tolist():
        assert v - numerics.log_neg_log_cdf_margin(v) == v
        assert numerics.log_neg_log_cdf_from_H(v) == v
    # below the threshold the margin still shows
    assert numerics.log_neg_log_cdf_from_H(30.0) < 30.0
    assert arrays._log_neg_log_series(np.array([30.0]))[0] < 30.0


def _retirement_advance(converge_at, every=3):
    """An advance over state [value, point id, converging step]: value =
    1000 id + i after step i, and a point meets the stopping test at its
    converging step and every ``every`` steps after it.  It also returns
    the list it appends (i, ids of the rows step i advances) to."""
    seen = []

    def advance(i, state):
        value, ident, at = state
        seen.append((i, ident.astype(int).tolist()))
        np.multiply(ident, 1000.0, out=value)
        value += i
        since = i - at
        done = (since >= 0) & (since % every == 0)
        return done if done.any() else None

    n = len(converge_at)
    state = [np.zeros(n), np.arange(n, dtype=float), np.array(converge_at, dtype=float)]
    return advance, state, seen


@pytest.mark.parametrize("converge_at", [
    list(range(1, 41)),                     # in grid order
    list(range(40, 0, -1)),                 # in reverse
    [(7 * j) % 40 + 1 for j in range(40)],  # interleaved
    [5, 10**6, 3, 10**6, 30, 8, 10**6],     # some never, before the step limit
    [4] * 25,                               # all at once
    [6],                                    # a single point
    [10**6],                                # a single point that never does
    [2, 2, 2, 9, 5, 9, 5, 7, 6, 10**6],     # a run at the low end, then scattered
    [1, 3, 5, 7, 9, 10, 8, 6, 4, 2],        # runs at alternating ends
    [3, 3, 3, 8, 8, 8, 8],                  # a run, then all the rest at once
], ids=["order", "reverse", "interleaved", "never", "at-once", "single", "single-never",
        "run-then-scattered", "alternating-ends", "run-then-at-once"])
@pytest.mark.parametrize("start", [0, 1])
def test_until_converged_keeps_first_converging_state(converge_at, start):
    steps = range(start, 45)
    for every in (1, 3):
        advance, state, _ = _retirement_advance(converge_at, every)
        got = arrays._until_converged(steps, advance, state)
        want = [1000.0 * j + (at if at < steps.stop else steps[-1])
                for j, at in enumerate(converge_at)]
        assert got.tolist() == want
        assert state == []


@pytest.mark.parametrize("converge_at", [list(range(1, 41)), list(range(40, 0, -1))],
                         ids=["order", "reverse"])
@pytest.mark.parametrize("start", [0, 1])
def test_until_converged_trims_both_ends(converge_at, start):
    # points that converge in grid order, from either end, leave the live
    # slice at once: each step advances exactly the points not yet converged
    for every in (1, 3):
        advance, state, seen = _retirement_advance(converge_at, every)
        arrays._until_converged(range(start, 45), advance, state)
        assert [i for i, _ in seen] == list(range(start, 41))
        for i, ids in seen:
            assert ids == [j for j, at in enumerate(converge_at) if at >= i], i


@pytest.mark.parametrize("name", ["gumbel-fixture", "normal", "pure-weibull"])
def test_zero_gamma_curve_is_the_ultimate_one(name):
    # G_gamma's series at gamma = +-0 is w = x (1 - 0 + 0) = x, so G_gamma
    # is G_0 to the bit and no point is clipped; at rate +-0 every remainder
    # denominator is +-0, below the cutoff
    model = _catalog_model(name)
    loc = locate(model, 20.0)
    k = loc.jet.values[0]
    spec = (-3.0, 6.0, 3000)
    xs = np.linspace(*spec)
    for gamma in (0.0, -0.0):
        gumbel = _in_curve_context(lambda x: np.exp(arrays._neg_exp_neg(x)), xs)
        assert _gev_cdf(gamma, xs).tobytes() == gumbel.tobytes()
        for rate in (0.0, -0.0, 0.25):
            # a jet whose rate k'/k^2 = -phi is ``rate``, with its sign at 0
            at = loc._replace(jet=KJet((k, rate * k * k), "analytic"))
            sup_ult, arg_ult, sup_pen, arg_pen, n_clipped, dev = arrays.curve(
                model, at, spec, gamma)
            assert (sup_pen.hex(), arg_pen.hex(), n_clipped) == (sup_ult.hex(), arg_ult.hex(), 0)
            assert (dev is None) == (rate == 0.0)


# ------------------------------------------------------------ grid terms

MEMO_GRID = (-3.0, 6.0, 2000)


def _same(terms, others):
    """Whether two grid_terms results hold the same array objects."""
    return len(terms) == len(others) and all(a is b for a, b in zip(terms, others))


@pytest.mark.parametrize("name", sorted(wt.CATALOG))
def test_grid_terms_reused_across_models_bit_for_bit(name):
    # a curve on the terms another model's curve built equals, on every
    # field, a curve on terms built afresh for it
    model = _catalog_model(name)
    other = _catalog_model("logistic" if name == "normal" else "normal")
    for log_n in (10.0, 40.0):
        for mode in ("exact", "asymptotic"):
            if mode == "asymptotic" and model.theta_is_one:
                continue
            arrays.clear_grid_terms()
            fresh = wt.error_comparison(model, log_n, MEMO_GRID, mode)
            arrays.clear_grid_terms()
            wt.error_comparison(other, 20.0, MEMO_GRID)
            terms = arrays.grid_terms(MEMO_GRID)
            assert repr(wt.error_comparison(model, log_n, MEMO_GRID, mode)) == repr(fresh)
            assert _same(arrays.grid_terms(MEMO_GRID), terms)


def test_grid_terms_read_only_and_unchanged_by_curves():
    arrays.clear_grid_terms()
    terms = arrays.grid_terms(MEMO_GRID)
    xs, cdf, density = terms
    # the terms as the curve formed them per call
    neg_exp_neg = arrays._neg_exp_neg(np.linspace(*MEMO_GRID))
    want = [np.linspace(*MEMO_GRID), np.exp(neg_exp_neg), np.exp(neg_exp_neg - xs)]
    assert [a.tobytes() for a in terms] == [a.tobytes() for a in want]
    assert not any(a.flags.writeable for a in terms)
    with pytest.raises(ValueError, match="read-only"):
        cdf[0] = 0.0
    for name in sorted(wt.CATALOG):
        model = _catalog_model(name)
        for mode in ("exact", "asymptotic"):
            if not (mode == "asymptotic" and model.theta_is_one):
                wt.error_comparison(model, 20.0, MEMO_GRID, mode)
    assert _same(arrays.grid_terms(MEMO_GRID), terms)
    assert [a.tobytes() for a in terms] == [a.tobytes() for a in want]


def test_grid_terms_keyed_on_exact_bits():
    # ends of -0.0 and 0.0 compare equal but are different grids: each
    # keeps the sign of its last point, and the one entry is the last spec
    negative = arrays.grid_terms((-3.0, -0.0, 2000))
    positive = arrays.grid_terms((-3.0, 0.0, 2000))
    assert not _same(positive, negative)
    assert math.copysign(1.0, negative[0][-1]) == -1.0
    assert math.copysign(1.0, positive[0][-1]) == 1.0
    assert list(arrays._GRID_TERMS) == [repr((-3.0, 0.0, 2000))]
    assert _same(arrays.grid_terms((-3.0, 0.0, 2000)), positive)
    assert not _same(arrays.grid_terms((-3.0, -0.0, 2000)), negative)


@pytest.mark.parametrize("other", [(-3.0, 6.0, 2001), (-3.0, 6.5, 2000), (-2.5, 6.0, 2000),
                                   (-3.0, math.nextafter(6.0, 7.0), 2000)],
                         ids=["count", "hi", "lo", "hi-ulp"])
def test_grid_terms_rebuilt_for_another_spec(other):
    terms = arrays.grid_terms(MEMO_GRID)
    assert _same(arrays.grid_terms(MEMO_GRID), terms)
    rebuilt = arrays.grid_terms(other)
    assert not _same(rebuilt, terms)
    assert rebuilt[0].tobytes() == np.linspace(*other).tobytes()
    assert list(arrays._GRID_TERMS) == [repr(other)]


@pytest.mark.parametrize("name", ["pure-weibull", "normal"])
def test_float_count_builds_the_int_count_grid(name):
    # np.linspace refuses a float count: the checked spec gives the memo
    # the int count, and the result echoes it
    model = _catalog_model(name)
    got = wt.error_comparison(model, 20.0, (-3.0, 6.0, 1075.0))
    want = wt.error_comparison(model, 20.0, (-3.0, 6.0, 1075))
    hexed = lambda v: v.hex() if isinstance(v, float) else v
    assert [hexed(v) for v in got] == [hexed(v) for v in want]


def test_grid_points_kept_before_the_gumbel_terms():
    # a curve takes a new grid's points first and its G_0 and g_0 later,
    # into the same entry
    arrays.clear_grid_terms()
    (xs,) = arrays.grid_terms(MEMO_GRID, points_only=True)
    assert not xs.flags.writeable
    terms = arrays.grid_terms(MEMO_GRID)
    assert len(terms) == 3 and terms[0] is xs
    assert _same(arrays.grid_terms(MEMO_GRID, points_only=True), terms)


# ------------------------------------------------------------- kept curve

# around the cap on the grids whose F^n a curve keeps
KEEP_GRIDS = [(-3.0, 6.0, 1001), (-3.0, 6.0, 5000), (-3.0, 6.0, arrays.KEEP_MAX_POINTS),
              (-3.0, 6.0, arrays.KEEP_MAX_POINTS + 1)]


def _outcome(call):
    """Every field of a result, a float as its float.hex, or the code of the
    refusal."""
    try:
        result = call()
    except WeibtailError as exc:
        return exc.code
    fields = result if isinstance(result, tuple) else (result,)
    return [v.hex() if isinstance(v, float) else repr(v) for v in fields]


def _afresh(call):
    arrays.clear_grid_terms()
    return _outcome(call)


@pytest.mark.parametrize("name", sorted(wt.CATALOG))
def test_kept_curve_reused_bit_for_bit(name):
    # a curve that reuses the gamma-free half of the one before it, in
    # either mode order, equals a curve computed on a cleared memo
    model = _catalog_model(name)
    for grid in KEEP_GRIDS:
        for log_n in (1.0, 20.0, 300.0):
            ops = {mode: (lambda mode=mode: wt.error_comparison(model, log_n, grid, mode))
                   for mode in ("exact", "asymptotic")}
            want = {mode: _afresh(op) for mode, op in ops.items()}
            for first, then in (("exact", "asymptotic"), ("asymptotic", "exact")):
                assert _afresh(ops[first]) == want[first], (grid, log_n, first)
                assert _outcome(ops[then]) == want[then], (grid, log_n, first, then)
            profile = lambda: wt.remainder_profile(model, log_n, grid)
            want_profile = _afresh(profile)
            assert _afresh(profile) == want_profile
            assert _outcome(ops["exact"]) == want["exact"], (grid, log_n, "after the profile")
            assert _outcome(profile) == want_profile, (grid, log_n, "after exact")


def test_kept_curve_misses_recompute(monkeypatch):
    calls = []  # the log n of each F^n formed
    maxima = arrays._maxima
    monkeypatch.setattr(arrays, "_maxima", lambda *args: calls.append(args[1]) or maxima(*args))
    model, twin = wt.pure_weibull(theta=2.0), wt.pure_weibull(theta=2.0)
    arrays.clear_grid_terms()
    wt.error_comparison(model, 20.0, MEMO_GRID, "exact")
    wt.error_comparison(model, 20.0, MEMO_GRID, "asymptotic")
    wt.remainder_profile(model, 20.0, MEMO_GRID)
    assert calls == [20.0]
    # an equal model that is another object, another log n, another grid
    wt.error_comparison(twin, 20.0, MEMO_GRID, "asymptotic")
    wt.error_comparison(twin, 21.0, MEMO_GRID, "asymptotic")
    wt.error_comparison(twin, 21.0, (-3.0, 6.0, 2001), "asymptotic")
    assert calls == [20.0, 20.0, 21.0, 21.0]
    wt.error_comparison(twin, 21.0, (-3.0, 6.0, 2001), "exact")
    assert len(calls) == 4
    # a direct caller's Location, another equal one, one with another b,
    # each then with gamma alone changed
    loc = locate(twin, 21.0)
    for at in (loc, locate(twin, 21.0), loc._replace(b=-loc.b)):
        arrays.curve(twin, at, MEMO_GRID, 0.05)
        arrays.curve(twin, at, MEMO_GRID, 0.0)
    assert len(calls) == 4 + 3


def test_kept_curve_lifetime():
    model = wt.pure_weibull(theta=0.5)  # gamma < 0 clips the right end at log n 1
    arrays.clear_grid_terms()
    exact = wt.error_comparison(model, 1.0, MEMO_GRID, "exact")
    kept = arrays._GRID_TERMS[arrays._CURVE]
    loc, fn = kept[2:4]
    assert arrays.kept_curve(model, 1.0, MEMO_GRID)[0] is loc and loc.b == locate(model, 1.0).b
    before = fn.tobytes()
    assert not fn.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        fn[0] = 0.0
    assert wt.error_comparison(model, 1.0, MEMO_GRID, "asymptotic").n_clipped > 0
    assert wt.error_comparison(model, 1.0, MEMO_GRID, "exact") == exact
    assert arrays._GRID_TERMS[arrays._CURVE] is kept and fn.tobytes() == before
    arrays.clear_grid_terms()
    assert not arrays._GRID_TERMS
    wt.error_comparison(model, 20.0, MEMO_GRID, "exact")
    wt.error_comparison(model, 20.0, (-3.0, 6.0, 2001), "exact")  # a new grid frees it
    assert arrays._GRID_TERMS[arrays._CURVE][1].endswith("(-3.0, 6.0, 2001))")
    # above the cap a curve keeps nothing
    wt.error_comparison(model, 20.0, KEEP_GRIDS[-1], "exact")
    assert list(arrays._GRID_TERMS) == [repr(KEEP_GRIDS[-1])]


@pytest.fixture
def located_work(monkeypatch):
    """Counts of the root solves and hazard jets made after the fixture."""
    counts = {"solves": 0, "jets": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(numerics, "solve_increasing",
                        counted("solves", numerics.solve_increasing))
    monkeypatch.setattr(model_module, "hazard_jet", counted("jets", model_module.hazard_jet))
    return counts


def _work(counts, call):
    """The solves and jets of ``call()``, which may be refused."""
    before = dict(counts)
    _outcome(call)
    return {key: counts[key] - before[key] for key in counts}


@pytest.mark.parametrize("name", ["normal", "extended-weibull", "gamma"])
@pytest.mark.parametrize("count", [1001, arrays.KEEP_MAX_POINTS])
def test_twin_takes_the_kept_location(name, count, located_work):
    # after the exact curve on an array-pass grid that keeps it, the
    # asymptotic twin and the remainder profile solve no b_n and form no jet
    model, grid = _catalog_model(name), (-3.0, 6.0, count)
    arrays.clear_grid_terms()
    exact = _work(located_work, lambda: wt.error_comparison(model, 20.0, grid))
    assert exact == {"solves": 1, "jets": 1}
    for call in (lambda: wt.error_comparison(model, 20.0, grid, "asymptotic"),
                 lambda: wt.remainder_profile(model, 20.0, grid),
                 lambda: wt.error_comparison(model, 20.0, grid)):
        assert _work(located_work, call) == {"solves": 0, "jets": 0}
    arrays.clear_grid_terms()
    assert _work(located_work, lambda: wt.remainder_profile(model, 20.0, grid)) == exact
    assert _work(located_work, lambda: wt.error_comparison(model, 20.0, grid)) == \
        {"solves": 0, "jets": 0}


@pytest.mark.parametrize("case", ["above-the-cap", "default-grid", "cleared", "equal-model"])
def test_twin_solves_where_nothing_is_kept(case, located_work):
    model = _catalog_model("normal")
    # an equal model, with the same callables, that is another object
    twin_model = dataclasses.replace(model) if case == "equal-model" else model
    assert twin_model == model
    grid = {"above-the-cap": (-3.0, 6.0, arrays.KEEP_MAX_POINTS + 1),
            "default-grid": wt.penultimate.DEFAULT_GRID}.get(case, MEMO_GRID)
    exact = _work(located_work, lambda: wt.error_comparison(model, 20.0, grid))
    if case == "cleared":
        arrays.clear_grid_terms()
    twin = _work(located_work, lambda: wt.error_comparison(twin_model, 20.0, grid, "asymptotic"))
    assert twin == exact == {"solves": 1, "jets": 1}


def _gamma_window(model, log_n, refused):
    """A window that leaves G_gamma some points for one gamma mode and none
    for the other, ``refused``; None where the two gammas do not allow one."""
    try:
        gamma_exact = locate(model, log_n).jet.phi
    except WeibtailError:
        return None
    gammas = {"exact": gamma_exact, "asymptotic": (model.theta - 1.0) / log_n}
    g_refused, g_kept = gammas[refused], gammas["asymptotic" if refused == "exact" else "exact"]
    if not (abs(g_refused) > abs(g_kept) and g_refused * g_kept > 0.0):
        return None
    edge = -2.0 / (g_refused + g_kept)  # between -1/gamma of each
    return (edge - 10.0, edge, 2000) if g_refused > 0.0 else (edge, edge + 10.0, 2000)


@pytest.mark.parametrize("name", ["pure-weibull", "extended-weibull", "normal", "gamma"])
def test_twin_refusal_after_a_refused_exact_op(name):
    # a twin right after a refused op, and an op right after a refused
    # twin, refuse or return as they do on a cleared memo
    model = _catalog_model(name)
    windows = [((-3.0, 6.0, 2000), -1.0), ((-900.0, -500.0, 2000), 20.0),
               ((500.0, 900.0, 2000), 20.0)]
    for log_n in (1.0, 2.0, 20.0, 300.0):
        windows += [(window, log_n) for refused in ("exact", "asymptotic")
                    if (window := _gamma_window(model, log_n, refused)) is not None]
    split = []  # the one mode refused, where the other is not
    for grid, log_n in windows:
        ops = {mode: (lambda mode=mode: wt.error_comparison(model, log_n, grid, mode))
               for mode in ("exact", "asymptotic")}
        want = {mode: _afresh(op) for mode, op in ops.items()}
        for first, then in (("exact", "asymptotic"), ("asymptotic", "exact")):
            assert _afresh(ops[first]) == want[first], (grid, log_n, first)
            assert _outcome(ops[then]) == want[then], (grid, log_n, first, then)
        split += [mode for mode, got in want.items() if isinstance(got, str)][:len(want) - 1]
    assert "exact" in split or model.theta_is_one, split


@pytest.mark.parametrize("grid", [(-4.0, 4.0, 2049), (-5e3, 5e3, 2001), (-3.0, 6.0, 2000)],
                         ids=["through-zero", "wide", "default-span"])
def test_remainder_deviation_is_the_signed_formula(grid):
    # the denominator taken with |rate| gives the bits of (x^2/2) rate g_0
    # taken with its sign, masked at the cutoff
    with np.errstate(over="ignore"):  # e^-x past the doubles, as in a curve
        xs, cdf, density = arrays.grid_terms(grid)
        diff = np.subtract(np.exp(-np.exp(-0.9 * xs)), cdf)
    clipped = np.clip(xs, -1e3, 1e3)
    for rate in (1e-6, 0.3, -2.0, -1e-290):
        den = clipped * 0.5 * clipped * rate * density
        keep = np.abs(den) > REMAINDER_DENOMINATOR_CUTOFF
        want = float(np.abs(diff[keep] / den[keep] - 1.0).max()) if keep.any() else None
        got = arrays._remainder_deviation(xs, diff, density, rate)
        assert (got is None) == (want is None)
        assert got is None or got.hex() == want.hex()


# ------------------------------------------------------------- ownership

def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _ownership_models():
    c = 0.5

    spec = wt.SlowlyVaryingSpec(
        value=lambda x: c,
        d1=lambda x: 0.0, d2=lambda x: 0.0, d3=lambda x: 0.0, d4=lambda x: 0.0,
        domain_lower=0.0,
        label="broadcast-const",
        is_constant=True,
        value_array=lambda x: np.broadcast_to(c, x.shape),
    )
    tail = wt.weibull_type(2.0, spec, label="broadcast-weibull")
    classical = wt.WeibullTypeModel(
        family=Family.CLASSICAL,
        theta=1.0,
        label="read-only-exponential",
        support_lower=0.0,
        classical_log_sf=lambda x: -x if x > 0.0 else 0.0,
        hazard_derivs=lambda x, m: (x if x > 0.0 else -0.0, 1.0, 0.0, 0.0, 0.0)[: m + 1],
        classical_log_sf_array=lambda x: _read_only(np.where(x > 0.0, -x, 0.0)),
    )
    return {"tail": tail, "classical": classical}


@pytest.mark.parametrize("kind", ["tail", "classical"])
def test_no_writes_into_caller_or_array_form_arrays(kind, monkeypatch):
    model = _ownership_models()[kind]
    monkeypatch.setattr(arrays, "_GRID_TERMS", {})  # every grid is built here
    for log_n in (1.0, 20.0):
        # grids above the default size, which take the array curve
        for grid in ((-3.0, 6.0, 2000), (-20.0, 40.0, 1500)):
            for mode in ("exact", "asymptotic"):
                if mode == "asymptotic" and model.theta_is_one:
                    continue
                cmp_ = wt.error_comparison(model, log_n, grid, mode)
                assert math.isfinite(cmp_.sup_error_ultimate)
            # the memo built its points read-only: a write into them would
            # have raised, and they are still the grid
            terms = arrays.grid_terms(grid)
            assert not any(a.flags.writeable for a in terms)
            assert terms[0].tobytes() == np.linspace(*grid).tobytes()
    # the array form's own output is read-only: a write would have raised
    z = _read_only(np.linspace(-3.0, 60.0, 700))
    before = z.copy()
    _coordinate(model, z)
    assert np.array_equal(z, before)


# ---------------------------------------------------------------- memory

# tracemalloc peak of one error_comparison at log n 20 on a 1e5-point grid,
# in units of one grid array (8e5 bytes), rounded up to a half: (warm, cold).
# Warm: the grid's terms were built by an earlier curve, so the three arrays
# the memo keeps resident (x, G_0, g_0) are not counted; measured 4.0 (tail
# families), 6.0 (Normal), 4.13 (Exponential, Logistic), 6.25 (gamma) and
# 2.0 (Gumbel fixture).  Cold: the memo was cleared, so the call builds the
# terms and every array counts; measured 5.13, 7.0, 5.13, 7.25 and 4.0, the
# terms formed past the peak of F^n and G_gamma.  Masked kernels that
# allocated a new array per step peaked at 13.4 (tail families), 11.3
# (Normal, Logistic, Exponential, Gumbel fixture) and 19.3 (gamma).
PEAK_GRID_ARRAYS = {
    "pure-weibull": (lambda: catalog.pure_weibull(theta=2.0), 4.5, 5.5),
    "extended-weibull": (lambda: catalog.extended_weibull(2.0), 4.5, 5.5),
    "normal": (catalog.normal, 6.5, 7.5),
    "exponential": (catalog.exponential, 4.5, 5.5),
    "logistic": (catalog.logistic, 4.5, 5.5),
    "gamma": (lambda: catalog.gamma_model(2.0), 6.5, 7.5),
    "gumbel-fixture": (catalog.gumbel_fixture, 2.5, 4.5),
}


@pytest.mark.parametrize("name, cold", [(name, cold) for cold in (False, True)
                                        for name in sorted(PEAK_GRID_ARRAYS)],
                         ids=[name + suffix for suffix in ("", "-cold-grid")
                              for name in sorted(PEAK_GRID_ARRAYS)])
def test_error_comparison_peak_memory(name, cold):
    build, warm_limit, cold_limit = PEAK_GRID_ARRAYS[name]
    model = build()
    grid = (-3.0, 6.0, 100_000)
    wt.error_comparison(model, 20.0, grid)  # warm: imports, cached tables, the grid's terms
    if cold:
        arrays.clear_grid_terms()
    limit = cold_limit if cold else warm_limit
    tracemalloc.start()
    try:
        wt.error_comparison(model, 20.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    used = peak / (8 * grid[2])
    assert used <= limit, f"{name}: peak {used:.2f} grid arrays > {limit}"


# tracemalloc of one error_comparison at log n 21 on a grid whose terms a
# curve at log n 20 built, in grid arrays.  At KEEP_MAX_POINTS points the
# call keeps its F^n for the next curve: one grid array (512 KB) stays
# allocated after it, measured 1.0005-1.0009, and one point above the cap
# nothing.  F^n - G_0 takes new storage where F^n is kept, past the peak
# inside T, so the peak stays within PEAK_GRID_ARRAYS' warm limit on both
# grids (measured 4.0, 4.0, 6.0, 4.13, 4.13, 6.26 and 2.0, with the kept
# curve and without it).  The asymptotic curve after it forms only G_gamma: measured 1.0
# grid array, where the parent's whole curve peaked at 4.0 or 6.0.
KEPT_CURVE_HIT_PEAK = 1.5


@pytest.mark.parametrize("name, count", [(name, arrays.KEEP_MAX_POINTS + above)
                                         for above in (0, 1) for name in sorted(PEAK_GRID_ARRAYS)])
def test_kept_curve_memory(name, count):
    build, warm_limit, _ = PEAK_GRID_ARRAYS[name]
    model = build()
    grid = (-3.0, 6.0, count)
    kept_limit = 1.01 if count <= arrays.KEEP_MAX_POINTS else 0.01
    wt.error_comparison(model, 20.0, grid)  # the grid's terms
    modes = ["exact"] if model.theta_is_one else ["exact", "asymptotic"]
    for mode, peak_limit in zip(modes, (warm_limit, KEPT_CURVE_HIT_PEAK)):
        tracemalloc.start()
        try:
            wt.error_comparison(model, 21.0, grid, mode)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if mode == "asymptotic" and count > arrays.KEEP_MAX_POINTS:
            peak_limit = warm_limit  # nothing kept: a whole curve
        peak, kept = peak / (8 * count), kept / (8 * count)
        assert peak <= peak_limit, f"{name} {mode}: peak {peak:.2f} grid arrays > {peak_limit}"
        assert kept <= (kept_limit if mode == "exact" else 0.01), f"{name} {mode}: kept {kept:.4f}"


# ------------------------------------------------------------- loop work

# rows that gamma's series and continued-fraction loops update in one
# error_comparison on tools/costs.py's 3000-point grid, per shape at log n
# 1, 2, 4 and 6 (curve_bits.py's fixed curves); retiring points by index
# with compaction on halving updated 73 690, 78 068, 85 279 and 78 612 rows
# at shape 0.5
GAMMA_LOOP_ROWS = {
    0.5: (70_652, 73_207, 78_111, 70_333),
    2.0: (19_234, 19_599, 9_317, 6_000),
    5.0: (33_175, 29_565, 15_000, 15_000),
}


def _costs_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "costs.py"
    spec = importlib.util.spec_from_file_location("costs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("shape", sorted(GAMMA_LOOP_ROWS))
def test_gamma_loop_rows(shape):
    tool = _costs_tool()
    model = catalog.gamma_model(shape)
    rows = [tool.costs(model, log_n)[2] for log_n in (1.0, 2.0, 4.0, 6.0)]
    pins = GAMMA_LOOP_ROWS[shape]
    assert all(r <= pin for r, pin in zip(rows, pins)), (rows, pins)
