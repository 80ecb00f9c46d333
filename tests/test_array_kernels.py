"""Array kernels of the error curves: one regime or many, the same bits;
no writes into arrays the library does not own; grid-sized temporaries.

A kernel evaluates a grid that lies in one regime of its formula on the
whole array and a mixed grid through masks.  The parity tests split an
ascending array at each switch and require the result on the whole array
to equal, bit for bit, the concatenation of the results on the pieces,
each of which lies in one regime.
"""

import math
import tracemalloc

import numpy as np
import pytest

import weibtail as wt
from weibtail import arrays, catalog, numerics
from weibtail.arrays import gev_cdf_array, gumbel_coordinate_array
from weibtail.model import Family, _saturated_coordinate


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
    _pieces_agree(arrays.log_neg_log_cdf_from_H_array, h, [numerics._SERIES_SWITCH])


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
    got = _pieces_agree(lambda z: gumbel_coordinate_array(model, z), xs, [lo])
    assert np.all(got[xs < lo] == -math.inf) and np.all(np.isfinite(got[xs >= lo]))


def test_classical_coordinate_pieces():
    # H = -log sf crosses the series switch and saturates at both ends
    model = catalog.gamma_model(2.0)
    xs = np.concatenate([[-1.0, 0.0], np.geomspace(1e-3, 800.0, 3000), [math.inf]])
    coordinate = lambda z: gumbel_coordinate_array(model, z)
    h7 = float(xs[np.argmax(-model.classical_log_sf_array(xs) >= numerics._SERIES_SWITCH)])
    got = _pieces_agree(coordinate, xs, [1e-300, h7, math.inf])
    assert got[0] == got[1] == -math.inf and got[-1] == math.inf


def _catalog_model(name):
    required = {"pure-weibull": {"theta": 2.0}, "extended-weibull": {"beta": 2.0}}
    return wt.build_model(name, **required.get(name, {}))


@pytest.mark.parametrize("name", sorted(wt.CATALOG))
def test_nan_point_saturates_to_minus_inf(name):
    # NaN reads as F = 0 on every model, without a warning, and the other
    # points keep the bits they have without it
    model = _catalog_model(name)
    xs = np.array([3.0, -1.0])
    got = gumbel_coordinate_array(model, np.insert(xs, 1, math.nan))
    assert got[1] == -math.inf
    assert got[[0, 2]].tobytes() == gumbel_coordinate_array(model, xs).tobytes()


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
    assert gumbel_coordinate_array(model, np.array([math.inf])).tolist() == [math.inf]


@pytest.mark.parametrize("gamma", [1e-9, -1e-9])
def test_gev_pieces_at_series_switch(gamma):
    # |gamma x| < 1e-5 takes the series, the rest the log1p form
    edge = 1e-5 / abs(gamma)
    xs = np.linspace(-2.0 * edge, 2.0 * edge, 4001)
    xs = xs[1.0 + gamma * xs > 0.0]
    _pieces_agree(lambda x: gev_cdf_array(gamma, x), xs, [-edge, edge])


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
        classical_cdf=lambda x: -math.expm1(-x) if x > 0.0 else 0.0,
        classical_density=lambda x: math.exp(-x) if x > 0.0 else 0.0,
        classical_log_sf=lambda x: -x if x > 0.0 else 0.0,
        hazard_derivs=lambda x: (1.0, 0.0, 0.0, 0.0),
        classical_log_sf_array=lambda x: _read_only(np.where(x > 0.0, -x, 0.0)),
    )
    return {"tail": tail, "classical": classical}


@pytest.mark.parametrize("kind", ["tail", "classical"])
def test_no_writes_into_caller_or_array_form_arrays(kind, monkeypatch):
    model = _ownership_models()[kind]
    grids = []
    validate = arrays.grid

    def read_only_grid(spec):
        xs = _read_only(validate(spec))
        grids.append((xs, xs.copy()))
        return xs

    monkeypatch.setattr(arrays, "grid", read_only_grid)
    for log_n in (1.0, 20.0):
        # grids above the default size, which take the array curve
        for grid in ((-3.0, 6.0, 2000), (-20.0, 40.0, 1500)):
            for mode in ("exact", "asymptotic"):
                if mode == "asymptotic" and model.theta_is_one:
                    continue
                cmp_ = wt.error_comparison(model, log_n, grid, mode)
                assert math.isfinite(cmp_.sup_error_ultimate)
    assert grids and all(np.array_equal(xs, copy) for xs, copy in grids)
    # the array form's own output is read-only: a write would have raised
    z = _read_only(np.linspace(-3.0, 60.0, 700))
    before = z.copy()
    gumbel_coordinate_array(model, z)
    assert np.array_equal(z, before)


# ---------------------------------------------------------------- memory

# tracemalloc peak of one error_comparison at log n 20 on a 1e5-point grid,
# in units of one grid array (8e5 bytes), rounded up to a half; masked
# kernels that allocated a new array per step peaked at 13.4 (tail
# families), 11.3 (Normal, Logistic, Exponential, Gumbel fixture) and
# 19.3 (gamma)
PEAK_GRID_ARRAYS = {
    "pure-weibull": (lambda: catalog.pure_weibull(theta=2.0), 5.5),
    "extended-weibull": (lambda: catalog.extended_weibull(2.0), 5.5),
    "normal": (catalog.normal, 7.5),
    "exponential": (catalog.exponential, 6.5),
    "logistic": (catalog.logistic, 6.5),
    "gamma": (lambda: catalog.gamma_model(2.0), 7.5),
    "gumbel-fixture": (catalog.gumbel_fixture, 6.5),
}


@pytest.mark.parametrize("name", sorted(PEAK_GRID_ARRAYS))
def test_error_comparison_peak_memory(name):
    build, limit = PEAK_GRID_ARRAYS[name]
    model = build()
    grid = (-3.0, 6.0, 100_000)
    wt.error_comparison(model, 20.0, grid)  # warm: imports and cached tables
    tracemalloc.start()
    try:
        wt.error_comparison(model, 20.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * grid[2])
    assert arrays <= limit, f"{name}: peak {arrays:.2f} grid arrays > {limit}"
