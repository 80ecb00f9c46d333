"""Catalog models: the log-space incomplete gamma, the Normal without
scipy, and which commands import numpy or scipy."""

import ast
import importlib.util
import math
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import weibtail as wt
from weibtail import arrays, catalog

from test_cli import child_env

SHAPES = (0.5, 2.0, 5.0)


def _mp_gamma_log_q(a, x):
    """log Q at 50 digits."""
    with mp.workdps(50):
        return mp.log(mp.gammainc(mp.mpf(a), mp.mpf(x), mp.inf, regularized=True))


def _mp_hazard_block(a, x):
    """(h, h', h'', h''') at 100 digits: the hazard from the upper incomplete
    gamma, its derivatives from the exact recurrence h' = h (psi + h), whose
    cancellation costs at most ~40 of the 100 digits up to x = 1e10."""
    with mp.workdps(100):
        a, x = mp.mpf(a), mp.mpf(x)
        h = x ** (a - 1) * mp.exp(-x) / mp.gammainc(a, x, mp.inf)
        psi, psi1, psi2 = (a - 1) / x - 1, -(a - 1) / x**2, 2 * (a - 1) / x**3
        h1 = h * (psi + h)
        h2 = h1 * (psi + h) + h * (psi1 + h1)
        h3 = h2 * (psi + h) + 2 * h1 * (psi1 + h1) + h * (psi2 + h2)
        return h, h1, h2, h3


@pytest.mark.parametrize("shape", SHAPES)
def test_gamma_log_p_log_q_against_mpmath(shape):
    m = wt.gamma_model(shape)
    for x in np.logspace(-3, 4, 71):
        x = float(x)
        ref_q = _mp_gamma_log_q(shape, x)
        got_q = m.classical_log_sf(x)
        assert float(abs(got_q - ref_q)) <= 2e-14 * float(abs(ref_q)), (shape, x)


def test_gamma_cdf_density_consistent():
    m = wt.gamma_model(2.0)
    for x in (0.1, 2.0, 30.0):
        # Gamma(2): Q = (1 + x) e^-x, hazard f/Q = x / (1 + x)
        assert m.classical_log_sf(x) == pytest.approx(math.log1p(x) - x, rel=1e-13)
        assert m.hazard_derivs(x, 1)[1] == pytest.approx(x / (1.0 + x), rel=1e-14)
    assert m.classical_log_sf(0.0) == 0.0
    assert m.classical_log_sf(math.inf) == -math.inf


@pytest.mark.parametrize("shape", SHAPES)
def test_gamma_hazard_block_against_mpmath(shape):
    # the jet's H is the log sf's, to the bit; the recurrence below
    # max(50, 2 shape) loses ~eps x^(order+1); the large-x series beyond it
    # is accurate to a few ulp at every order
    m = wt.gamma_model(shape)
    for x in np.logspace(-2, 10, 49):
        x = float(x)
        H, *got = m.hazard_derivs(x, 4)
        assert H == -m.classical_log_sf(x), (shape, x)
        ref = _mp_hazard_block(shape, x)
        tols = (1e-14, 1e-11, 1e-9) if x < 50.0 else (1e-14, 1e-14, 1e-14)
        for order, (g, r, tol) in enumerate(zip(got, ref, tols)):
            assert float(abs((g - r) / r)) <= tol, (shape, x, order)


def _assert_gamma_norming(shape, log_n):
    """b_n is finite and on its level -log(-log F(b_n)) = log n by 30-digit
    mpmath, within the benchmark oracle's 1e-10 max(1, log n)."""
    nc = wt.norming(wt.gamma_model(shape), log_n)
    assert all(math.isfinite(v) for v in (nc.b_exact, nc.b_asymptotic, nc.a_scale))
    with mp.workdps(30):
        q = mp.gammainc(mp.mpf(shape), mp.mpf(nc.b_exact), mp.inf, regularized=True)
        t = -mp.log(-mp.log1p(-q))
    assert float(abs(t - log_n)) <= 1e-10 * max(1.0, log_n)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("log_n", [500.0, 600.0, 700.0])
def test_gamma_norming_far_tail(shape, log_n):
    _assert_gamma_norming(shape, log_n)


@pytest.mark.parametrize("shape", [50.0, 100.5, 1000.0])
@pytest.mark.parametrize("log_n", [1.0, 20.0])
def test_gamma_norming_large_shape(shape, log_n):
    # F rounds to 0 at the bracket's start just above the support endpoint
    _assert_gamma_norming(shape, log_n)


def _mp_gamma_norming(a, log_n, b0):
    """(b_n, a_n, gamma_n) of Gamma(a) at 60 digits: b_n solves
    -log(-log P(a, b)) = log n, and k = f / (P L), L = -log P, gives
    a_n = 1/k and gamma_n = -k'/k^2."""
    with mp.workdps(60):
        a, log_n = mp.mpf(a), mp.mpf(log_n)
        coordinate = lambda x: -mp.log(-mp.log1p(-mp.gammainc(a, x, mp.inf, regularized=True)))
        b = mp.findroot(lambda x: coordinate(x) - log_n, mp.mpf(b0), tol=mp.mpf(10) ** -50)
        q = mp.gammainc(a, b, mp.inf, regularized=True)
        p, big_l = 1 - q, -mp.log1p(-q)
        f = mp.exp((a - 1) * mp.log(b) - b - mp.loggamma(a))
        k = f / (p * big_l)
        k1 = (f * ((a - 1) / b - 1) * p * big_l - f * f * (big_l - 1)) / (p * big_l) ** 2
        return b, 1 / k, -k1 / k**2


@pytest.mark.parametrize("log_n", [1.0, 10.0, 100.0, 700.0])
def test_gamma_at_largest_shape_against_mpmath(log_n):
    # the largest shape gamma_model takes; beyond it the rounding of log Q
    # passes 1e-12
    shape = catalog._GAMMA_MAX_SHAPE
    m = wt.gamma_model(shape)
    nc = wt.norming(m, log_n)
    got = (nc.b_exact, nc.a_scale, wt.penultimate_index(m, log_n).gamma_exact)
    for g, ref in zip(got, _mp_gamma_norming(shape, log_n, nc.b_exact)):
        assert float(abs((g - ref) / ref)) <= 1e-12, (log_n, got)
    with pytest.raises(ValueError):
        wt.gamma_model(math.nextafter(shape, math.inf))


def test_gamma_at_smallest_shape_typed():
    # the smallest shape gamma_model takes gives numbers or a typed refusal
    m = wt.gamma_model(catalog._GAMMA_MIN_SHAPE)
    for log_n in (1e-3, 0.1, 1.0, 10.0, 100.0, 700.0):
        for call in (wt.norming, wt.penultimate_index, wt.error_comparison):
            try:
                call(m, log_n)
            except wt.errors.WeibtailError:
                pass
    wt.condition_sweep(m, (1e2, 1e4, 1e6, 1e8, 1e10))
    with pytest.raises(ValueError):
        wt.gamma_model(math.nextafter(catalog._GAMMA_MIN_SHAPE, 0.0))


def _mp_normal_q(x):
    """Q(x) at 40 digits."""
    x = mp.mpf(x)
    return mp.erfc(x / mp.sqrt(2)) / 2


def _mp_normal_log_q(x):
    q = _mp_normal_q(x)
    return mp.log(q) if q < 0.5 else mp.log1p(-_mp_normal_q(-x))


def _normal_points():
    """[-40, 1e6], plus both sides of every branch switch and its mirror:
    the sign at 0, the continued fraction at 2, the asymptotic form at 37
    and the hazard's large-x series at 50."""
    points = {float(v) for v in np.linspace(-40.0, 60.0, 401)}
    points |= {float(v) for v in np.logspace(0.0, 6.0, 61)}
    for switch in (0.0, 2.0, 37.0, 50.0):
        for edge in (switch, -switch):
            points |= {edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)}
    return sorted(points)


def _close(got, ref, rel):
    """Within ``rel`` of the 40-digit reference, or within a few subnormal
    spacings of it where it is below the normal doubles."""
    return abs(mp.mpf(got) - ref) <= rel * abs(ref) + 1e-322


def test_normal_tail_against_mpmath():
    m = wt.normal()
    with mp.workdps(40):
        for x in _normal_points():
            log_q, log_p = _mp_normal_log_q(x), _mp_normal_log_q(-x)
            assert _close(m.classical_log_sf(x), log_q, 1e-14), x
            assert _close(m.classical_log_sf(-x), log_p, 1e-14), x  # log Phi(x)
            assert _close(catalog._normal_sf(-x), _mp_normal_q(-x), 1e-14), x  # Phi(x)


def test_normal_hazard_against_mpmath():
    # h and h' = h (h - x): from x = 2 the continued fraction gives h - x
    # without the cancellation that cost the old route ~x^2 ulp in h'
    m = wt.normal()
    with mp.workdps(40):
        for x in _normal_points():
            if not -30.0 <= x < 50.0:
                continue
            X = mp.mpf(x)
            h = mp.exp(-X * X / 2) / mp.sqrt(2 * mp.pi) / _mp_normal_q(x)
            got_H, got_h, got_h1 = m.hazard_derivs(x, 2)
            assert got_H == -m.classical_log_sf(x), x
            assert _close(got_h, h, 1e-14), x
            assert _close(got_h1, h * (h - X), 1e-14), x


# (CLI model flags, library constructor) for every catalog model
CATALOG_CASES = (
    (["--model", "pure-weibull", "--theta", "2"], "lambda: wt.pure_weibull(theta=2.0)"),
    (["--model", "extended-weibull", "--beta", "2"], "lambda: wt.extended_weibull(beta=2.0)"),
    (["--model", "normal"], "wt.normal"),
    (["--model", "exponential"], "wt.exponential"),
    (["--model", "logistic"], "wt.logistic"),
    (["--model", "gamma", "--shape", "2"], "lambda: wt.gamma_model(2.0)"),
    (["--model", "gumbel-fixture"], "wt.gumbel_fixture"),
)

_LIBRARY_PROBE = """
import sys
import weibtail as wt

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

scalar = []
for build in (%s,):
    model = build()
    wt.norming(model, 20.0)
    wt.penultimate_index(model, 20.0)
    wt.condition_sweep(model, (1e2, 1e4, 1e6, 1e8, 1e10))
    scalar.append(loaded())
wt.error_comparison(wt.normal(), 5.0)
print(repr((scalar, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))))
""" % ", ".join(build for _, build in CATALOG_CASES)

SCALAR_COMMANDS = ("norming", "penultimate", "vonmises")
# above the default grid size the error curve runs over numpy arrays
DENSE_ERRORS = ["errors", "--model", "pure-weibull", "--theta", "2", "--log-n", "10",
                "--grid", "-3:6:100000"]

# Every CLI command on every catalog model, the scalar ones first, then the
# error curves on the default grid and last one dense grid, in one
# interpreter where a meta-path finder refuses any scipy import.  The entry
# point ends its process with os._exit; here that raises SystemExit with
# the code instead, so the next command runs in the same interpreter.
_CLI_PROBE = """
import contextlib, importlib.abc, io, os, runpy, sys

def exit_to_caller(code):
    raise SystemExit(code)

os._exit = exit_to_caller

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy import refused: " + name)
        return None

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

sys.meta_path.insert(0, RefuseScipy())
seen = []
for argv in %r:
    sys.argv = ["weibtail", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("weibtail.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code in (0, None), (argv, exc.code)
    seen.append((argv, loaded()))
print(repr(seen))
""" % ([["models"]] + [
    [command, *flags, *(["--log-n", "10,100"] if command != "vonmises" else [])]
    for commands in (SCALAR_COMMANDS, ("errors", "report"))
    for flags, _ in CATALOG_CASES
    for command in commands
] + [DENSE_ERRORS],)


def _probe(source):
    proc = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


@pytest.fixture(scope="module")
def cli_runs():
    return _probe(_CLI_PROBE)


def test_import_leaves_scipy_out():
    # the scalar quantities of every catalog model import neither numpy nor
    # scipy, and the normal's error curve loads no scipy module either
    scalar, scipy_modules = _probe(_LIBRARY_PROBE)
    assert scalar == [[]] * len(CATALOG_CASES)
    assert scipy_modules == []


def test_scalar_cli_leaves_numpy_out(cli_runs):
    scalar = cli_runs[:1 + len(SCALAR_COMMANDS) * len(CATALOG_CASES)]
    for argv, modules in scalar:
        assert argv[0] in ("models", *SCALAR_COMMANDS) and modules == [], argv


def test_default_grid_curves_leave_numpy_out(cli_runs):
    # errors and report on the default grid take the scalar curve
    curves = cli_runs[1 + len(SCALAR_COMMANDS) * len(CATALOG_CASES):-1]
    assert len(curves) == 2 * len(CATALOG_CASES)
    for argv, modules in curves:
        assert argv[0] in ("errors", "report") and modules == [], argv


def test_dense_grid_curve_loads_numpy(cli_runs):
    # the path follows the grid size, not what is already imported
    assert cli_runs[-1] == (DENSE_ERRORS, ["numpy"])


def test_every_command_runs_with_scipy_refused(cli_runs):
    # each run exited 0 with every scipy import refused
    assert len(cli_runs) == 1 + (len(SCALAR_COMMANDS) + 2) * len(CATALOG_CASES) + 1


def _import_sites(tree):
    """(imported module, enclosing function or None) of every import in a
    module of the package, relative imports resolved against weibtail."""
    sites = []

    def visit(node, function):
        if isinstance(node, ast.Import):
            sites.extend((alias.name, function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "weibtail" + ("." + base if base else "")
            sites.append((base, function))
            sites.extend((f"{base}.{alias.name}", function) for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_numpy_behind_one_module():
    # numpy loads exactly when weibtail.arrays does: arrays imports it once
    # at its top, no other module names it (no TYPE_CHECKING block either),
    # and the others reach arrays only from inside a function
    source = Path(wt.__file__).parent
    lazy = set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        name = path.stem
        sites = _import_sites(tree)
        numpy_sites = [fn for module, fn in sites if module.split(".")[0] == "numpy"]
        if name == "arrays":
            assert numpy_sites == [None]
            assert any(isinstance(node, ast.Import) and node.names[0].name == "numpy"
                       for node in tree.body)
        else:
            assert numpy_sites == [], name
        assert "TYPE_CHECKING" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}, name
        for module, fn in sites:
            if module == "weibtail.arrays" and name != "arrays":
                assert fn is not None, f"{name} imports weibtail.arrays at module level"
                lazy.add(f"{name}.{fn}")
    assert lazy == {"penultimate._curve", "slowly_varying.array_form"}


# ------------------------------------------------ the Normal's array log sf

def _kernel_points():
    """>= 5000 seeded points over [-38, 1e5]: uniform on [-38, 40], log-uniform
    on [1e-6, 1e5], and both sides of every piece edge t = k/32 of the table,
    x = (32/k - 1) sqrt 8, with its mirror."""
    rng = np.random.default_rng(20261018)
    edges = (32.0 / np.arange(1, 33) - 1.0) * math.sqrt(8.0)
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return np.concatenate([
        rng.uniform(-38.0, 40.0, 3000),
        np.exp(rng.uniform(math.log(1e-6), math.log(1e5), 2000)),
        edges, -edges, [-38.0, 1e5],
    ])


def _mp_log_q(x):
    """log Q(x) at 60 digits."""
    with mp.workdps(60):
        q = _mp_normal_q(x)
        return mp.log(q) if x > 0.0 else mp.log1p(-_mp_normal_q(-x))


def _kernel(xs):
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        return arrays._normal_log_sf_array(xs)


def test_normal_log_sf_array_against_mpmath():
    xs = _kernel_points()
    assert len(xs) >= 5000
    got = _kernel(xs)
    for x, g in zip(xs.tolist(), got.tolist()):
        ref = _mp_log_q(x)
        err = abs(mp.mpf(g) - ref)
        if x > 0.0:
            assert err <= 4 * math.ulp(float(ref)), x
        else:
            assert _close(g, ref, 1e-14), x


def test_normal_log_sf_array_matches_scalar():
    xs = _kernel_points()
    got = _kernel(xs)
    for x, g in zip(xs.tolist(), got.tolist()):
        s = wt.catalog._normal_log_sf(x)
        if x > 0.0:
            # each within a few ulp of mpmath
            assert abs(g - s) <= 6 * math.ulp(s), x
        else:
            assert abs(g - s) <= 2e-14 * abs(s) + 1e-322, x


def test_normal_log_sf_array_special_values():
    xs = np.array([-math.inf, -38.0, -0.0, 0.0, 38.0, 1e200, math.inf])
    got = _kernel(xs)
    assert got[0] == 0.0 and got[-1] == -math.inf and got[-2] == -math.inf
    # a NaN gives NaN, without a warning, and the other points their bits
    with_nan = _kernel(np.insert(xs, 4, math.nan))
    assert math.isnan(with_nan[4])
    assert np.delete(with_nan, 4).tobytes() == got.tobytes()
    positive_nan = _kernel(np.array([38.0, math.nan, 1e200]))
    assert math.isnan(positive_nan[1]) and positive_nan[[0, 2]].tobytes() == got[[4, 5]].tobytes()
    assert got[2] == got[3] == -math.log(2.0)
    # log Q(-38) = -Q(38), a subnormal
    assert _close(got[1], _mp_log_q(-38.0), 1e-14) and 0.0 > got[1] > -1e-315
    assert abs(got[4] - float(_mp_log_q(38.0))) <= 4 * math.ulp(got[4])
    wide = np.linspace(-1e200, 1e200, 100)
    assert _kernel(wide).tolist() == [0.0 if x < 0.0 else -math.inf for x in wide.tolist()]


def test_normal_log_sf_table_reproducible():
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_normal_log_sf.py"
    spec = importlib.util.spec_from_file_location("gen_normal_log_sf", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rebuilt = gen.coefficient_table()
    assert [[c.hex() for c in row] for row in rebuilt] == [
        [c.hex() for c in row] for row in arrays._NORMAL_LOG_SF_TABLE
    ]
    assert gen.INTERVALS == arrays._NORMAL_LOG_SF_PIECES
