"""Correctness checks, run after the timed region.

* An mpmath oracle at 30 digits checks |T(b_n) - log n|, a_n = 1/k(b_n),
  H(b_asymptotic) = log n and gamma_n = -k'(b_n)/k(b_n)^2 on a seeded
  sample of ops, gamma included up to log n = 700.
* error_comparison: sup errors in [0, 1], each argmax on the grid, the
  clip count and gamma_used consistent with the oracle.
* CLI: stdout must equal in-process ``cli.main`` byte for byte, parse
  back to the library's values for the same config, and ``report`` must
  validate against the package's JSON schema.  A refused invocation must
  carry the error code the library raises for the same config.

The check_* entry points return a list of (op index, description)
pairs; every op with at least one counts as a failed op.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys

import mpmath as mp

import decks
import worker

mp.mp.dps = 30

TOL_LEVEL = 1e-10  # |T(b) - log n| and |H(b_asym) - log n|, relative to max(1, log n)
TOL_SCALE = 1e-9  # |a k(b) - 1|
TOL_GAMMA = 1e-7  # relative; plus an absolute 1e-12 for the exact-Gumbel zero
FAILURE_CODES = ("tail_underflow", "below_range", "bracket_miss", "eval_failure",
                 "mismatch", "untyped")


def _per_layer_units():
    units = {
        "import.weibtail_s": "s",
        "import.catalog_s": "s",
        "import.numpy_s": "s",
        "catalog.build_model_ms": "ms",
    }
    for name in decks.MODELS:
        units[f"model.gumbel_coordinate_us.{name}"] = "us"
    for name in decks.MODELS:
        units[f"model.gumbel_coordinate_inverse_us.{name}"] = "us"
    units["root.evals_per_solve"] = "count"
    for order in (1, 2, 3):
        units[f"model.k_derivative_us.o{order}"] = "us"
    units["kjet.hazard_calls_per_point"] = "count"
    for fn in ("norming", "penultimate_index", "error_comparison", "condition_sweep"):
        units[f"model.evals_per_op.{fn}"] = "count"
    units["maxima.useful_eval_ratio"] = "ratio"
    for span in ("norming.norming", "penultimate.penultimate_index",
                 "penultimate.error_comparison", "vonmises.condition_sweep"):
        for name in decks.MODELS:
            units[f"{span}.{name}.self_ms"] = "ms"
            units[f"{span}.{name}.busy_share"] = "ratio"
    units["cli.self_ms"] = "ms"
    units["cli.bytes_out"] = "bytes"
    for code in FAILURE_CODES + ("other",):
        units[f"failed.{code}"] = "count"
    units["reach.gamma_refused_frac"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


# ----------------------------------------------------------------------
# mpmath oracle
# ----------------------------------------------------------------------


def theta_of(spec):
    p = spec.kwargs()
    if spec.name == "pure-weibull":
        return p["theta"]
    if spec.name == "extended-weibull":
        return 1.0 / p["beta"]
    if spec.name == "normal":
        return 0.5
    return 1.0


def hazard_mp(spec, x):
    """H(x): x^(1/theta) l(x) for the tail families, -log(1 - F) classically."""
    x = mp.mpf(x)
    p = spec.kwargs()
    name = spec.name
    if name == "pure-weibull":
        return x ** (1 / mp.mpf(p["theta"]))
    if name == "extended-weibull":
        return x ** mp.mpf(p["beta"]) * mp.log(x)
    if name in ("exponential", "gumbel-fixture"):
        return x
    if name == "normal":
        return -mp.log(mp.erfc(x / mp.sqrt(2)) / 2)
    if name == "logistic":
        return mp.log1p(mp.exp(x))
    if name == "gamma":
        return -mp.log(mp.gammainc(mp.mpf(p["shape"]), x, mp.inf, regularized=True))
    raise ValueError(name)


def gumbel_mp(spec, x):
    """T(x) = -log(-log F(x))."""
    h = hazard_mp(spec, x)
    if spec.name == "gumbel-fixture":  # -log F = e^-H
        return h
    return -mp.log(-mp.log1p(-mp.exp(-h)))


def k_mp(spec, x, order=0):
    return mp.diff(lambda y: gumbel_mp(spec, y), mp.mpf(x), order + 1)


def phi_mp(spec, x):
    k = k_mp(spec, x)
    return -k_mp(spec, x, 1) / (k * k)


def solve_b_mp(spec, log_n, start):
    return mp.findroot(lambda y: gumbel_mp(spec, y) - log_n, mp.mpf(start))


def check_norming(spec, log_n, out):
    bad = []
    b, b_asym, a = out["b_exact"], out["b_asymptotic"], out["a_scale"]
    scale = max(1.0, log_n)
    err = abs(gumbel_mp(spec, b) - log_n) / scale
    if not err <= TOL_LEVEL:
        bad.append(f"|T(b_n) - log n| = {float(err):.3g} * max(1, log n)")
    err = abs(hazard_mp(spec, b_asym) - log_n) / scale
    if not err <= TOL_LEVEL:
        bad.append(f"|H(b_asymptotic) - log n| = {float(err):.3g} * max(1, log n)")
    err = abs(a * k_mp(spec, b) - 1)
    if not err <= TOL_SCALE:
        bad.append(f"|a_n k(b_n) - 1| = {float(err):.3g}")
    return bad


def _gamma_close(value, exact):
    return abs(value - exact) <= TOL_GAMMA * abs(exact) + 1e-12


def oracle_gamma(wt, spec, log_n):
    """gamma_n at the oracle's own b_n; the library's inverse only seeds the solve."""
    model = wt.build_model(spec.name, **spec.kwargs())
    b = solve_b_mp(spec, log_n, wt.gumbel_coordinate_inverse(model, log_n))
    return phi_mp(spec, b)


def check_penultimate(wt, spec, log_n, out):
    bad = []
    g = oracle_gamma(wt, spec, log_n)
    if not _gamma_close(out["gamma_exact"], g):
        bad.append(f"gamma_exact {out['gamma_exact']!r} vs oracle {mp.nstr(g, 12)}")
    theta = theta_of(spec)
    if abs(theta - 1.0) < 1e-12:
        if out["classification"] != "excluded_theta_one" or out["error"] != "theta_one_excluded":
            bad.append("theta = 1 not excluded")
    else:
        expect = "frechet" if theta > 1.0 else "weibull"
        if out["classification"] != expect:
            bad.append(f"classification {out['classification']} != {expect}")
        if out["gamma_asymptotic"] != (theta - 1.0) / log_n:
            bad.append("gamma_asymptotic != (theta - 1)/log n")
        if out["rate_ultimate"] != (1.0 - theta) / log_n:
            bad.append("rate_ultimate != (1 - theta)/log n")
    return bad


def check_error_comparison(wt, spec, op, out):
    import numpy as np

    bad = []
    xs = np.linspace(*op.grid[:2], int(op.grid[2]))
    grid = set(xs.tolist())
    for key in ("sup_error_ultimate", "sup_error_penultimate"):
        if not 0.0 <= out[key] <= 1.0:
            bad.append(f"{key} = {out[key]!r} outside [0, 1]")
    for key in ("argmax_ultimate", "argmax_penultimate"):
        if out[key] not in grid:
            bad.append(f"{key} = {out[key]!r} not on the grid")
    gamma = out["gamma_used"]
    if op.gamma_mode == "asymptotic":
        if gamma != (theta_of(spec) - 1.0) / op.log_n:
            bad.append("asymptotic gamma_used != (theta - 1)/log n")
    elif not _gamma_close(gamma, oracle_gamma(wt, spec, op.log_n)):
        bad.append(f"gamma_used {gamma!r} disagrees with the oracle")
    clipped = int((1.0 + gamma * xs <= 0.0).sum()) if gamma != 0.0 else 0
    if out["n_clipped"] != clipped:
        bad.append(f"n_clipped {out['n_clipped']} != {clipped}")
    return bad


def check_condition_sweep(spec, op, out):
    bad = []
    allowed = {"confirmed_decaying", "confirmed_limit", "not_confirmed"}
    if set(out["verdicts"].values()) - allowed:
        bad.append(f"unknown verdict kinds {out['verdicts']}")
    finite = [(t, v) for t, v in zip(op.t_grid, out["first_order"]) if v is not None]
    if finite:
        t, v = finite[0]
        if not _gamma_close(v, phi_mp(spec, t)):
            bad.append(f"first_order at t={t!r}: {v!r} disagrees with the oracle")
    return bad


def _import_weibtail(root):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import weibtail as wt

    return wt


def check_op(wt, deck, i, out):
    op = deck.ops[i]
    spec = deck.models[op.entry]
    if op.fn == "norming":
        bad = check_norming(spec, op.log_n, out)
    elif op.fn == "penultimate_index":
        bad = check_penultimate(wt, spec, op.log_n, out)
    elif op.fn == "error_comparison":
        bad = check_error_comparison(wt, spec, op, out)
    else:
        bad = check_condition_sweep(spec, op, out)
    return [(i, f"op {i} {op.fn} {spec.name} {dict(spec.params)} log n {op.log_n}: {b}")
            for b in bad]


def check_warm(deck, outputs, root):
    """Oracle checks on the sampled ops' recorded outputs (keys are op indices)."""
    wt = _import_weibtail(root)
    bad = []
    for key, out in sorted(outputs.items(), key=lambda kv: int(kv[0])):
        bad += check_op(wt, deck, int(key), out)
    return bad


def check_trace(deck, res, root):
    if deck.workload != "cli-cold":
        return check_warm(deck, res["outputs"], root)
    results = {int(i): (rc, out.encode(), err.encode())
               for i, (rc, out, err) in res["cli_results"].items()}
    return check_cli(deck, results, root)


def check_reach(seed, outputs, root):
    """Oracle checks on the gamma reach probe's answers (refusals are not checked)."""
    return [(i, f"gamma reach probe: {msg}")
            for i, msg in check_warm(decks.gamma_reach(seed), outputs, root)]


# ----------------------------------------------------------------------
# CLI output
# ----------------------------------------------------------------------


def run_cli_in_process(wt, argv):
    from weibtail import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue().encode(), err.getvalue().encode()


def _field(res, name):
    value = getattr(res, name)
    return getattr(value, "value", value)


def _same(cell, expected, csv_cell):
    """A parsed CSV cell (string) or JSON value against the library value."""
    if isinstance(expected, float) and not math.isfinite(expected):
        if math.isnan(expected) or not csv_cell:
            return cell in ("", None)
        return cell == format(expected, ".17g")
    if expected is None:
        return cell in ("", None)
    if not csv_cell:
        return cell == expected
    if isinstance(expected, bool):
        return cell == ("true" if expected else "false")
    if isinstance(expected, int):
        return cell == str(expected)
    if isinstance(expected, float):
        try:
            return float(cell) == expected
        except ValueError:
            return False
    return cell == str(expected)


def _compare_rows(rows, results, csv_cells, label):
    bad = []
    if len(rows) != len(results):
        return [f"{label}: {len(rows)} rows, library gives {len(results)}"]
    for row, res in zip(rows, results):
        for col, cell in row.items():
            if not hasattr(res, col):
                continue
            if not _same(cell, _field(res, col), csv_cells):
                bad.append(f"{label}: {col} = {cell!r}, library {_field(res, col)!r}")
    return bad


def _compare_sweep(payload, rep, csv_cells, label):
    bad = []
    if csv_cells:
        points = [r for r in payload if r["row_type"] == "point"]
        if len(points) != len(rep.t_grid):
            return [f"{label}: {len(points)} sweep rows, library {len(rep.t_grid)}"]
        for j, row in enumerate(points):
            for col, cell in row.items():
                if col == "row_type":
                    continue
                expect = rep.t_grid[j] if col == "t" else getattr(rep, col)[j]
                if not _same(cell, expect, True):
                    bad.append(f"{label}: {col}[{j}] = {cell!r}, library {expect!r}")
        return bad
    for name, seq in payload["sequences"].items():
        for j, value in enumerate(seq):
            if not _same(value, getattr(rep, name)[j], False):
                bad.append(f"{label}: {name}[{j}] = {value!r}, library {getattr(rep, name)[j]!r}")
    for name, v in payload["verdicts"].items():
        if v["kind"] != rep.verdicts[name].kind:
            bad.append(f"{label}: verdict {name} {v['kind']} != {rep.verdicts[name].kind}")
    return bad


def _library(wt, deck, op):
    spec = deck.models[op.entry]
    model = wt.build_model(spec.name, **spec.kwargs())
    results = {}
    for fn, ln in worker.cli_calls(op):
        results.setdefault(fn, []).append(worker.library_call(wt, fn, model, op, ln))
    return results


def check_cli_output(wt, deck, i, rc, out, err, schema):
    op = deck.ops[i]
    argv = decks.cli_argv(deck, op)
    label = f"op {i} weibtail {' '.join(argv)}"
    exp_rc, exp_out, exp_err = run_cli_in_process(wt, argv)
    bad = []
    if rc != exp_rc or out != exp_out:
        bad.append(f"{label}: subprocess output differs from in-process cli.main "
                   f"(exit {rc} vs {exp_rc})")
    if rc != 0:
        if rc == 3:
            try:
                _library(wt, deck, op)
                bad.append(f"{label}: exit 3 but the library succeeds")
            except wt.errors.WeibtailError as exc:
                if f'"code": "{exc.code}"' not in err.decode():
                    bad.append(f"{label}: error code differs from library's {exc.code}")
        else:
            bad.append(f"{label}: exit {rc}")
        return bad
    text = out.decode()
    if op.fn == "models":
        rows = list(csv.DictReader(io.StringIO(text))) if op.fmt == "csv" \
            else json.loads(text)["rows"]
        if sorted(r["name"] for r in rows) != sorted(wt.CATALOG):
            bad.append(f"{label}: model list differs from the catalog")
        return bad
    lib = _library(wt, deck, op)
    is_csv = op.fmt == "csv" and op.fn != "report"
    if op.fn == "report":
        doc = json.loads(text)
        import jsonschema

        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            bad.append(f"{label}: report fails the schema: {exc.message}")
        sections = {"norming": "norming", "penultimate": "penultimate_index",
                    "errors": "error_comparison"}
        for key, fn in sections.items():
            bad += _compare_rows(doc[key], lib[fn], False, f"{label} [{key}]")
        bad += _compare_sweep(doc["vonmises"], lib["condition_sweep"][0], False, label)
        rows = doc["norming"]
    elif op.fn == "vonmises":
        payload = list(csv.DictReader(io.StringIO(text))) if is_csv else json.loads(text)["rows"]
        bad += _compare_sweep(payload, lib["condition_sweep"][0], is_csv, label)
        rows = []
    else:
        rows = list(csv.DictReader(io.StringIO(text))) if is_csv else json.loads(text)["rows"]
        fn = worker.CLI_LIBRARY_FNS[op.fn][0]
        bad += _compare_rows(rows, lib[fn], is_csv, label)
    if op.fn in ("norming", "report"):
        spec = deck.models[op.entry]
        for row, ln in zip(rows, op.log_n_list):
            out_vals = {k: float(row[k]) for k in ("b_exact", "b_asymptotic", "a_scale")}
            bad += [f"{label}: {b}" for b in check_norming(spec, ln, out_vals)]
    return bad


def check_cli(deck, cli_results, root):
    """cli_results: op index -> (exit code, stdout bytes, stderr bytes)."""
    wt = _import_weibtail(root)
    with open(os.path.join(root, "src", "weibtail", "schemas", "report.schema.json")) as fh:
        schema = json.load(fh)
    bad = []
    for i, (rc, out, err) in sorted(cli_results.items()):
        bad += [(i, msg) for msg in check_cli_output(wt, deck, i, rc, out, err, schema)]
    return bad
