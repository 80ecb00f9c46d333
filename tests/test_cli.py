"""CLI contract: formats, determinism, exit codes, report schema."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import weibtail as wt
from weibtail import cli, numerics
from weibtail.catalog import CATALOG


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


# ----------------------------------------------------------------- models

def test_models_lists_catalog():
    code, out, _ = run_cli(["models"])
    assert code == 0
    rows = {r["name"]: r for r in parse_csv(out)}
    assert rows["normal"]["theta_reference"] == "theta = 1/2"
    assert rows["normal"]["theta_is_one"] == "false"
    assert rows["exponential"]["theta_is_one"] == "true"
    assert "alpha" in rows["pure-weibull"]["parameters"]
    assert rows["gumbel-fixture"]["family"] == "log_cdf_exp"


def test_models_alpha_parameterization():
    # Weibull with alpha = 4 resolves to theta = 0.25
    code, out, _ = run_cli(
        ["penultimate", "--model", "pure-weibull", "--alpha", "4", "--log-n", "25"]
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["gamma_asymptotic"]) == pytest.approx((0.25 - 1.0) / 25.0)


# ------------------------------------------------------------- penultimate

def test_penultimate_csv_header_and_values():
    code, out, _ = run_cli(
        ["penultimate", "--model", "pure-weibull", "--theta", "2", "--log-n", "25"]
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == (
        "log_n,gamma_exact,gamma_asymptotic,classification,"
        "rate_ultimate,rate_penultimate,gamma_prime_exact"
    )
    row = parse_csv(out)[0]
    assert float(row["gamma_asymptotic"]) == pytest.approx(0.04)
    assert row["classification"] == "frechet"


def test_penultimate_theta_one_blank_fields():
    code, out, _ = run_cli(["penultimate", "--model", "exponential", "--log-n", "10"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["classification"] == "excluded_theta_one"
    assert row["gamma_asymptotic"] == ""
    assert float(row["gamma_exact"]) > 0.0


# ------------------------------------------------------------------ errors

def test_errors_normal_inequality():
    code, out, _ = run_cli(
        ["errors", "--model", "normal", "--log-n", "6.9078", "--grid", "-3:6:1000"]
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["sup_error_penultimate"]) < float(row["sup_error_ultimate"])


def test_errors_n_flag_conversion():
    code, out, _ = run_cli(["errors", "--model", "normal", "--n", "1000"])
    assert code == 0
    assert float(parse_csv(out)[0]["log_n"]) == pytest.approx(math.log(1000.0))


def test_errors_gamma_mode_asymptotic():
    code, out, _ = run_cli(
        ["errors", "--model", "pure-weibull", "--theta", "2", "--log-n", "20",
         "--gamma-mode", "asymptotic"]
    )
    assert code == 0
    assert float(parse_csv(out)[0]["gamma_used"]) == pytest.approx(0.05)


# ---------------------------------------------------------------- vonmises

def test_vonmises_verdict_row():
    code, out, _ = run_cli(
        ["vonmises", "--model", "pure-weibull", "--theta", "0.5",
         "--t-grid", "1e2,1e4,1e6,1e8,1e10"]
    )
    assert code == 0
    rows = parse_csv(out)
    points = [r for r in rows if r["row_type"] == "point"]
    verdicts = [r for r in rows if r["row_type"] == "verdict"]
    assert len(points) == 5 and len(verdicts) == 1
    kind, value = verdicts[0]["gomes84"].split(":")
    assert kind == "confirmed_limit"
    assert float(value) == pytest.approx(2.0, rel=0.05)


def test_vonmises_fixture_degenerate_json():
    code, out, _ = run_cli(["vonmises", "--model", "gumbel-fixture", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"]["verdicts"]["gomes84"]["reason"] == "degenerate"
    assert doc["rows"]["sequences"]["gomes84"][0] is None  # NaN serialized as null
    assert doc["rows"]["verdicts"]["first_order"]["kind"] == "confirmed_decaying"


# ------------------------------------------------------------------ report

@pytest.fixture(scope="module")
def report_weibull():
    code, out, _ = run_cli(
        ["report", "--model", "pure-weibull", "--theta", "2", "--log-n", "10,20,40"]
    )
    assert code == 0
    return json.loads(out)


def test_report_sections_and_verdicts(report_weibull):
    doc = report_weibull
    assert set(doc) == {"meta", "norming", "penultimate", "errors", "vonmises"}
    assert doc["meta"]["tool"] == "weibtail"
    assert doc["meta"]["tolerances"]
    for name, v in doc["vonmises"]["verdicts"].items():
        assert v["kind"].startswith("confirmed"), name
    for row in doc["errors"]:
        assert row["sup_error_penultimate"] <= row["sup_error_ultimate"]


def test_report_validates_against_schema(report_weibull):
    schema = json.loads(
        resources.files("weibtail").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(report_weibull, schema)


def test_report_exponential_theta_one_code():
    code, out, _ = run_cli(["report", "--model", "exponential", "--log-n", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["penultimate"][0]["asymptotic"] == {"error": "theta_one_excluded"}
    jsonschema.validate(
        doc,
        json.loads(
            resources.files("weibtail").joinpath("schemas/report.schema.json").read_text()
        ),
    )


def test_report_fixture_zero_errors():
    code, out, _ = run_cli(["report", "--model", "gumbel-fixture", "--log-n", "10,20"])
    assert code == 0
    doc = json.loads(out)
    for row in doc["errors"]:
        assert row["sup_error_ultimate"] <= 1e-12
        assert row["sup_error_penultimate"] <= 1e-12
        assert row["remainder_max_deviation"] is None


# ----------------------------------------------------------- determinism

def test_byte_identical_output(tmp_path):
    argv = ["report", "--model", "pure-weibull", "--theta", "0.5", "--log-n", "10,20"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(argv + ["--out", str(p1)])
    run_cli(argv + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_line_endings_fixed(tmp_path):
    p = tmp_path / "rows.csv"
    run_cli(["norming", "--model", "normal", "--log-n", "10", "--out", str(p)])
    data = p.read_bytes()
    assert b"\r" not in data


# ------------------------------------------------------------- exit codes

def test_exit_code_usage_error():
    code, _, _ = run_cli(["penultimate", "--model", "no-such-model", "--log-n", "10"])
    assert code == 2
    code, _, _ = run_cli(["penultimate", "--model", "normal", "--theta", "2", "--log-n", "5"])
    assert code == 2  # normal takes no parameters


@pytest.mark.parametrize("argv", [
    ["norming", "--model", "normal", "--n", "inf"],
    ["norming", "--model", "normal", "--n", "nan"],
    ["norming", "--model", "normal", "--log-n", "10,inf"],
    ["norming", "--model", "normal", "--log-n", "abc"],
    ["vonmises", "--model", "normal", "--t-grid", "1e2,nan"],
    ["norming", "--model", "pure-weibull", "--theta", "inf", "--log-n", "10"],
    ["norming", "--model", "pure-weibull", "--alpha", "0", "--log-n", "10"],
    ["norming", "--model", "extended-weibull", "--beta", "2", "--delta", "inf", "--log-n", "10"],
    ["norming", "--model", "extended-weibull", "--beta", "2", "--delta", "nan", "--log-n", "10"],
    ["norming", "--model", "gamma", "--shape", "inf", "--log-n", "10"],
], ids=["n-inf", "n-nan", "log-n-inf", "log-n-text", "t-grid-nan", "theta-inf", "alpha-0",
        "delta-inf", "delta-nan", "shape-inf"])
def test_exit_code_non_finite_input(argv):
    # refused as usage before any numerics run
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["errors", "--model", "extended-weibull"],
     "model 'extended-weibull' needs parameter(s) ['beta']"),
    (["norming", "--model", "extended-weibull", "--delta", "2", "--log-n", "10"],
     "model 'extended-weibull' needs parameter(s) ['beta']"),
    # a Weibull with alpha ~ 206 and scale 0.004: its constant scale^-alpha
    # overflowed while the model was built
    (["norming", "--model", "pure-weibull", "--theta", "0.004852484833185702",
      "--scale", "0.004062923054384831", "--log-n", "12.38"],
     "scale ** (-1/theta) = 0.00406292 ** -206.08 is past the double range"),
    # the support floor e^(1/2 - delta/beta) overflowed while the model was built
    (["vonmises", "--model", "extended-weibull", "--beta", "2.882503215451707e-80",
      "--delta", "-1"], "support floor exp(3.46921e+79) is past the double range"),
], ids=["ext-no-beta", "ext-delta-only", "pure-constant-overflow", "ext-floor-overflow"])
def test_exit_code_model_parameters(argv, message):
    # once a TypeError or OverflowError traceback while the model was built
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert f"error: {message}" in err


@pytest.mark.parametrize("shape", ["1000.5", "1e20", "1e300"])
def test_exit_code_gamma_shape_above_bound(shape):
    # once a traceback from the incomplete gamma (1e20, 1e300), or numbers
    # past the accuracy bound; now refused as usage
    code, out, err = run_cli(["norming", "--model", "gamma", "--shape", shape, "--log-n", "10"])
    assert (code, out) == (2, "")
    assert "error: shape must be in [1e-14, 1000]" in err


@pytest.mark.parametrize("shape", ["1e-17", "1e-300", "5e-324"])
def test_exit_code_gamma_shape_below_bound(shape):
    # once a "math domain error" traceback from log(1 - P), where the
    # series' log P rounds positive; now refused as usage
    for command in ("norming", "errors"):
        code, out, err = run_cli([command, "--model", "gamma", "--shape", shape, "--log-n", "1"])
        assert (code, out) == (2, "")
        assert "error: shape must be in [1e-14, 1000]" in err


def test_exit_code_numeric_failure():
    code, _, err = run_cli(["norming", "--model", "pure-weibull", "--theta", "2",
                            "--log-n", "-5"])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["code"] == "invalid_block_size"


EXT_BETA2 = ["--model", "extended-weibull", "--beta", "2"]
GAMMA2 = ["--model", "gamma", "--shape", "2"]
# the extended-Weibull support floor H = e^2, met at the H level y = log n
# by b_asymptotic and at the exact level T = log n by b_exact
BELOW_H = ('{"error": {"code": "below_range", '
           '"message": "y=1.0 below H(support) = 7.3890560989306495"}}\n')
BELOW_T = ('{"error": {"code": "below_range", '
           '"message": "y=1.1783070964207178 below H(support) = 7.3890560989306495"}}\n')
SHORT_GRID = ('{"error": {"code": "insufficient_grid", '
              '"message": "grid needs at least 100 points, got 10"}}\n')
NEGATIVE_LOG_N = ('{"error": {"code": "invalid_block_size", '
                  '"message": "log n must be positive, got -5.0"}}\n')
THETA_ONE = ('{"error": {"code": "theta_one_excluded", '
             '"message": "gamma(shape=2): asymptotic gamma undefined at theta = 1"}}\n')


@pytest.mark.parametrize("argv, err", [
    # norming: the log n check, then b_asymptotic = H^-1(log n), then b_exact
    (["norming", *EXT_BETA2, "--log-n", "1"], BELOW_H),
    (["norming", *EXT_BETA2, "--log-n", "10,1"], BELOW_H),
    # report: its norming pass runs first, over every log n
    (["report", *EXT_BETA2, "--log-n", "1"], BELOW_H),
    (["report", *EXT_BETA2, "--log-n", "10,1"], BELOW_H),
    (["report", "--model", "normal", "--grid", "-3:6:10", "--log-n", "10,-5"], NEGATIVE_LOG_N),
    (["report", *GAMMA2, "--gamma-mode", "asymptotic", "--log-n", "10,-5"], NEGATIVE_LOG_N),
    # penultimate and errors solve b_exact only
    (["penultimate", *EXT_BETA2, "--log-n", "1"], BELOW_T),
    (["penultimate", *EXT_BETA2, "--log-n", "10,1"], BELOW_T),
    (["errors", *EXT_BETA2, "--log-n", "1"], BELOW_T),
    (["errors", *EXT_BETA2, "--log-n", "10,1"], BELOW_T),
    # errors: the grid before the log n; each log n in turn
    (["errors", "--model", "normal", "--grid", "-3:6:10", "--log-n", "-5"], SHORT_GRID),
    (["errors", *GAMMA2, "--gamma-mode", "asymptotic", "--log-n", "10,-5"], THETA_ONE),
], ids=["norming-1", "norming-10-1", "report-1", "report-10-1", "report-grid-10-neg",
        "report-gamma-asym-10-neg", "penultimate-1", "penultimate-10-1", "errors-1",
        "errors-10-1", "errors-grid-neg", "errors-gamma-asym-10-neg"])
def test_refusal_order(argv, err):
    # an input that fails two checks is refused by the first one each
    # command makes, with the same code and message bytes
    assert run_cli(argv) == (3, "", err)


@pytest.mark.parametrize("model", [
    ["--model", "normal"],
    ["--model", "extended-weibull", "--beta", "0.5"],
    GAMMA2,
    ["--model", "pure-weibull", "--theta", "2"],
], ids=["normal", "ext-beta05", "gamma-2", "pure-weibull"])
def test_root_solves_per_log_n(monkeypatch, model):
    # one Location per log n: report reuses the b_exact of its norming pass
    # in the penultimate and error sections; pure-Weibull has closed forms
    calls = []
    solve = numerics.solve_increasing

    def counted_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(numerics, "solve_increasing", counted_solve)
    per_log_n = {"norming": 2, "penultimate": 1, "errors": 1, "report": 2}
    if model[1] == "pure-weibull":
        per_log_n = dict.fromkeys(per_log_n, 0)
    for command, solves in per_log_n.items():
        calls.clear()
        code, _, err = run_cli([command, *model, "--log-n", "10,20,40"])
        assert (code, err) == (0, "")
        assert len(calls) == 3 * solves, command


@pytest.mark.parametrize("grid", ["-3:inf:1000", "-1e308:1e308:1000"])
def test_exit_code_non_finite_grid(grid):
    code, out, err = run_cli(["errors", "--model", "normal", "--log-n", "5", "--grid", grid])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["code"] == "insufficient_grid"


@pytest.mark.parametrize("model, log_n, grid", [
    (["--model", "normal"], "5", "-1e200:1e200:1000"),  # x^2 overflows
    (["--model", "pure-weibull", "--theta", "2"], "100", "-1e307:1e307:1000"),  # a x overflows
    (["--model", "logistic"], "100", "-1e307:1e307:1000"),  # (gamma x)^2 in the GEV series
])
def test_errors_huge_window(model, log_n, grid):
    # a finite window far wider than the Gumbel mass: no grid point lands in
    # it, so both sup errors are 0, and g_0 = 0 at every point leaves the
    # remainder without a denominator; nothing overflows on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["errors", *model, "--log-n", log_n, "--grid", grid])
    assert (code, err) == (0, "")
    row = parse_csv(out)[0]
    assert float(row["sup_error_ultimate"]) == 0.0
    assert float(row["sup_error_penultimate"]) == 0.0
    assert row["remainder_max_deviation"] == ""


def test_exit_code_theta_one_gamma_mode():
    code, _, err = run_cli(["errors", "--model", "gumbel-fixture", "--log-n", "10",
                            "--gamma-mode", "asymptotic"])
    assert code == 3
    assert json.loads(err)["error"]["code"] == "theta_one_excluded"


PURE2 = ["--model", "pure-weibull", "--theta", "2"]


@pytest.mark.parametrize("argv, code", [
    # log^2 n underflows to 0, or 2 theta (1 - theta)/log^2 n to -inf
    (["penultimate", *PURE2, "--log-n", "1e-300"], "eval_failure"),
    (["penultimate", *PURE2, "--log-n", "1e-160"], "eval_failure"),
    (["penultimate", *PURE2, "--log-n", "1e-160", "--format", "json"], "eval_failure"),
    (["report", *PURE2, "--log-n", "1e-160"], "eval_failure"),
    # (theta - 1)/log n overflows
    (["errors", *PURE2, "--gamma-mode", "asymptotic", "--log-n", "1e-310"], "eval_failure"),
    # a float ** in the analytic k-jet overflows
    (["norming", "--model", "pure-weibull", "--theta", "1e-100", "--log-n", "10"],
     "eval_failure"),
    (["norming", "--model", "normal", "--log-n", "1e200"], "eval_failure"),
    (["norming", "--model", "extended-weibull", "--beta", "50", "--log-n", "1e200"],
     "eval_failure"),
    (["norming", "--model", "gumbel-fixture", "--log-n", "1e200"], "eval_failure"),
    (["norming", *GAMMA2, "--log-n", "1e200"], "eval_failure"),
    # above f at the capped right end of the bracket, not below the range
    (["norming", "--model", "exponential", "--log-n", "1e301"], "bracket_miss"),
    # l = (log x)^delta past the double range just above the support floor;
    # once an OverflowError traceback
    (["penultimate", "--model", "extended-weibull", "--beta", "0.077", "--delta", "9.1e235",
      "--log-n", "40.6"], "domain_error"),
], ids=["pen-1e-300", "pen-1e-160", "pen-1e-160-json", "report-1e-160", "errors-asym-1e-310",
        "pure-theta-1e-100", "normal-1e200", "ext-beta50-1e200", "gumbel-1e200", "gamma-1e200",
        "exp-1e301", "ext-log-power-overflow"])
def test_extreme_inputs_refused_with_a_code(argv, code):
    exit_code, out, err = run_cli(argv)
    assert (exit_code, out) == (3, "")
    assert json.loads(err)["error"]["code"] == code


CSV_POINT_COLUMNS = cli.CSV_HEADERS["vonmises"][2:]


def test_vonmises_underflowing_k_is_a_typed_point_failure():
    # theta ~ 5.6e201: k ~ 1e-204 at every point, whose k^2 rounds to 0;
    # once a ZeroDivisionError traceback from phi = -k'/k^2.  A sweep
    # records a point's refusal as inf with its code, as for any point
    argv = ["vonmises", "--model", "pure-weibull", "--alpha", "1.7912082442538627e-202"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert all(r[c] == "inf" for r in rows[:-1] for c in CSV_POINT_COLUMNS)
    assert all(rows[-1][c] == "not_confirmed:eval_failure" for c in CSV_POINT_COLUMNS)
    report = wt.condition_sweep(wt.pure_weibull(alpha=1.7912082442538627e-202), cli.DEFAULT_T_GRID)
    assert report.point_codes == ("eval_failure",) * len(cli.DEFAULT_T_GRID)


# ------------------------------------------------------ exit codes under fuzz

# argv drawn as a fuzzer draws it: every model command and catalog model,
# parameters and log n from 1e-3 to 1e3, from 1e-300 to 1e300 or at edge
# values, windows, t-grids, both formats and both gamma modes
_EDGE_VALUES = ("0", "-1", "inf", "nan", "1", "5e-324", "1.7976931348623157e308", "1e-300",
                "1e300")


def _number():
    return st.one_of(st.sampled_from(_EDGE_VALUES),
                     st.floats(-3.0, 3.0).map(lambda e: repr(10.0**e)),
                     st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e)))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("norming", "penultimate", "errors", "vonmises", "report")))
    name = draw(st.sampled_from(sorted(CATALOG)))
    argv = [command, "--model", name]
    for param in CATALOG[name].params:
        if draw(st.booleans()):
            argv += [f"--{param}", draw(_number())]
    if command != "vonmises" and draw(st.booleans()):
        argv += ["--log-n", ",".join(draw(st.lists(_number(), min_size=1, max_size=3)))]
    if command in ("errors", "report") and draw(st.booleans()):
        lo, width = draw(st.floats(-10.0, 2.0)), 10.0 ** draw(st.floats(-1.0, 2.0))
        count = draw(st.sampled_from((10, 100, 1000, 1001, 3000)))
        argv += ["--grid", f"{lo!r}:{lo + width!r}:{count}"]
    if command in ("vonmises", "report") and draw(st.booleans()):
        t0, points = 10.0 ** draw(st.floats(-3.0, 5.0)), draw(st.integers(4, 7))
        argv += ["--t-grid", ",".join(repr(t0 * 10.0**k) for k in range(points))]
    argv += ["--format", draw(st.sampled_from(("csv", "json"))),
             "--gamma-mode", draw(st.sampled_from(("exact", "asymptotic")))]
    return argv


def _check_success(argv, out):
    """Finite numbers, apart from a sweep's inf points; a report that
    validates against the schema."""
    if argv[0] == "report" or "json" in argv:
        doc = json.loads(out)  # strict JSON: a NaN or inf would not parse
        if argv[0] == "report":
            jsonschema.validate(doc, _REPORT_SCHEMA)
        return
    for row in parse_csv(out):
        for cell in row.values():
            try:
                value = float(cell)
            except ValueError:
                continue  # text: a classification or a verdict
            inf_point = argv[0] == "vonmises" and row["row_type"] == "point" and value == math.inf
            assert math.isfinite(value) or inf_point, (argv, row)


_REPORT_SCHEMA = json.loads(resources.files("weibtail").joinpath("schemas/report.schema.json")
                            .read_text())
_README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_exit_codes_under_fuzz():
    seen = {}

    @seed(20261019)
    @settings(max_examples=250, deadline=None, database=None)
    @given(_argv())
    def check(argv):
        code, out, err = run_cli(argv)
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err, argv
        if code == 0:
            _check_success(argv, out)
        elif code == 2:
            assert out == "" and "error:" in err, argv
        else:
            assert out == "", argv
            assert f"`{json.loads(err)['error']['code']}`" in _README_TEXT, (argv, err)
        seen.setdefault(code, (argv, code, out, err))

    check()
    assert set(seen) == {0, 2, 3}
    # one draw per exit code through the console entry point: the same bytes
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, *result in seen.values():
        proc = subprocess.run([sys.executable, "-m", "weibtail.cli", *argv], capture_output=True,
                              text=True, timeout=120, env=env)
        assert [proc.returncode, proc.stdout, proc.stderr] == result, argv


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "weibtail.cli", "models", "--format", "json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert any(r["name"] == "normal" for r in doc["rows"])
