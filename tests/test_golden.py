"""Golden-byte gate: CLI output for a fixed matrix of configurations.

Every case runs ``weibtail.cli.main`` with ``--out`` to a temporary file and
compares the bytes written with ``tests/golden/<case>.<format>``.  A case
that exits non-zero is compared on its exit code and stderr instead
(``tests/golden/<case>.<format>.err``), so typed refusals are pinned too.

The matrix covers every catalog model, CSV and JSON, both ``--gamma-mode``
values, and log n from 1 to 300.  A change that alters golden bytes on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py --regen

and says in CHANGES.md which cases changed and why.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from weibtail import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (model flags, log n list); the extended-Weibull support starts at H = e^beta,
# so its log n list starts above that.
MODELS = {
    "pw-theta2": (["--model", "pure-weibull", "--theta", "2"], "1,10,100,300"),
    "pw-alpha2": (["--model", "pure-weibull", "--alpha", "2", "--scale", "3"], "1,10,100,300"),
    "ext-beta2": (["--model", "extended-weibull", "--beta", "2"], "10,100,300"),
    "ext-beta05": (["--model", "extended-weibull", "--beta", "0.5", "--delta", "1"], "10,100,300"),
    "normal": (["--model", "normal"], "1,10,100,300"),
    "exponential": (["--model", "exponential"], "1,10,100,300"),
    "logistic": (["--model", "logistic"], "1,10,100,300"),
    "gamma-0.5": (["--model", "gamma", "--shape", "0.5"], "1,10,100,300"),
    "gamma-2": (["--model", "gamma", "--shape", "2"], "1,10,100,300"),
    "gamma-5": (["--model", "gamma", "--shape", "5"], "1,10,100,300"),
    "fixture": (["--model", "gumbel-fixture"], "1,10,100,300"),
}


def _cases():
    cases = {
        "models.csv": ["models", "--format", "csv"],
        "models.json": ["models", "--format", "json"],
    }
    for key, (flags, log_n) in MODELS.items():
        for fmt in ("csv", "json"):
            cases[f"norming-{key}.{fmt}"] = ["norming", *flags, "--log-n", log_n, "--format", fmt]
            cases[f"penultimate-{key}.{fmt}"] = [
                "penultimate", *flags, "--log-n", log_n, "--format", fmt
            ]
            cases[f"vonmises-{key}.{fmt}"] = ["vonmises", *flags, "--format", fmt]
            for mode in ("exact", "asymptotic"):
                cases[f"errors-{key}-{mode}.{fmt}"] = [
                    "errors", *flags, "--log-n", log_n, "--grid", "-3:6:200",
                    "--gamma-mode", mode, "--format", fmt,
                ]
        cases[f"report-{key}.json"] = [
            "report", *flags, "--log-n", log_n, "--grid", "-3:6:200", "--format", "json"
        ]
    # a repeated log n: report pairs each error row with its penultimate row
    cases["report-pw-theta2-repeated.json"] = [
        "report", *MODELS["pw-theta2"][0], "--log-n", "10,10,40", "--grid", "-3:6:200",
        "--format", "json",
    ]
    # grids of the benchmark's size, where every point may sit in one branch
    # of a kernel, and a wide window that straddles the support endpoint and
    # the kernels' switches
    for tag, grid, keys in (
        ("1e5", "-3:6:100000", {"pw-theta2": "1,20,300", "normal": "1,20,300",
                                "gamma-2": "1,20,300"}),
        ("wide", "-20:40:5000", {"ext-beta05": MODELS["ext-beta05"][1],
                                 "gamma-2": MODELS["gamma-2"][1]}),
    ):
        for key, log_n in keys.items():
            for mode in ("exact", "asymptotic"):
                cases[f"errors-{tag}-{key}-{mode}.csv"] = [
                    "errors", *MODELS[key][0], "--log-n", log_n, "--grid", grid,
                    "--gamma-mode", mode, "--format", "csv",
                ]
    return cases


CASES = _cases()


def run_case(argv):
    """(golden file name suffix, bytes) for one CLI invocation."""
    fd, path = tempfile.mkstemp(prefix="weibtail-golden-")
    os.close(fd)
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = cli.main([*argv, "--out", path])
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            return None, Path(path).read_bytes()
        return ".err", f"exit {code}\n{err.getvalue()}".encode("utf-8")
    finally:
        os.unlink(path)


def golden_path(name, suffix):
    return GOLDEN_DIR / (name if suffix is None else name + suffix)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    suffix, got = run_case(CASES[name])
    path = golden_path(name, suffix)
    assert path.exists(), f"no golden file {path.name} (the case's exit status changed?)"
    assert got == path.read_bytes(), f"{name}: CLI bytes differ from {path.name}"


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    for name, argv in sorted(CASES.items()):
        suffix, data = run_case(argv)
        golden_path(name, suffix).write_bytes(data)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    regenerate()
