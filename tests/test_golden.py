"""Golden-byte gate: CLI output for a fixed matrix of configurations.

Every case runs ``weibtail.cli.main`` with ``--out`` to a temporary file and
compares the bytes written with ``tests/golden/<case>.<format>``.  A case
that exits non-zero is compared on its exit code and stderr instead
(``tests/golden/<case>.<format>.err``), so typed refusals are pinned too.

The matrix covers every catalog model, CSV and JSON, both ``--gamma-mode``
values, and log n from 1 to 300.  A change that alters golden bytes on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py --regen

and says in CHANGES.md which cases changed and why.  The same command
rewrites ``tests/golden/usage/``, the ``--help`` and usage-error bytes of
``test_cli.USAGE_CASES``, which argparse wraps at the parser's 78 columns.

``test_curve_bits_digest`` pins the bits of every result of the
benchmark's decks the same way, through ``tools/curve_bits.py``.
"""

from __future__ import annotations

import io
import os
import subprocess
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


# the last line of ``tools/curve_bits.py 1 2 3 17``.  A change that moves
# these bits on purpose updates it and says why in CHANGES.md, as it does
# for a golden file
CURVE_BITS_SHA256 = "0a14eeb517ba0000081fcc8977faa7afd4946ec26b6bb6c46562c176caf395a7"


def test_curve_bits_digest():
    """Every field of every error curve, root solve, k-jet and sweep in the
    seed 1, 2, 3 and 17 decks, and the fixed gamma and Normal curves, to
    the bit.  Like the six dense-grid golden cases (ROADMAP item 9), the
    digest holds for the numpy SIMD dispatch it was recorded under
    (AVX-512 on x86-64): numpy's exp and log round some points
    differently under another, and the AVX2 dispatch
    (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) reads
    ``aa794b80…``."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "curve_bits.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, str(tool), "1", "2", "3", "17"], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"sha256 {CURVE_BITS_SHA256}"


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        if old.is_file():  # usage/ holds test_cli.py's usage bytes
            old.unlink()
    for name, argv in sorted(CASES.items()):
        suffix, data = run_case(argv)
        golden_path(name, suffix).write_bytes(data)
    from test_cli import USAGE_CASES, USAGE_DIR, run_cli

    for name, argv in sorted(USAGE_CASES.items()):
        _, out, err = run_cli(argv)
        (USAGE_DIR / name).write_text(out if name.endswith(".out") else err, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    regenerate()
