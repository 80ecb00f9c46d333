"""Deterministic CSV/JSON command-line front end.

Commands: models, norming, penultimate, errors, vonmises, report.
``COMMANDS`` is the one place a subcommand is declared: its help text, the
flag groups it takes and its rows builder.  The parser is built from that
table, and one runner takes every command from its arguments to bytes.
Identical configurations produce byte-identical output: no timestamps,
fixed column orders, version metadata isolated in the JSON meta header.
Exit codes: 0 success, 2 usage error (under the invoked subcommand's
usage line), 3 numeric failure or a computation that runs out of memory
(JSON error object with the machine-readable code on stderr).
"""

from __future__ import annotations

import argparse
import atexit
import enum
import io
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from . import numerics
from .catalog import CATALOG, build_model
from .errors import OutOfMemoryError, WeibtailError
from .model import WeibullTypeModel
from .norming import NORMING_CONVENTION, norming, norming_located

CSV_HEADERS = {
    "models": ["name", "family", "parameters", "theta_reference", "theta_is_one"],
    "norming": ["log_n", "b_exact", "b_asymptotic", "a_scale"],
    "penultimate": [
        "log_n", "gamma_exact", "gamma_asymptotic", "classification",
        "rate_ultimate", "rate_penultimate", "gamma_prime_exact",
    ],
    "errors": [
        "log_n", "gamma_used", "sup_error_ultimate", "sup_error_penultimate",
        "argmax_ultimate", "argmax_penultimate", "remainder_max_deviation", "n_clipped",
    ],
    "vonmises": [
        "row_type", "t", "first_order", "second_order", "penultimate_cond",
        "anderson", "gomes84",
    ],
}

TOLERANCES = {
    "root_rel_tol": numerics.ROOT_REL_TOL,
    "verdict_abs": numerics.VERDICT_ABS,
    "verdict_shrink": numerics.VERDICT_SHRINK,
    "limit_agreement": numerics.LIMIT_AGREEMENT,
    "failure_fraction": numerics.FAILURE_FRACTION,
    "remainder_denominator_cutoff": numerics.REMAINDER_DENOMINATOR_CUTOFF,
}

# every catalog parameter, in first-declared order (a model's own parameters
# keep their declared order, which is the key order of meta.model.parameters)
MODEL_PARAM_FLAGS = tuple(dict.fromkeys(p for entry in CATALOG.values() for p in entry.params))

DEFAULT_LOG_N = (10.0, 20.0, 40.0)
DEFAULT_T_GRID = (1e2, 1e4, 1e6, 1e8, 1e10)


def _fmt(value) -> str:
    """CSV cell: floats at 17 significant digits (round-trip safe)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _jsonable(value):
    """Floats only when finite; NaN/inf become null (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _parse_float_list(parser: argparse.ArgumentParser, text: str, flag: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"{flag}: expected comma-separated reals, got {text!r}")
    if not values:
        parser.error(f"{flag}: empty list")
    if not all(map(math.isfinite, values)):
        parser.error(f"{flag}: expected finite reals, got {text!r}")
    return values


def _parse_grid(text: str):
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:  # not three fields, or a field that does not parse
        raise argparse.ArgumentTypeError(f"--grid expects lo:hi:count, got {text!r}")


def _resolve(args, parser: argparse.ArgumentParser) -> WeibullTypeModel:
    """Parse the list flags onto ``args`` (``log_n``, ``t_grid``), collect the
    given model parameters in ``args.params`` and build the model."""
    if getattr(args, "n", None) is not None:
        raw = _parse_float_list(parser, args.n, "--n")
        bad = [v for v in raw if v < 2 or v != int(v)]
        if bad:
            parser.error(f"--n expects integers >= 2, got {bad}")
        args.log_n = tuple(math.log(v) for v in raw)
    elif getattr(args, "log_n", None) is not None:
        args.log_n = tuple(_parse_float_list(parser, args.log_n, "--log-n"))
    else:
        args.log_n = DEFAULT_LOG_N
    if getattr(args, "t_grid", None) is not None:
        args.t_grid = tuple(_parse_float_list(parser, args.t_grid, "--t-grid"))
    else:
        args.t_grid = DEFAULT_T_GRID
    args.params = {flag: getattr(args, flag) for flag in MODEL_PARAM_FLAGS
                   if getattr(args, flag) is not None}
    try:
        return build_model(args.model, **args.params)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))


def _render_csv(command: str, rows: List[Dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = CSV_HEADERS[command]
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()


def _render_json(args, model: Optional[WeibullTypeModel], body: Dict) -> str:
    """One document: the shared meta header, with the model's entry (if
    the command has a model) and then the body's own meta keys (report's
    inputs) after it, and the body's other keys."""
    import json

    meta = {
        "tool": "weibtail",
        "version": __version__,
        "command": args.command,
        "norming_convention": NORMING_CONVENTION,
        "tolerances": TOLERANCES,
    }
    if model is not None:
        meta["model"] = {
            "name": args.model,
            "label": model.label,
            "family": model.family.value,
            "theta": model.theta,
            "parameters": args.params,
            "gamma_mode": args.gamma_mode,
        }
    meta.update(body.pop("meta", {}))
    return json.dumps({"meta": meta, **body}, indent=2, allow_nan=False) + "\n"


def _models_rows(model, args):  # takes neither
    rows = [
        {
            "name": name,
            "family": entry.family,
            "parameters": ",".join(entry.params) if entry.params else "-",
            "theta_reference": entry.theta_reference,
            "theta_is_one": entry.theta_is_one,
        }
        for name, entry in sorted(CATALOG.items())
    ]
    return rows, {"rows": rows}


def _row(command: str, result) -> Dict:
    """The ``CSV_HEADERS[command]`` columns of one result, read by
    attribute name; an enum is written as its value."""
    row = {col: getattr(result, col) for col in CSV_HEADERS[command]}
    return {col: v.value if isinstance(v, enum.Enum) else v for col, v in row.items()}


def _norming_rows(model: WeibullTypeModel, args):
    rows = [_row("norming", norming(model, ln)) for ln in args.log_n]
    return rows, {"rows": rows}


def _penultimate_json(idx) -> Dict:
    """The JSON entry of one ``PenultimateIndex``."""
    entry = {
        "log_n": idx.log_n,
        "gamma_exact": idx.gamma_exact,
        "classification": idx.classification.value,
        "gamma_prime_exact": idx.gamma_prime_exact,
    }
    if idx.error:
        entry["asymptotic"] = {"error": idx.error}
    else:
        entry["asymptotic"] = {
            "gamma": idx.gamma_asymptotic,
            "rate_ultimate": idx.rate_ultimate,
            "rate_penultimate": idx.rate_penultimate,
        }
    return entry


def _penultimate_rows(model: WeibullTypeModel, args):
    from .penultimate import penultimate_index

    indices = [penultimate_index(model, ln) for ln in args.log_n]
    flat = [_row("penultimate", idx) for idx in indices]
    return flat, {"rows": [_penultimate_json(idx) for idx in indices]}


def _error_rows(model: WeibullTypeModel, args):
    from .penultimate import error_comparison

    rows = [_row("errors", error_comparison(model, ln, args.grid, args.gamma_mode))
            for ln in args.log_n]
    return rows, {"rows": rows}


def _vonmises_rows(model: WeibullTypeModel, args):
    from .vonmises import CONDITIONS, condition_sweep

    report = condition_sweep(model, args.t_grid)
    point_rows = [
        {"row_type": "point", "t": t, **{c: getattr(report, c)[i] for c in CONDITIONS}}
        for i, t in enumerate(report.t_grid)
    ]
    verdict_row = {"row_type": "verdict", "t": None}
    verdicts = {}
    for name in CONDITIONS:
        v = report.verdicts[name]
        text = v.kind
        if v.value is not None:
            text += f":{format(v.value, '.17g')}"
        if v.reason:
            text += f":{v.reason}"
        verdict_row[name] = text
        verdicts[name] = {**v._asdict(), "value": _jsonable(v.value)}
    json_payload = {
        "t_grid": list(report.t_grid),
        "derivative_path": report.derivative_path,
        "sequences": {
            name: [_jsonable(v) for v in getattr(report, name)] for name in CONDITIONS
        },
        "verdicts": verdicts,
        "gomes84_theoretical": _jsonable(report.gomes84_theoretical),
        "gomes84_relative_gap": _jsonable(report.gomes84_relative_gap),
    }
    return point_rows + [verdict_row], {"rows": json_payload}


def _report(model: WeibullTypeModel, args):
    from .penultimate import error_comparison_at, penultimate_index_at

    # one Location per log n, made in the norming pass: b_exact is solved once
    located = [norming_located(model, ln) for ln in args.log_n]
    indices = [penultimate_index_at(model, loc) for _, loc in located]
    error_rows = []
    for (_, loc), idx in zip(located, indices):
        row = _row("errors", error_comparison_at(model, loc, args.grid, args.gamma_mode))
        # informational only: penultimate residual against the stated rate
        rate = idx.gamma_prime_exact
        row["penultimate_residual_ratio"] = (
            row["sup_error_penultimate"] / abs(rate) if rate else None
        )
        error_rows.append(row)
    return None, {
        "meta": {
            "log_n": list(args.log_n),
            "grid": {"lo": args.grid[0], "hi": args.grid[1], "count": args.grid[2]},
            "t_grid": list(args.t_grid),
        },
        "norming": [_row("norming", nc) for nc, _ in located],
        "penultimate": [_penultimate_json(idx) for idx in indices],
        "errors": error_rows,
        "vonmises": _vonmises_rows(model, args)[1]["rows"],
    }


# name -> (help text, flag groups, rows builder), in --help's order.  The
# flag groups are "log_n" (--log-n or --n), "grid" and "t_grid"; None is a
# command without a model, so without the model, parameter and
# --gamma-mode flags.  A builder maps (model, args) to (CSV rows, JSON
# body); CSV rows of None write the JSON body whatever --format says.
COMMANDS = {
    "models": ("list the built-in model catalog", None, _models_rows),
    "norming": ("norming constants per block size", ("log_n",), _norming_rows),
    "penultimate": ("penultimate tail index per block size", ("log_n",), _penultimate_rows),
    "errors": ("ultimate vs penultimate sup errors", ("log_n", "grid"), _error_rows),
    "vonmises": ("condition sweep along a diverging grid", ("t_grid",), _vonmises_rows),
    "report": ("combined JSON report (all sections)", ("log_n", "grid", "t_grid"), _report),
}


def _formatter(prog: str) -> argparse.HelpFormatter:
    # wrap at 78 columns, as an 80-column terminal does, whatever the
    # terminal: without a width argparse imports shutil to measure it
    return argparse.HelpFormatter(prog, width=78)


def build_parser(
    argv: Sequence[str] = (),
) -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The ``weibtail`` parser and its subparsers by name, from ``COMMANDS``.

    Every subcommand is registered with its help line, but only the one
    ``argv[0]`` names gets its flags, or every one when ``argv[0]`` names
    none: argparse reads a subcommand's flags only when it is invoked."""
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="weibtail",
        description="Penultimate extreme-value approximation for Weibull-type tails.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, groups, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=_formatter)
        if invoked not in (None, name):
            continue
        if groups is not None:
            p.add_argument("--model", required=True, choices=sorted(CATALOG))
            for flag in MODEL_PARAM_FLAGS:
                p.add_argument(f"--{flag}", type=float, default=None)
            if "log_n" in groups:
                group = p.add_mutually_exclusive_group()
                group.add_argument("--log-n", type=str, default=None,
                                   help="comma list of log n values (positive reals)")
                group.add_argument("--n", type=str, default=None,
                                   help="comma list of integer block sizes, converted to log n")
            if "grid" in groups:
                from .penultimate import DEFAULT_GRID

                p.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                               help="lo:hi:count evaluation window (default -3:6:1000)")
            if "t_grid" in groups:
                p.add_argument("--t-grid", type=str, default=None,
                               help="comma list of diverging t values (default 1e2..1e10)")
            p.add_argument("--gamma-mode", choices=("exact", "asymptotic"), default="exact")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    return parser, sub.choices


def _run(args, parser: argparse.ArgumentParser) -> None:
    """Resolve the model (none for ``models``), build the rows and write
    CSV or one JSON document; ``parser`` is the invoked subcommand's, so
    a usage error found here names it as argparse's own errors do."""
    _, groups, build = COMMANDS[args.command]
    model = None if groups is None else _resolve(args, parser)
    try:
        csv_rows, body = build(model, args)
    except MemoryError as exc:  # numpy's names the allocation it could not make
        raise OutOfMemoryError(str(exc)) from exc
    if args.format == "csv" and csv_rows is not None:
        text = _render_csv(args.command, csv_rows)
    else:
        text = _render_json(args, model, body)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        where = f"--out: cannot write {args.out!r}" if args.out else "stdout: cannot write"
        parser.error(f"{where} ({exc.strerror})")


def _join_grid_flag(argv: Sequence[str]) -> List[str]:
    # argparse treats "-3:6:1000" as an option token; fold the grid value
    # into --grid=... so windows with negative lower edges parse
    out: List[str] = []
    it = iter(argv)
    for tok in it:
        val = next(it, None) if tok == "--grid" else None
        out.append(tok if val is None else f"--grid={val}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _join_grid_flag(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        _run(args, subparsers[args.command])
    except WeibtailError as exc:
        import json

        payload = {"error": {"code": exc.code, "message": exc.message}}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 3
    return 0


def entrypoint() -> None:
    """The ``weibtail`` console script and ``python -m weibtail.cli``.

    The process ends right after ``main``, with its code (0, argparse's 2
    or 3), and without the interpreter's teardown, which would only free
    what the run made: the ``atexit`` handlers run, stdout and stderr are
    flushed, and ``os._exit`` ends the process.  A stdout that cannot take
    what a failed write left buffered is ignored: that write has already
    exited 2 and said why.  An unexpected exception ends the process as
    Python ends it, with its traceback and exit 1.  In-process callers of
    ``main`` are not affected."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
