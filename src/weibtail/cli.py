"""Deterministic CSV/JSON command-line front end.

Commands: models, norming, penultimate, errors, vonmises, report.
Identical configurations produce byte-identical output: no timestamps,
fixed column orders, version metadata isolated in the JSON meta header.
Exit codes: 0 success, 2 usage error, 3 numeric failure (JSON error
object with the machine-readable code on stderr).
"""

from __future__ import annotations

import argparse
import csv
import enum
import io
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from . import __version__
from . import numerics
from . import penultimate as pen_mod
from . import vonmises as vm_mod
from .catalog import CATALOG, build_model
from .errors import WeibtailError
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
    "verdict_abs": vm_mod.VERDICT_ABS,
    "verdict_shrink": vm_mod.VERDICT_SHRINK,
    "limit_agreement": vm_mod.LIMIT_AGREEMENT,
    "failure_fraction": vm_mod.FAILURE_FRACTION,
    "remainder_denominator_cutoff": pen_mod.REMAINDER_DENOMINATOR_CUTOFF,
}

# every catalog parameter, in first-declared order (a model's own parameters
# keep their declared order, which is the key order of meta.model.parameters)
MODEL_PARAM_FLAGS = tuple(dict.fromkeys(p for entry in CATALOG.values() for p in entry.params))

DEFAULT_LOG_N = (10.0, 20.0, 40.0)
DEFAULT_T_GRID = (1e2, 1e4, 1e6, 1e8, 1e10)


def _fmt(value) -> str:
    """CSV cell: floats at 17 significant digits (round-trip safe)."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
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
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--grid expects lo:hi:count, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"--grid expects lo:hi:count, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weibtail",
        description="Penultimate extreme-value approximation for Weibull-type tails.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_log_n=True, with_grid=False, with_t_grid=False):
        p.add_argument("--model", required=True, choices=sorted(CATALOG))
        for flag in MODEL_PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        if with_log_n:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--log-n", type=str, default=None,
                               help="comma list of log n values (positive reals)")
            group.add_argument("--n", type=str, default=None,
                               help="comma list of integer block sizes, converted to log n")
        if with_grid:
            p.add_argument("--grid", type=_parse_grid, default=pen_mod.DEFAULT_GRID,
                           help="lo:hi:count evaluation window (default -3:6:1000)")
        if with_t_grid:
            p.add_argument("--t-grid", type=str, default=None,
                           help="comma list of diverging t values (default 1e2..1e10)")
        p.add_argument("--gamma-mode", choices=("exact", "asymptotic"), default="exact")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p_models = sub.add_parser("models", help="list the built-in model catalog")
    p_models.add_argument("--format", choices=("csv", "json"), default="csv")
    p_models.add_argument("--out", type=str, default=None)
    p_models.set_defaults(func=cmd_models)

    p_norm = sub.add_parser("norming", help="norming constants per block size")
    add_common(p_norm)
    p_norm.set_defaults(func=cmd_table)

    p_pen = sub.add_parser("penultimate", help="penultimate tail index per block size")
    add_common(p_pen)
    p_pen.set_defaults(func=cmd_table)

    p_err = sub.add_parser("errors", help="ultimate vs penultimate sup errors")
    add_common(p_err, with_grid=True)
    p_err.set_defaults(func=cmd_table)

    p_vm = sub.add_parser("vonmises", help="condition sweep along a diverging grid")
    add_common(p_vm, with_log_n=False, with_t_grid=True)
    p_vm.set_defaults(func=cmd_table)

    p_rep = sub.add_parser("report", help="combined JSON report (all sections)")
    add_common(p_rep, with_grid=True, with_t_grid=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


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


def _emit(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_csv(command: str, rows: List[Dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = CSV_HEADERS[command]
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()


def _meta(command: str, model_meta: Optional[Dict]) -> Dict:
    meta = {
        "tool": "weibtail",
        "version": __version__,
        "command": command,
        "norming_convention": NORMING_CONVENTION,
        "tolerances": TOLERANCES,
    }
    if model_meta:
        meta["model"] = model_meta
    return meta


def _render_json(command: str, model_meta: Optional[Dict], rows) -> str:
    doc = {"meta": _meta(command, model_meta), "rows": rows}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _model_meta(args, model: WeibullTypeModel) -> Dict:
    return {
        "name": args.model,
        "label": model.label,
        "family": model.family.value,
        "theta": model.theta,
        "parameters": args.params,
        "gamma_mode": args.gamma_mode,
    }


def cmd_models(args, parser=None) -> int:
    rows = [
        {
            "name": entry.name,
            "family": entry.family,
            "parameters": ",".join(entry.params) if entry.params else "-",
            "theta_reference": entry.theta_reference,
            "theta_is_one": entry.theta_is_one,
        }
        for _, entry in sorted(CATALOG.items())
    ]
    if args.format == "json":
        _emit(args.out, _render_json("models", None, rows))
    else:
        _emit(args.out, _render_csv("models", rows))
    return 0


def _row(command: str, result) -> Dict:
    """The ``CSV_HEADERS[command]`` columns of one result, read by
    attribute name; an enum is written as its value."""
    row = {col: getattr(result, col) for col in CSV_HEADERS[command]}
    return {col: v.value if isinstance(v, enum.Enum) else v for col, v in row.items()}


def _norming_rows(model: WeibullTypeModel, args):
    rows = [_row("norming", norming(model, ln)) for ln in args.log_n]
    return rows, rows


def _penultimate_json(idx: pen_mod.PenultimateIndex) -> Dict:
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
    indices = [pen_mod.penultimate_index(model, ln) for ln in args.log_n]
    flat = [_row("penultimate", idx) for idx in indices]
    return flat, [_penultimate_json(idx) for idx in indices]


def _error_rows(model: WeibullTypeModel, args):
    rows = [_row("errors", pen_mod.error_comparison(model, ln, args.grid, args.gamma_mode))
            for ln in args.log_n]
    return rows, rows


def _vonmises_rows(model: WeibullTypeModel, args):
    report = vm_mod.condition_sweep(model, args.t_grid)
    point_rows = [
        {"row_type": "point", "t": t, **{c: getattr(report, c)[i] for c in vm_mod.CONDITIONS}}
        for i, t in enumerate(report.t_grid)
    ]
    verdict_row = {"row_type": "verdict", "t": None}
    verdicts = {}
    for name in vm_mod.CONDITIONS:
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
            name: [_jsonable(v) for v in getattr(report, name)] for name in vm_mod.CONDITIONS
        },
        "verdicts": verdicts,
        "gomes84_theoretical": _jsonable(report.gomes84_theoretical),
        "gomes84_relative_gap": _jsonable(report.gomes84_relative_gap),
    }
    return point_rows + [verdict_row], json_payload


# command -> rows builder: (model, args) -> (CSV rows, JSON rows)
_TABLE_ROWS = {
    "norming": _norming_rows,
    "penultimate": _penultimate_rows,
    "errors": _error_rows,
    "vonmises": _vonmises_rows,
}


def cmd_table(args, parser=None) -> int:
    model = _resolve(args, parser)
    csv_rows, json_payload = _TABLE_ROWS[args.command](model, args)
    if args.format == "json":
        _emit(args.out, _render_json(args.command, _model_meta(args, model), json_payload))
    else:
        _emit(args.out, _render_csv(args.command, csv_rows))
    return 0


def cmd_report(args, parser=None) -> int:
    model = _resolve(args, parser)
    # one Location per log n, made in the norming pass: b_exact is solved once
    located = [norming_located(model, ln) for ln in args.log_n]
    indices = [pen_mod.penultimate_index_at(model, loc) for _, loc in located]
    error_rows = []
    for (_, loc), idx in zip(located, indices):
        row = _row("errors", pen_mod.error_comparison_at(model, loc, args.grid, args.gamma_mode))
        # informational only: penultimate residual against the stated rate
        rate = idx.gamma_prime_exact
        row["penultimate_residual_ratio"] = (
            row["sup_error_penultimate"] / abs(rate) if rate else None
        )
        error_rows.append(row)
    _, vm_payload = _vonmises_rows(model, args)

    doc = {
        "meta": {
            **_meta("report", _model_meta(args, model)),
            "log_n": list(args.log_n),
            "grid": {"lo": args.grid[0], "hi": args.grid[1], "count": args.grid[2]},
            "t_grid": list(args.t_grid),
        },
        "norming": [_row("norming", nc) for nc, _ in located],
        "penultimate": [_penultimate_json(idx) for idx in indices],
        "errors": error_rows,
        "vonmises": vm_payload,
    }
    _emit(args.out, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def _join_grid_flag(argv: Sequence[str]) -> List[str]:
    # argparse treats "-3:6:1000" as an option token; fold the grid value
    # into --grid=... so windows with negative lower edges parse
    out: List[str] = []
    it = iter(argv)
    for tok in it:
        if tok == "--grid":
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"--grid={val}")
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_grid_flag(argv))
    try:
        return args.func(args, parser)
    except WeibtailError as exc:
        payload = {"error": {"code": exc.code, "message": exc.message}}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
