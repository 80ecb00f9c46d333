"""The bits of every result in the error-curves and block-sweep benchmark decks.

    PYTHONPATH=src python tools/curve_bits.py SEED [SEED ...]

For each seed this runs every op of ``perfbench/decks.py``'s error-curves
deck, then every op of its block-sweep deck (``norming``,
``penultimate_index`` and ``condition_sweep``), then ``condition_sweep``
of every block-sweep model on the CLI's default t-grid; the decks are
read, never changed.  Last come a fixed set of gamma and Normal error
curves at log n 1 to 6 on grids of 5000 to 9000 points, where gamma's
series and continued-fraction loops run longest.  It prints one line per
op: the quantity, the model and its inputs, then ``float.hex`` of every
field of the returned record (tuples and verdicts entry by entry, None,
strings and integers as they are), or the code of the typed error the op
was refused with.  The last line is the sha256 of the lines above it, so
two trees that print the same digest computed every field of every error
curve, root solve, k-jet and sweep to the same bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import weibtail as wt
from weibtail.cli import DEFAULT_T_GRID
from weibtail.errors import WeibtailError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import decks  # noqa: E402

FIXED_MODELS = (("gamma", {"shape": 0.5}), ("gamma", {"shape": 2.0}),
                ("gamma", {"shape": 5.0}), ("normal", {}))
FIXED_LOG_N = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
FIXED_COUNTS = (5000, 7000, 9000)
# fields that repeat an op's inputs
INPUT_FIELDS = ("log_n", "grid_spec", "t_grid")


def field_text(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + " ".join(map(field_text, value)) + ")"
    if isinstance(value, dict):
        return "{" + " ".join(f"{k}:{field_text(v)}" for k, v in sorted(value.items())) + "}"
    return repr(value)


def op_line(fn: str, name: str, params: dict, *args) -> str:
    head = f"{fn} {name} {sorted(params.items())} " + " ".join(map(field_text, args))
    try:
        res = getattr(wt, fn)(wt.build_model(name, **params), *args)
    except WeibtailError as exc:
        return f"{head} refused {exc.code}"
    fields = (field_text(getattr(res, f)) for f in res._fields if f not in INPUT_FIELDS)
    return f"{head} " + " ".join(fields)


def cases(seeds):
    for seed in seeds:
        deck = decks.error_curves(seed)
        for op in deck.ops:
            spec = deck.models[op.entry]
            yield op.fn, spec.name, spec.kwargs(), op.log_n, op.grid, op.gamma_mode
        deck = decks.block_sweep(seed)
        for op in deck.ops:
            spec = deck.models[op.entry]
            args = (op.t_grid,) if op.fn == "condition_sweep" else (op.log_n,)
            yield (op.fn, spec.name, spec.kwargs(), *args)
        for spec in deck.models:
            yield "condition_sweep", spec.name, spec.kwargs(), DEFAULT_T_GRID
    for i, (name, params) in enumerate(FIXED_MODELS):
        for j, log_n in enumerate(FIXED_LOG_N):
            grid = (*decks.GRID_WINDOW, FIXED_COUNTS[(i + j) % len(FIXED_COUNTS)])
            yield "error_comparison", name, params, log_n, grid, "exact"
            if name == "normal":
                yield "error_comparison", name, params, log_n, grid, "asymptotic"


def main(argv) -> None:
    if not argv:
        raise SystemExit(__doc__)
    digest = hashlib.sha256()
    for case in cases(int(s) for s in argv):
        line = op_line(*case)
        print(line)
        digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
