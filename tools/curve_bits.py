"""The bits of every error curve in the error-curves benchmark decks.

    PYTHONPATH=src python tools/curve_bits.py SEED [SEED ...]

For each seed this runs every op of ``perfbench/decks.py``'s error-curves
deck (the deck is read, never changed), then a fixed set of gamma and
Normal cases at log n 1 to 6 on grids of 5000 to 9000 points, where
gamma's series and continued-fraction loops run longest.  It prints one
line per op: the model, log n, grid and gamma mode, then ``float.hex`` of
every ``ErrorComparison`` field (None and integers as they are), or the
code of the typed error the op was refused with.  The last line is the
sha256 of the lines above it, so two trees that print the same digest
computed every field of every curve to the same bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import weibtail as wt
from weibtail.errors import WeibtailError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import decks  # noqa: E402

FIXED_MODELS = (("gamma", {"shape": 0.5}), ("gamma", {"shape": 2.0}),
                ("gamma", {"shape": 5.0}), ("normal", {}))
FIXED_LOG_N = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
FIXED_COUNTS = (5000, 7000, 9000)


def field_text(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def op_line(name: str, params: dict, log_n: float, grid, mode: str) -> str:
    head = f"{name} {sorted(params.items())} {log_n.hex()} {grid} {mode}"
    try:
        res = wt.error_comparison(wt.build_model(name, **params), log_n, grid, mode)
    except WeibtailError as exc:
        return f"{head} refused {exc.code}"
    fields = (field_text(getattr(res, f)) for f in res._fields if f not in ("log_n", "grid_spec"))
    return f"{head} " + " ".join(fields)


def cases(seeds):
    for seed in seeds:
        deck = decks.error_curves(seed)
        for op in deck.ops:
            spec = deck.models[op.entry]
            yield spec.name, spec.kwargs(), op.log_n, op.grid, op.gamma_mode
    for i, (name, params) in enumerate(FIXED_MODELS):
        for j, log_n in enumerate(FIXED_LOG_N):
            grid = (*decks.GRID_WINDOW, FIXED_COUNTS[(i + j) % len(FIXED_COUNTS)])
            yield name, params, log_n, grid, "exact"
            if name == "normal":
                yield name, params, log_n, grid, "asymptotic"


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
