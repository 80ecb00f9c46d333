"""Warm cost of the two error-curve paths, and the cold cost of numpy.

    PYTHONPATH=src python tools/curve_breakeven.py

``error_comparison`` takes one scalar pass in ``math`` on grids up to the
default 1000 points and numpy arrays above.  For every catalog model (the
parametrized ones at pure-weibull theta = 2, extended-weibull beta = 2 and
gamma shape 2) this prints the warm time of one curve on each path over the
default window at 200, 1000, 2000 and 5000 points, at log n 20: both paths
run on the same Location, and each time is the min over 7 repeats of the
mean of a timed batch, so the array path reads the grid's terms that its
first call built, as every curve after the first on a grid does.  Then it
prints the cold cost of ``import numpy``: the median wall time of
``python -c "import numpy"`` minus that of ``python -c pass`` over 11
alternating subprocess pairs.  The last column
is the number of curves after which a process that imported numpy for the
array path would have caught up, import / (scalar - array).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import timeit

import weibtail as wt
from weibtail import arrays, penultimate
from weibtail.norming import locate

MODELS = {
    "pure-weibull": {"theta": 2.0},
    "extended-weibull": {"beta": 2.0},
    "normal": {},
    "exponential": {},
    "logistic": {},
    "gamma": {"shape": 2.0},
    "gumbel-fixture": {},
}
COUNTS = (200, 1000, 2000, 5000)
LOG_N = 20.0
REPEATS = 7
PAIRS = 11
WINDOW = penultimate.DEFAULT_GRID[:2]


def curve_seconds(fn) -> float:
    """Min over ``REPEATS`` of the mean time of a batch of about 50 ms."""
    fn()
    number = max(1, int(0.05 / max(timeit.timeit(fn, number=1), 1e-6)))
    return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number


def import_numpy_seconds() -> float:
    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - start

    with_numpy, bare = [], []
    for i in range(PAIRS):
        runs = [(with_numpy, "import numpy"), (bare, "pass")]
        for times, code in runs if i % 2 == 0 else runs[::-1]:
            times.append(wall(code))
    return statistics.median(with_numpy) - statistics.median(bare)


def main() -> None:
    rows = []
    for name, params in MODELS.items():
        model = wt.build_model(name, **params)
        log_n, b, jet = locate(model, LOG_N)
        a, gamma, rate = 1.0 / jet.values[0], jet.phi, -jet.phi
        for count in COUNTS:
            grid = (*WINDOW, count)
            scalar = curve_seconds(lambda: penultimate._scalar_curve(
                model, log_n, penultimate._linspace(*grid), b, a, gamma, rate))
            array = curve_seconds(lambda: arrays.curve(model, log_n, grid, b, a, gamma, rate))
            rows.append((name, count, scalar, array))
    cold = import_numpy_seconds()

    print(f"warm error curve at log n {LOG_N:g}, window {WINDOW[0]:g}:{WINDOW[1]:g}")
    print(f"{'model':18s} {'points':>6s} {'scalar ms':>10s} {'array ms':>9s} "
          f"{'ratio':>6s} {'break-even':>10s}")
    for name, count, scalar, array in rows:
        gap = scalar - array
        even = f"{cold / gap:10.0f}" if gap > 0 else f"{'never':>10s}"
        print(f"{name:18s} {count:6d} {scalar * 1e3:10.3f} {array * 1e3:9.3f} "
              f"{scalar / array:6.1f} {even}")
    print(f"cold import numpy: {cold * 1e3:.1f} ms "
          f"(median of {PAIRS} alternating pairs against python -c pass)")


if __name__ == "__main__":
    main()
