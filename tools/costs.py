"""Work counts of the array error curves and of the b_n root solves,
without wall time.

    PYTHONPATH=src python tools/costs.py

For every catalog model (pure-weibull at theta = 2, extended-weibull at
beta = 2, gamma at shapes 0.5, 2 and 5) and log n in {1, 2, 4, 6, 20, 300},
this runs one ``error_comparison`` on the default window at 3000 points,
which takes the array pass, and prints:

- ``numpy``: the calls into numpy's namespace (functions, ufuncs and their
  methods such as ``np.fmin.reduce``, ``np.errstate``), counted through a
  proxy for ``weibtail.arrays.np``, the library's one numpy import.  Array
  methods (``argmin``, ``take``, ``any``) and operators are not counted, so
  this column cannot compare two codes that trade one for the other;
- ``steps``: the steps gamma's series and continued fraction take, over
  both loops;
- ``rows``: the sum over those steps of the rows each step updates.

A second table runs one ``norming`` per model and log n, which solves
b_asymptotic (H(b) = log n) and then b_exact (T(b) = log n), and prints
for each solve:

- ``evals``: the residual evaluations ``numerics.solve_increasing`` makes;
  0 where the model inverts in closed form and calls no solver;
- ``steps``: for gamma, the steps its scalar series and continued fraction
  take over those evaluations, counted by tracing the lines of
  ``weibtail/catalog.py`` that run once per step (``ap += 1.0`` and
  ``b += 2.0``); ``-`` for the other models.

A refused op prints its code.  The counts do not depend on the machine or
its load, so two trees that print the same table did the same work.
"""

from __future__ import annotations

import collections
import inspect
import sys

import numpy

import weibtail as wt
from weibtail import arrays, catalog, numerics, penultimate
from weibtail.errors import WeibtailError

# gamma's shapes and log n 1 to 6 are those of curve_bits.py's fixed
# curves, where its series and continued-fraction loops run longest
MODELS = (
    ("pure-weibull", {"theta": 2.0}),
    ("extended-weibull", {"beta": 2.0}),
    ("normal", {}),
    ("exponential", {}),
    ("logistic", {}),
    ("gamma", {"shape": 0.5}),
    ("gamma", {"shape": 2.0}),
    ("gamma", {"shape": 5.0}),
    ("gumbel-fixture", {}),
)
LOG_N = (1.0, 2.0, 4.0, 6.0, 20.0, 300.0)
GRID = (*penultimate.DEFAULT_GRID[:2], 3000)


class _Counted:
    """A numpy callable that counts its calls, and wraps its callable
    attributes (a ufunc's ``reduce``) alike."""

    def __init__(self, target, name: str, counts: collections.Counter):
        self._target, self._name, self._counts = target, name, counts

    def __call__(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._target(*args, **kwargs)

    def __getattr__(self, attr: str):
        value = getattr(self._target, attr)
        return _Counted(value, f"{self._name}.{attr}", self._counts) if callable(value) else value


class _NumpyProxy:
    """numpy, with every callable but its scalar types (``np.intp``, which
    ``astype`` must see as itself) and ``np.ndarray`` counted."""

    def __init__(self, counts: collections.Counter):
        self._counts = counts

    def __getattr__(self, name: str):
        value = getattr(numpy, name)
        if not callable(value) or value is numpy.ndarray or (
                isinstance(value, type) and issubclass(value, numpy.generic)):
            return value
        return _Counted(value, name, self._counts)


def costs(model, log_n: float):
    """(numpy calls, loop steps, live rows) of one curve, or the refusal code."""
    calls = collections.Counter()
    loop = collections.Counter()
    until_converged = arrays._until_converged

    def counted_until_converged(steps, advance, state):
        def step(i, state):
            loop["steps"] += 1
            loop["rows"] += state[0].size
            return advance(i, state)

        return until_converged(steps, step, state)

    arrays.np, arrays._until_converged = _NumpyProxy(calls), counted_until_converged
    try:
        wt.error_comparison(model, log_n, GRID)
    except WeibtailError as exc:
        return exc.code
    finally:
        arrays.np, arrays._until_converged = numpy, until_converged
    return sum(calls.values()), loop["steps"], loop["rows"]


# the statements of catalog.py that gamma's scalar series and continued
# fraction run once per step
_STEP_LINES = frozenset(
    number for number, line in enumerate(inspect.getsource(catalog).splitlines(), start=1)
    if line.strip() in ("ap += 1.0", "b += 2.0"))


def solve_costs(model, log_n: float):
    """[evals, steps] of each root solve one ``norming`` makes, in order,
    or the refusal code."""
    solves = []
    active = []  # the counts of the solve running, if one is
    solve_increasing = numerics.solve_increasing

    def counted_solve(f, target, lower=None):
        counts = [0, 0]
        solves.append(counts)
        active.append(counts)

        def residual(x):
            counts[0] += 1
            return f(x)

        try:
            return solve_increasing(residual, target, lower)
        finally:
            active.clear()

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in _STEP_LINES and active:
            active[0][1] += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == catalog.__file__ else None

    numerics.solve_increasing = counted_solve
    sys.settrace(call)
    try:
        wt.norming(model, log_n)
    except WeibtailError as exc:
        return exc.code
    finally:
        sys.settrace(None)
        numerics.solve_increasing = solve_increasing
    return solves


def main() -> None:
    print(f"error_comparison on {GRID[0]:g}:{GRID[1]:g}:{GRID[2]}, exact gamma mode")
    print(f"{'model':24s} {'log n':>6s} {'numpy':>6s} {'steps':>6s} {'rows':>8s}")
    labelled = [(" ".join([name, *(f"{k}={v:g}" for k, v in params.items())]),
                 wt.build_model(name, **params)) for name, params in MODELS]
    for label, model in labelled:
        for log_n in LOG_N:
            counts = costs(model, log_n)
            if isinstance(counts, str):
                print(f"{label:24s} {log_n:6g} refused {counts}")
            else:
                print(f"{label:24s} {log_n:6g} {counts[0]:6d} {counts[1]:6d} {counts[2]:8d}")
    print()
    print("norming: the solve for b_asymptotic, then the one for b_exact")
    print(f"{'model':24s} {'log n':>6s} {'evals':>6s} {'steps':>6s} {'evals':>6s} {'steps':>6s}")
    for label, model in labelled:
        gamma = label.startswith("gamma")
        for log_n in LOG_N:
            solves = solve_costs(model, log_n)
            if isinstance(solves, str):
                print(f"{label:24s} {log_n:6g} refused {solves}")
                continue
            cells = [f"{evals:6d} {steps if gamma else '-':>6}"
                     for evals, steps in solves or [(0, 0), (0, 0)]]
            print(f"{label:24s} {log_n:6g} " + " ".join(cells))


if __name__ == "__main__":
    main()
