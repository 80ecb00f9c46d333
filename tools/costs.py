"""Work counts of the array error curves, of the b_n root solves and of
the hazard jets, without wall time.

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
- ``rows``: the sum over those steps of the rows each step updates;
- ``twin``: for the models with theta != 1, the work of the
  asymptotic-mode curve run right after that exact one on the same model,
  log n and grid, which differs from it only in gamma (``-`` at
  theta = 1, where that mode is refused): its numpy calls, the residual
  evaluations of its root solves (``numerics.solve_increasing``) and its
  calls of ``model.hazard_jet``.  A twin that takes b_n and its k-jet from
  the kept curve solves nothing and forms no jet; one that locates again
  repeats the exact curve's solve and jet.

A second table runs one ``norming`` per model and log n, which solves
b_asymptotic (H(b) = log n) and then b_exact (T(b) = log n), and prints
for each solve:

- ``evals``: the residual evaluations ``numerics.solve_increasing`` makes;
  0 where the model inverts in closed form and calls no solver;
- ``steps``: for gamma, the steps its scalar series and continued fraction
  take over those evaluations, counted by tracing the lines of
  ``weibtail/catalog.py`` that run once per step (``ap += 1.0`` and
  ``b += 2.0``); ``-`` for the other models.

A third table runs each quantity once per model at log n = 20
(``norming``, ``penultimate_index``, ``error_comparison`` on the default
window, ``condition_sweep`` on the CLI's default t-grid) and prints for
each:

- ``jets``: the calls of ``model.hazard_jet``, the one place the k routes
  read H and its derivatives;
- ``entries``: the entries those calls return, H and the m derivatives
  each asks for (the classical catalog models form all four of theirs in a
  few flops and return the first m + 1);
- ``steps``: for gamma, the steps its series and continued fraction take
  inside those calls, per jet (``-`` for the other models); from
  x = max(50, 2 shape) a jet also sums the large-x series, whose steps are
  not counted.

A fourth table runs each CLI command cold on the normal model (``models``
on none), in a subprocess with ``PYTHONHASHSEED=0`` that runs the module
as ``python -m weibtail.cli`` does, with the package's bytecode cached as
an installed package has it (the tool compiles it first; a run that
compiles from source allocates more and counts more), and prints from an
``atexit`` probe:

- ``modules``: the modules in ``sys.modules`` beyond those of the same
  probe run without the CLI, listed by name under the table;
- ``-S``: the same count for the run on a bare interpreter, ``python -S``,
  where no ``site`` preloads modules (against the probe without the CLI,
  also under ``-S``), listed under the default lists;
- ``collections``: ``gc.get_stats()``'s collections of generations 0, 1
  and 2 made before the probe runs.  The CLI runs the ``atexit`` handlers
  and then ends its process without the interpreter's teardown, so no
  collection comes after them.

A refused op prints its code.  The counts do not depend on the machine or
its load, so two trees that print the same table did the same work.
"""

from __future__ import annotations

import ast
import collections
import compileall
import inspect
import os
import subprocess
import sys

import numpy

import weibtail as wt
from weibtail import arrays, catalog, cli, model as model_module, numerics, penultimate
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


def _counted(call):
    """(numpy calls, loop steps, live rows, root-solve residual evaluations,
    hazard jets) of ``call()``."""
    calls = collections.Counter()
    loop = collections.Counter()
    located = collections.Counter()
    until_converged = arrays._until_converged
    solve_increasing, hazard_jet = numerics.solve_increasing, model_module.hazard_jet

    def counted_solve(f, *args):
        def residual(x):
            located["evals"] += 1
            return f(x)

        return solve_increasing(residual, *args)

    def counted_jet(*args):
        located["jets"] += 1
        return hazard_jet(*args)

    def counted_until_converged(steps, advance, state):
        def step(i, state):
            loop["steps"] += 1
            loop["rows"] += state[0].size
            return advance(i, state)

        return until_converged(steps, step, state)

    arrays.np, arrays._until_converged = _NumpyProxy(calls), counted_until_converged
    numerics.solve_increasing, model_module.hazard_jet = counted_solve, counted_jet
    try:
        call()
    finally:
        arrays.np, arrays._until_converged = numpy, until_converged
        numerics.solve_increasing, model_module.hazard_jet = solve_increasing, hazard_jet
    return sum(calls.values()), loop["steps"], loop["rows"], located["evals"], located["jets"]


def costs(model, log_n: float):
    """(numpy calls, loop steps, live rows) of one exact-mode curve and the
    (numpy calls, root-solve evaluations, hazard jets) of the asymptotic
    curve after it (None at theta = 1), or the refusal code."""
    try:
        exact = _counted(lambda: wt.error_comparison(model, log_n, GRID))
        twin = None if model.theta_is_one else _counted(
            lambda: wt.error_comparison(model, log_n, GRID, "asymptotic"))
    except WeibtailError as exc:
        return exc.code
    return (*exact[:3], None if twin is None else (twin[0], *twin[3:]))


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


QUANTITIES = (
    ("norming", lambda m: wt.norming(m, 20.0)),
    ("penultimate", lambda m: wt.penultimate_index(m, 20.0)),
    ("errors", lambda m: wt.error_comparison(m, 20.0, penultimate.DEFAULT_GRID)),
    ("vonmises", lambda m: wt.condition_sweep(m, cli.DEFAULT_T_GRID)),
)


def jet_costs(model, quantity):
    """[jets, entries, gamma loop steps inside them] of one quantity, or
    the refusal code."""
    counts = [0, 0, 0]
    inside = []  # set while a hazard jet runs
    hazard_jet = model_module.hazard_jet

    def counted_jet(model, x, m):
        inside.append(True)
        try:
            jet = hazard_jet(model, x, m)
        finally:
            inside.clear()
        counts[0] += 1
        counts[1] += len(jet)
        return jet

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in _STEP_LINES and inside:
            counts[2] += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == catalog.__file__ else None

    model_module.hazard_jet = counted_jet
    sys.settrace(call)
    try:
        quantity(model)
    except WeibtailError as exc:
        return exc.code
    finally:
        sys.settrace(None)
        model_module.hazard_jet = hazard_jet
    return counts


COLD_COMMANDS = (
    ("models",),
    *((command, "--model", "normal")
      for command in ("norming", "penultimate", "errors", "vonmises", "report")),
)

# a child that runs the CLI module as `python -m weibtail.cli` does (no run
# when argv is empty) and prints its counts when the interpreter exits
_COLD_PROBE = """
import atexit, gc, runpy, sys

def counts():
    stats = [generation["collections"] for generation in gc.get_stats()]
    sys.__stdout__.write(repr([sorted(sys.modules), stats]))
    sys.__stdout__.flush()

atexit.register(counts)
if sys.argv[1:]:
    runpy.run_module("weibtail.cli", run_name="__main__", alter_sys=True)
"""


def cold_costs(argv, flags=()):
    """(modules loaded, collections per generation) of one cold CLI run
    under the interpreter ``flags``, measured at its exit; the CLI's own
    output is discarded."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(wt.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": package_root}
    out = subprocess.run(
        [sys.executable, *flags, "-c", _COLD_PROBE, *argv], env=env, capture_output=True,
        text=True, timeout=120).stdout
    # the CLI's own output comes first on stdout; the probe writes last
    return ast.literal_eval(out[out.rindex("[["):])


def main() -> None:
    print(f"error_comparison on {GRID[0]:g}:{GRID[1]:g}:{GRID[2]}, exact gamma mode; "
          "twin: the asymptotic one after it, its numpy calls, solve evaluations and jets")
    print(f"{'model':24s} {'log n':>6s} {'numpy':>6s} {'steps':>6s} {'rows':>8s} "
          f"{'twin':>5s} {'evals':>5s} {'jets':>4s}")
    labelled = [(" ".join([name, *(f"{k}={v:g}" for k, v in params.items())]),
                 wt.build_model(name, **params)) for name, params in MODELS]
    for label, model in labelled:
        for log_n in LOG_N:
            counts = costs(model, log_n)
            if isinstance(counts, str):
                print(f"{label:24s} {log_n:6g} refused {counts}")
            else:
                twin = ("-", "-", "-") if counts[3] is None else counts[3]
                print(f"{label:24s} {log_n:6g} {counts[0]:6d} {counts[1]:6d} {counts[2]:8d} "
                      f"{twin[0]:>5} {twin[1]:>5} {twin[2]:>4}")
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
    print()
    print("hazard jets per quantity at log n = 20: jets, entries, gamma loop steps per jet")
    print(f"{'model':24s} " + " ".join(f"{name:>16s}" for name, _ in QUANTITIES))
    for label, model in labelled:
        gamma = label.startswith("gamma")
        cells = []
        for _, quantity in QUANTITIES:
            counts = jet_costs(model, quantity)
            if isinstance(counts, str):
                cells.append(f"{counts:>16s}")
                continue
            jets, entries, steps = counts
            per_jet = f"{steps / jets:.1f}" if gamma and jets else "-"
            cells.append(f"{jets:4d} {entries:5d} {per_jet:>6s}")
        print(f"{label:24s} " + " ".join(cells))
    print()
    print("cold CLI runs, counted at exit")
    print(f"{'command':24s} {'modules':>7s} {'-S':>4s} {'collections':>13s}")
    compileall.compile_dir(os.path.dirname(wt.__file__), quiet=1)
    base = {flags: set(cold_costs((), flags)[0]) for flags in ((), ("-S",))}
    # (interpreter, module names) -> the commands that load them
    loaded = collections.defaultdict(list)
    for argv in COLD_COMMANDS:
        runs = {flags: cold_costs(argv, flags) for flags in base}
        names = {flags: sorted(set(runs[flags][0]) - base[flags]) for flags in base}
        for flags in base:
            loaded[" ".join(("python", *flags)), " ".join(names[flags])].append(argv[0])
        stats = runs[()][1]
        print(f"{argv[0]:24s} {len(names[()]):7d} {len(names[('-S',)]):4d} {str(stats):>13s}")
    for (interpreter, names), commands in loaded.items():
        print(f"{interpreter}: {', '.join(commands)}: {names}")


if __name__ == "__main__":
    main()
