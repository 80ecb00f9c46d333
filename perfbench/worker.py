"""Workload process: imports weibtail, builds the deck's models and runs ops.

Started by run.py as a fresh interpreter with ``src`` on the path:

    python3 perfbench/worker.py {setup|run|trace} --workload W --seed N [--seconds S]

It writes ``ready`` on stdout as soon as the workload is set up (run.py
times interpreter start to that line as ``setup_s``), then, for ``run``
and ``trace``, one JSON line with what it measured.  ``run`` is the
untraced closed loop; ``trace`` runs one deck pass untraced, then traced
passes (spans plus counting wrappers on the models' public callables),
then times single kernel calls at the points the first pass touched.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

import decks

SPAN_NAMES = {
    "norming": "norming.norming",
    "penultimate_index": "penultimate.penultimate_index",
    "error_comparison": "penultimate.error_comparison",
    "condition_sweep": "vonmises.condition_sweep",
}
# library calls each CLI command makes, per log n (condition_sweep once)
CLI_LIBRARY_FNS = {
    "models": (),
    "norming": ("norming",),
    "penultimate": ("penultimate_index",),
    "errors": ("error_comparison",),
    "vonmises": ("condition_sweep",),
    "report": ("norming", "penultimate_index", "error_comparison", "condition_sweep"),
}
KERNEL_POINTS_PER_MODEL = 200
KERNEL_REPEATS = 3


def library_call(wt, fn, model, op, log_n=None):
    """Run one quantity call for a deck op; CLI ops pass their log n."""
    ln = op.log_n if log_n is None else log_n
    if fn == "norming":
        return wt.norming(model, ln)
    if fn == "penultimate_index":
        return wt.penultimate_index(model, ln)
    if fn == "error_comparison":
        grid = op.grid or wt.penultimate.DEFAULT_GRID
        return wt.error_comparison(model, ln, grid, gamma_mode=op.gamma_mode)
    if fn == "condition_sweep":
        return wt.condition_sweep(model, op.t_grid)
    raise ValueError(f"unknown op {fn!r}")


def cli_calls(op):
    """(fn, log n) pairs of library calls behind one CLI invocation."""
    calls = []
    for fn in CLI_LIBRARY_FNS[op.fn]:
        if fn == "condition_sweep":
            calls.append((fn, None))
        else:
            calls.extend((fn, ln) for ln in op.log_n_list)
    return calls


def serialize(fn, res):
    """The fields of a result the checker compares, as JSON-safe values."""
    if fn == "norming":
        return {"b_exact": res.b_exact, "b_asymptotic": res.b_asymptotic, "a_scale": res.a_scale}
    if fn == "penultimate_index":
        return {
            "gamma_exact": res.gamma_exact,
            "classification": res.classification.value,
            "gamma_asymptotic": res.gamma_asymptotic,
            "rate_ultimate": res.rate_ultimate,
            "rate_penultimate": res.rate_penultimate,
            "gamma_prime_exact": res.gamma_prime_exact,
            "error": res.error,
        }
    if fn == "error_comparison":
        return {
            "sup_error_ultimate": res.sup_error_ultimate,
            "sup_error_penultimate": res.sup_error_penultimate,
            "argmax_ultimate": res.argmax_ultimate,
            "argmax_penultimate": res.argmax_penultimate,
            "gamma_used": res.gamma_used,
            "n_clipped": res.n_clipped,
        }
    if fn == "condition_sweep":
        return {
            "first_order": [v if math.isfinite(v) else None for v in res.first_order],
            "verdicts": {k: v.kind for k, v in res.verdicts.items()},
        }
    raise ValueError(fn)


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# counting wrappers and spans
# ----------------------------------------------------------------------


class Meter:
    """Counts and times calls of the models' public callables.

    ``H`` counts l.value (tail families) or classical_log_sf calls,
    ``hazard`` counts hazard blocks (l.d1 or hazard_derivs).  For the
    tail families every hazard block also evaluates l once, so
    F-evaluations are H - hazard there and H for classical models.
    """

    def __init__(self):
        self.counts = Counter()
        self.ns = 0
        self.points = defaultdict(list)  # model name -> [(deck entry, x)] of H evaluations
        self.hazard_points = set()
        self.tail_family = set()  # model names whose hazard blocks evaluate l

    def wrap(self, key, fn, model_name, entry):
        if fn is None:
            return None
        points = self.points[model_name]

        def wrapped(x, *rest):
            t0 = time.perf_counter_ns()
            try:
                return fn(x, *rest)
            finally:
                self.ns += time.perf_counter_ns() - t0
                self.counts[(model_name, key)] += 1
                if key == "H" and len(points) < 4096:
                    points.append((entry, x))
                elif key == "hazard":
                    self.hazard_points.add((model_name, x))

        return wrapped

    def wrap_model(self, model, name, entry):
        """The model with every public callable wrapped, via dataclasses.replace."""
        if model.l is not None:
            self.tail_family.add(name)
            spec = model.l
            l_new = dataclasses.replace(
                spec,
                value=self.wrap("H", spec.value, name, entry),
                d1=self.wrap("hazard", spec.d1, name, entry),
                d2=self.wrap("d", spec.d2, name, entry),
                d3=self.wrap("d", spec.d3, name, entry),
                d4=self.wrap("d", spec.d4, name, entry),
            )
            return dataclasses.replace(model, l=l_new)
        return dataclasses.replace(
            model,
            classical_log_sf=self.wrap("H", model.classical_log_sf, name, entry),
            hazard_derivs=self.wrap("hazard", model.hazard_derivs, name, entry),
            classical_cdf=self.wrap("other", model.classical_cdf, name, entry),
            classical_density=self.wrap("other", model.classical_density, name, entry),
            classical_log_cdf=self.wrap("other", model.classical_log_cdf, name, entry),
            classical_log_pdf=self.wrap("other", model.classical_log_pdf, name, entry),
        )

    def f_evals(self, counts=None):
        counts = self.counts if counts is None else counts
        total = 0
        for (name, key), n in counts.items():
            if key == "H":
                total += n
            elif key == "hazard" and name in self.tail_family:
                total -= n
        return total

    def hazard_calls(self):
        return sum(n for (_, key), n in self.counts.items() if key == "hazard")


class Tracer:
    """Spans in memory: (name, start_ns, end_ns, parent, op_id, attrs)."""

    def __init__(self):
        self.spans = []

    def record(self, name, start, end, parent=None, op_id=None, **attrs):
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent,
            "op": op_id, "attrs": attrs,
        })
        return len(self.spans) - 1


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------


def setup(workload, seed):
    import weibtail as wt

    deck = decks.make_deck(workload, seed)
    models = [wt.build_model(s.name, **s.kwargs()) for s in deck.models]
    return wt, deck, models


def say_ready():
    sys.stdout.write("ready\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# untraced closed loop (warm workloads)
# ----------------------------------------------------------------------


TAIL_BEYOND = 10


def pass_tail(latencies):
    """The value with TAIL_BEYOND samples above it (the highest such percentile)."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def run_loop(wt, deck, models, seconds):
    """Closed loop, one op in flight, cycling the deck until ``seconds`` pass.

    A gauge unit runs between ops every GAUGE_EVERY_S (outside the op
    timings), and each op's latency is scaled to the reference speed by
    the gauge samples within half a second of it.  Timing metrics use complete
    deck passes only, so every run times the same mix of ops whatever the
    machine's speed; the ops of the last, partial pass still count as
    attempted (and failed).  Per complete pass it also keeps the latency
    with ten successful ops of that pass above it: a median over passes of
    that tail is steadier than the run's single eleventh-largest sample,
    which one stall can set.
    """
    ops = deck.ops
    n = len(ops)
    sample = set(deck.sample)
    latencies, starts = [], []
    pass_ends = []  # index into latencies where each complete pass ended
    failures = Counter()
    outputs = {}
    untyped = []
    Error = wt.errors.WeibtailError
    import gauge  # here, not at the top: its numpy import must stay out of setup_s

    meter = gauge.Gauge()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        meter.maybe()
        op = ops[i % n]
        code = None
        t0 = time.perf_counter_ns()
        try:
            res = library_call(wt, op.fn, models[op.entry], op)
        except Error as exc:
            code = exc.code
        except Exception as exc:  # a programming error: counted, reported, run goes on
            code = "untyped"
            untyped.append(f"op {i % n}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
        if code is None:
            latencies.append(t1 - t0)
            starts.append(t0)
            if i < n and i in sample:
                outputs[i] = serialize(op.fn, res)
        else:
            failures[code] += 1
        i += 1
        if i % n == 0:
            pass_ends.append(len(latencies))
    meter.take()
    scaled = [lat * f for lat, f in zip(latencies, meter.factors(starts, window_s=0.5))]
    timed = pass_ends[-1] if pass_ends else len(scaled)  # not one complete pass: time all
    bounds = zip([0] + pass_ends[:-1], pass_ends)
    return {
        "attempted": i,
        "pass_ops": n,
        "elapsed_s": sum(scaled[:timed]) / 1e9,
        "latencies_ns": scaled[:timed],
        "pass_tails_ns": [pass_tail(scaled[a:b]) for a, b in bounds],
        "raw_p50_ns": statistics.median(latencies[:timed]) if timed else 0.0,
        "gauge_ns": [d for _, d in meter.samples],
        "failures": dict(failures),
        "outputs": outputs,
        "untyped": untyped[:20],
        "peak_rss_kb": peak_rss_kb(),
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def _deck_calls(deck):
    """Flat list of (op index, fn, log n) library calls for one deck pass."""
    calls = []
    for i, op in enumerate(deck.ops):
        if deck.workload == "cli-cold":
            calls.extend((i, fn, ln) for fn, ln in cli_calls(op))
        else:
            calls.append((i, op.fn, op.log_n))
    return calls


def _run_pass(wt, deck, models, calls, tracer=None, meter=None, parent=None, twins=None):
    """Run the calls once; with ``twins`` (unwrapped models) each call first
    runs untraced on its twin, so the returned untraced time and the traced
    spans come from the same moments of a machine whose speed drifts."""
    Error = wt.errors.WeibtailError
    outcomes = []
    untraced_ns = 0
    for i, fn, ln in calls:
        op = deck.ops[i]
        model = models[op.entry]
        if twins is not None:
            t0 = time.perf_counter_ns()
            try:
                library_call(wt, fn, twins[op.entry], op, ln)
            except Exception:  # the traced call below records the outcome
                pass
            untraced_ns += time.perf_counter_ns() - t0
        before = meter.counts.copy() if meter else None
        ns_before = meter.ns if meter else 0
        t0 = time.perf_counter_ns()
        code, res = None, None
        try:
            res = library_call(wt, fn, model, op, ln)
        except Error as exc:
            code = exc.code
        except Exception as exc:
            code = "untyped"
            res = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if tracer is not None:
            delta = meter.counts - before
            tracer.record(
                SPAN_NAMES[fn], t0, t1, parent, i,
                model=deck.models[op.entry].name,
                callable_ns=meter.ns - ns_before,
                f_evals=meter.f_evals(delta),
                hazard_calls=sum(n for (_, k), n in delta.items() if k == "hazard"),
                grid_points=(op.grid or wt.penultimate.DEFAULT_GRID)[2]
                if fn == "error_comparison" else 0,
                code=code,
            )
        outcomes.append((i, fn, ln, code, res))
    return outcomes, untraced_ns


def _median_us(samples_ns):
    return statistics.median(samples_ns) / 1e3 if samples_ns else 0.0


def _time_call(f, *args):
    best = None
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter_ns()
        f(*args)
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def _kernel_metrics(wt, deck, models, meter, outcomes, tracer, parent):
    """Single-call kernel timings at the points the traced pass touched."""
    Error = wt.errors.WeibtailError
    out = {}
    for name in decks.MODELS:
        pts = meter.points.get(name, [])
        step = max(1, len(pts) // KERNEL_POINTS_PER_MODEL)
        samples = []
        t = time.perf_counter_ns()
        for entry, x in pts[::step][:KERNEL_POINTS_PER_MODEL]:
            try:
                samples.append(_time_call(wt.gumbel_coordinate, models[entry], x))
            except Error:
                continue
        tracer.record("model.gumbel_coordinate", t, time.perf_counter_ns(), parent, None,
                      model=name, calls=len(samples))
        out[f"model.gumbel_coordinate_us.{name}"] = _median_us(samples)

    # root solves at the pass's log n values, on wrapped models for the counts
    solve_meter = Meter()
    inv = defaultdict(list)
    solve_evals = solves = 0
    seen = set()
    t = time.perf_counter_ns()
    for i, fn, ln, code, res in outcomes:
        op = deck.ops[i]
        name = deck.models[op.entry].name
        if ln is None or (op.entry, ln) in seen or len(inv[name]) >= 32:
            continue
        seen.add((op.entry, ln))
        wrapped = solve_meter.wrap_model(models[op.entry], name, op.entry)
        before = solve_meter.counts.copy()
        try:
            wt.gumbel_coordinate_inverse(wrapped, ln)
        except Error:
            continue
        solves += 1
        solve_evals += solve_meter.f_evals(solve_meter.counts - before)
        inv[name].append(_time_call(wt.gumbel_coordinate_inverse, models[op.entry], ln))
    tracer.record("model.gumbel_coordinate_inverse", t, time.perf_counter_ns(), parent, None,
                  calls=solves)
    for name in decks.MODELS:
        out[f"model.gumbel_coordinate_inverse_us.{name}"] = _median_us(inv[name])
    out["root.evals_per_solve"] = solve_evals / solves if solves else 0.0

    # k-derivatives at the solved b_n points
    kd = defaultdict(list)
    b_points = []
    for i, fn, ln, code, res in outcomes:
        if fn == "norming" and code is None:
            b_points.append((deck.ops[i].entry, res.b_exact))
    if not b_points:
        for i, fn, ln, code, res in outcomes[:64]:
            op = deck.ops[i]
            if ln is None:
                continue
            try:
                b_points.append((op.entry, wt.gumbel_coordinate_inverse(models[op.entry], ln)))
            except Error:
                continue
    t = time.perf_counter_ns()
    for entry, b in b_points[:256]:
        for order in (1, 2, 3):
            try:
                kd[order].append(_time_call(wt.k_derivative, models[entry], b, order))
            except Error:
                continue
    tracer.record("model.k_derivative", t, time.perf_counter_ns(), parent, None,
                  calls=sum(len(v) for v in kd.values()))
    for order in (1, 2, 3):
        out[f"model.k_derivative_us.o{order}"] = _median_us(kd[order])
    return out


def trace(wt, deck, models, seconds):
    """Traced deck passes for ``seconds`` (at least one) on wrapped models.

    In the first pass every call also runs untraced just before, which
    gives the tracing overhead.  Counts come from that pass, so they repeat
    exactly for a seed; timings (self time, busy share) use every pass.
    """
    calls = _deck_calls(deck)
    meter = Meter()
    wrapped = [meter.wrap_model(m, s.name, i) for i, (m, s) in enumerate(zip(models, deck.models))]
    tracer = Tracer()
    root = tracer.record("workload." + deck.workload, time.perf_counter_ns(), None)
    t0 = time.perf_counter()
    outcomes, untraced_ns = _run_pass(wt, deck, wrapped, calls, tracer, meter, root, models)
    first_spans = [s for s in tracer.spans if s["op"] is not None]
    traced_s = sum(s["end"] - s["start"] for s in first_spans) / 1e9
    untraced_s = untraced_ns / 1e9
    hazard_calls, hazard_points = meter.hazard_calls(), len(meter.hazard_points)
    while time.perf_counter() < t0 + seconds:
        _run_pass(wt, deck, wrapped, calls, tracer, meter, root)
    tracer.spans[root]["end"] = time.perf_counter_ns()

    out = {
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
    }

    # catalog: building every model of the deck
    builds = []
    for _ in range(3):
        t = time.perf_counter_ns()
        for s in deck.models:
            wt.build_model(s.name, **s.kwargs())
        builds.append(time.perf_counter_ns() - t)
    out["catalog.build_model_ms"] = statistics.median(builds) / 1e6

    # counts: per op kind, hazard blocks per point, useful grid evaluations
    evals = defaultdict(list)
    grid_pts = f_ev_curves = 0
    for s in first_spans:
        fn = s["name"].split(".")[1]
        evals[fn].append(s["attrs"]["f_evals"])
        if fn == "error_comparison" and s["attrs"]["code"] is None:
            grid_pts += s["attrs"]["grid_points"]
            f_ev_curves += s["attrs"]["f_evals"]
    for fn in SPAN_NAMES:
        vals = evals.get(fn, [])
        out[f"model.evals_per_op.{fn}"] = sum(vals) / len(vals) if vals else 0.0
    out["maxima.useful_eval_ratio"] = grid_pts / f_ev_curves if f_ev_curves else 0.0
    out["kjet.hazard_calls_per_point"] = hazard_calls / hazard_points if hazard_points else 0.0

    # quantity self time (span minus the time inside the model callables it called)
    op_spans = [s for s in tracer.spans if s["op"] is not None]
    total_busy = sum(s["end"] - s["start"] for s in op_spans) or 1
    by_key = defaultdict(list)
    for s in op_spans:
        by_key[(s["name"], s["attrs"]["model"])].append(s)
    for span_name in SPAN_NAMES.values():
        for name in decks.MODELS:
            spans = by_key.get((span_name, name), [])
            selfs = [(s["end"] - s["start"] - s["attrs"]["callable_ns"]) / 1e6 for s in spans]
            busy = sum(s["end"] - s["start"] for s in spans)
            out[f"{span_name}.{name}.self_ms"] = statistics.median(selfs) if selfs else 0.0
            out[f"{span_name}.{name}.busy_share"] = busy / total_busy

    out.update(_kernel_metrics(wt, deck, models, meter, outcomes, tracer, root))
    cli_results = {}
    if deck.workload == "cli-cold":
        cli_metrics, cli_results = _cli_layer(wt, deck, tracer, root)
        out.update(cli_metrics)
    else:
        out["cli.self_ms"] = 0.0
        out["cli.bytes_out"] = 0.0

    reach, reach_outputs = _gamma_reach(wt, deck.seed, tracer, root)
    out["reach.gamma_refused_frac"] = reach

    sample = set(deck.sample)
    outputs = {i: serialize(fn, res) for i, fn, _, code, res in outcomes
               if code is None and i in sample and deck.workload != "cli-cold"}
    return {
        "per_layer": out,
        "reach_outputs": reach_outputs,
        "attempted": len(outcomes),
        "failures": dict(Counter(code for *_, code, _ in outcomes if code is not None)),
        "outputs": outputs,
        "cli_results": cli_results,
        "untyped": [res for *_, code, res in outcomes if code == "untyped"][:20],
        "spans": tracer.spans,
    }


def _gamma_reach(wt, seed, tracer, parent):
    """Share of the gamma reach probe the library refuses, and the answers it gives."""
    probe = decks.gamma_reach(seed)
    refused = 0
    outputs = {}
    for i, op in enumerate(probe.ops):
        spec = probe.models[op.entry]
        model = wt.build_model(spec.name, **spec.kwargs())
        t0 = time.perf_counter_ns()
        code = None
        try:
            outputs[i] = serialize("norming", wt.norming(model, op.log_n))
        except wt.errors.WeibtailError as exc:
            code = exc.code
            refused += 1
        tracer.record("reach.norming", t0, time.perf_counter_ns(), parent, None,
                      model=spec.name, log_n=op.log_n, code=code)
    return refused / len(probe.ops), outputs


def _cli_layer(wt, deck, tracer, parent):
    """In-process cli.main against the library calls of the same config."""
    from weibtail import cli

    self_ms = []
    bytes_out = []
    results = {}
    for i, op in enumerate(deck.ops):
        argv = decks.cli_argv(deck, op)
        mains, libs = [], []
        for _ in range(KERNEL_REPEATS):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            t1 = time.perf_counter_ns()
            if op.fn != "models":
                spec = deck.models[op.entry]
                model = wt.build_model(spec.name, **spec.kwargs())
                for fn, ln in cli_calls(op):
                    try:
                        library_call(wt, fn, model, op, ln)
                    except wt.errors.WeibtailError:
                        break
            t2 = time.perf_counter_ns()
            mains.append(t1 - t0)
            libs.append(t2 - t1)
            tracer.record("cli.main", t0, t1, parent, i, command=op.fn)
            tracer.record("cli.library", t1, t2, parent, i, command=op.fn)
        self_ms.append((min(mains) - min(libs)) / 1e6)
        bytes_out.append(len(out.getvalue().encode()))
        results[i] = (rc, out.getvalue(), err.getvalue())
    metrics = {
        "cli.self_ms": statistics.median(self_ms),
        "cli.bytes_out": sum(bytes_out) / len(bytes_out),
    }
    return metrics, results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(decks.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = parser.parse_args()

    if args.workload == "cli-cold" and args.mode != "trace":
        import weibtail  # noqa: F401  the cold start a CLI invocation pays
        say_ready()
        return 0
    wt, deck, models = setup(args.workload, args.seed)
    say_ready()
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = run_loop(wt, deck, models, args.seconds)
    else:
        result = trace(wt, deck, models, args.seconds)
        spans = result.pop("spans")
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
