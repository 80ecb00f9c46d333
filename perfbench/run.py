"""weibtail benchmark: one command, three workloads, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload {cli-cold,block-sweep,error-curves} \
        --seed N --seconds S --trace {0,1}

Each run starts fresh interpreters with ``src`` on the path (the console
script is not assumed to be installed), drives one closed loop with one
client, checks the outputs outside the timed region, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The lines above it are a human-readable summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import decks  # noqa: E402
import gauge  # noqa: E402
import worker  # noqa: E402

SETUP_PROBES = 5
GAUGE_UNITS = 3  # gauge units before and after each CLI invocation
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker_cmd(mode, args, extra=()):
    return [sys.executable, os.path.join(HERE, "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def timed_setup(cmd, env, root):
    """Interpreter start to the worker's ``ready`` line, in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"worker did not start: {line!r} (exit {proc.returncode})")
    return elapsed, rest


def gauged(meter, fn):
    """Run fn between gauge samples; return (its result, its start and end ns)."""
    for _ in range(GAUGE_UNITS):
        meter.take()
    t0 = time.perf_counter_ns()
    result = fn()
    t1 = time.perf_counter_ns()
    for _ in range(GAUGE_UNITS):
        meter.take()
    return result, t0, t1


def setup_time(args, env, root):
    """set-up at reference speed and the samples as measured.

    Median over SETUP_PROBES fresh interpreters of each probe's time times
    START_REFERENCE_NS over the mean of the bare interpreter starts just
    before and after it.
    """
    bare = [gauge.bare_start(env, root)]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(timed_setup(worker_cmd("setup", args), env, root)[0])
        bare.append(gauge.bare_start(env, root))
    ref = 2 * gauge.START_REFERENCE_NS
    scaled = [p * ref / (a + b) for p, a, b in zip(probes, bare, bare[1:])]
    return statistics.median(scaled), probes


def tail_latency(res, lat_ms):
    """op_tail_ms and a line saying which percentile of how many samples it is.

    With complete deck passes: per pass, the latency with ten successful
    ops of that pass above it, median over passes.  Otherwise the same
    over the whole run.
    """
    beyond = worker.TAIL_BEYOND
    tails = res.get("pass_tails_ns")
    if tails:
        m = res["pass_ops"]
        return statistics.median(tails) / 1e6, (
            f"op_tail_ms: p{100.0 * (m - beyond) / m:.2f} of each complete pass of {m} ops "
            f"({beyond} successful ops of the pass beyond it), median over {len(tails)} "
            f"passes; {len(lat_ms)} successful ops in all")
    n = len(lat_ms)
    return worker.pass_tail(lat_ms), (
        f"op_tail_ms: p{100.0 * (n - min(beyond, n - 1)) / n:.2f} of {n} successful ops, "
        f"{min(beyond, n - 1)} beyond it")


def import_times(env, root):
    """Cumulative `-X importtime` seconds of weibtail, its catalog and numpy (median)."""
    wanted = {"weibtail": [], "weibtail.catalog": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import weibtail"],
            env=env, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in wanted:
            wanted[name].append(seen.get(name, 0.0))
    return {f"import.{name.split('.')[-1]}_s": statistics.median(v) for name, v in wanted.items()}


# ----------------------------------------------------------------------
# cli-cold: the client loop runs here, one CLI subprocess at a time
# ----------------------------------------------------------------------


def cli_loop(deck, env, root, seconds):
    """One CLI subprocess at a time; each invocation's latency is scaled by
    the gauge samples taken just before and after it."""
    ops = deck.ops
    meter = gauge.Gauge()
    latencies, spans, rss, results = [], [], [], {}
    failures = {}
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        idx = i % len(ops)
        argv = decks.cli_argv(deck, ops[idx])
        (returncode, out, err, maxrss), t0, t1 = gauged(meter, lambda: _invoke(argv, env, root))
        rss.append(maxrss)
        results.setdefault(idx, (returncode, out, err))
        if returncode == 0:
            latencies.append(t1 - t0)
            spans.append((t0 + t1) // 2)
        else:
            code = _cli_error_code(returncode, err)
            failures[code] = failures.get(code, 0) + 1
        i += 1
    scaled = [lat * f for lat, f in zip(latencies, meter.factors(spans, window_s=1.0))]
    return {
        "attempted": i,
        "elapsed_s": sum(scaled) / 1e9,
        "latencies_ns": scaled,
        "raw_p50_ns": statistics.median(latencies) if latencies else 0.0,
        "gauge_ns": [d for _, d in meter.samples],
        "failures": failures,
        "peak_rss_kb": max(rss),
        "cli_results": results,
        "untyped": [],
    }


def _invoke(argv, env, root):
    """One `python -m weibtail.cli` run: (exit code, stdout, stderr, peak RSS kB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "weibtail.cli", *argv],
        env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err, usage.ru_maxrss


def _cli_error_code(returncode, err):
    if returncode == 3:
        try:
            return json.loads(err.decode().strip().splitlines()[-1])["error"]["code"]
        except (ValueError, KeyError, IndexError):
            return "exit3"
    return f"exit{returncode}"


# ----------------------------------------------------------------------
# warm workloads: the loop runs in a worker process
# ----------------------------------------------------------------------


def worker_result(cmd, env, root):
    setup_s, rest = timed_setup(cmd, env, root)
    lines = rest.strip().splitlines()
    if not lines:
        fail("worker printed no result")
    return setup_s, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(decks.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weibtail", "__init__.py")):
        fail("run from the repository root: src/weibtail not found")
    env = child_env(root)
    deck = decks.make_deck(args.workload, args.seed)

    if not args.trace:
        # the median of the set-up samples hides the one start that writes bytecode caches
        setup_s, setups = setup_time(args, env, root)

    import check  # after the probes: its imports stay out of their timing

    if args.trace:
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json")
        _, res = worker_result(
            worker_cmd("trace", args, ("--seconds", str(args.seconds), "--spans", spans_path)),
            env, root,
        )
        per_layer = import_times(env, root)
        per_layer.update(res["per_layer"])
        mismatches = check.check_trace(deck, res, root)
        reach_bad = check.check_reach(args.seed, res["reach_outputs"], root)
    elif args.workload == "cli-cold":
        res = cli_loop(deck, env, root, args.seconds)
        mismatches = check.check_cli(deck, res["cli_results"], root)
    else:
        _, res = worker_result(
            worker_cmd("run", args, ("--seconds", str(args.seconds))), env, root
        )
        mismatches = check.check_warm(deck, res["outputs"], root)

    failures = dict(res["failures"])
    if mismatches:
        failures["mismatch"] = len({i for i, _ in mismatches})
    failed = sum(failures.values())
    untyped = res["untyped"]
    correct = not mismatches and not untyped
    if args.trace:
        # the probe is not a workload op: a wrong answer makes the run
        # incorrect but does not count as a failed op
        mismatches += reach_bad
        correct = correct and not reach_bad
    attempted = res["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"attempted {attempted}  failed {failed} ({failed / attempted:.4%})  by code {failures}")
    for line in ([msg for _, msg in mismatches] + untyped)[:20]:
        print(f"  problem: {line}")

    if args.trace:
        for code in check.FAILURE_CODES:
            per_layer[f"failed.{code}"] = float(failures.get(code, 0))
        per_layer["failed.other"] = float(
            sum(v for k, v in failures.items() if k not in check.FAILURE_CODES)
        )
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in check.PER_LAYER_UNITS.items()}
        print(f"spans written to {os.path.relpath(spans_path, root)}")
    else:
        lat = [v / 1e6 for v in res["latencies_ns"]]
        if not lat:
            fail("no op succeeded")
        tail, tail_note = tail_latency(res, lat)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / res["elapsed_s"],
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"failed_frac {failed / attempted:.6f}  "
              f"set-up samples as measured {[round(s, 4) for s in setups]} s")
        print(f"as measured: op p50 {res['raw_p50_ns'] / 1e6:.6g} ms; gauge unit median "
              f"{statistics.median(res['gauge_ns']) / 1e6:.4g} ms over "
              f"{len(res['gauge_ns'])} samples (reference {gauge.REFERENCE_NS / 1e6:.4g} ms)")
        print(tail_note)
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
