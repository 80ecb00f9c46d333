"""Self-tests of the benchmark itself (not of weibtail).

    python3 perfbench/selftest.py        # from the repository root

Checks that the inputs are a pure function of the seed, that the
correctness check catches a b_n off by 1e-6 relative and a corrupted CLI
byte, and that every workload runs end to end at a tiny size.  The file
is deliberately not named test_*.py so the repository's pytest run does
not collect it.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import decks  # noqa: E402
import gauge  # noqa: E402
import worker  # noqa: E402
import weibtail as wt  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class InputsArePureFunctionOfSeed(unittest.TestCase):
    def test_same_seed_same_deck(self):
        for name in decks.WORKLOADS:
            self.assertEqual(decks.make_deck(name, 7), decks.make_deck(name, 7))
            self.assertNotEqual(decks.make_deck(name, 7), decks.make_deck(name, 8))

    def test_independent_of_interpreter_and_hash_seed(self):
        code = ("import sys; sys.path.insert(0, %r); import decks; "
                "print(repr(decks.make_deck(%r, 11)))")
        outs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            for name in decks.WORKLOADS:
                proc = subprocess.run([sys.executable, "-c", code % (HERE, name)],
                                      env=env, capture_output=True, text=True, check=True)
                outs.add((name, proc.stdout))
        self.assertEqual(len(outs), len(decks.WORKLOADS))

    def test_ranges(self):
        deck = decks.block_sweep(3)
        for op in deck.ops:
            if op.log_n is not None:
                spec = deck.models[op.entry]
                self.assertGreaterEqual(op.log_n, decks.log_n_floor(spec))
                self.assertLessEqual(op.log_n, decks.log_n_ceiling(spec))
        gamma = [op.log_n for op in deck.ops
                 if op.log_n is not None and deck.models[op.entry].name == "gamma"]
        self.assertGreater(max(gamma), 0.9 * decks.GAMMA_LOG_N_MAX)
        reach = [op.log_n for op in decks.gamma_reach(3).ops]  # gamma above the ceiling
        self.assertGreater(min(reach), decks.GAMMA_LOG_N_MAX)
        self.assertTrue(650.0 < max(reach) <= decks.LOG_N_MAX)
        for op in decks.error_curves(3).ops:
            self.assertTrue(decks.GRID_MIN <= op.grid[2] <= decks.GRID_MAX)


class CheckCatchesDefects(unittest.TestCase):
    def test_perturbed_b_n(self):
        deck = decks.block_sweep(5)
        seen = set()
        for op in deck.ops:
            spec = deck.models[op.entry]
            if op.fn != "norming" or spec.name in seen:
                continue
            seen.add(spec.name)
            model = wt.build_model(spec.name, **spec.kwargs())
            out = worker.serialize("norming", wt.norming(model, min(op.log_n, 400.0)))
            self.assertEqual(check.check_norming(spec, min(op.log_n, 400.0), out), [], spec)
            out["b_exact"] *= 1.0 + 1e-6
            self.assertNotEqual(check.check_norming(spec, min(op.log_n, 400.0), out), [], spec)
        self.assertEqual(seen, set(decks.MODELS))

    def test_corrupted_cli_byte(self):
        with open(os.path.join(ROOT, "src", "weibtail", "schemas", "report.schema.json")) as fh:
            schema = json.load(fh)
        deck = decks.Deck("cli-cold", 0, models=[decks.ModelSpec("normal")], ops=[
            decks.Op("norming", 0, log_n_list=(5.0, 50.0), fmt="csv"),
            decks.Op("report", 0, log_n_list=(5.0,), fmt="json", t_grid=(1e2, 1e4, 1e6, 1e8, 1e10)),
        ])
        for i, op in enumerate(deck.ops):
            rc, out, err = check.run_cli_in_process(wt, decks.cli_argv(deck, op))
            self.assertEqual(check.check_cli_output(wt, deck, i, rc, out, err, schema), [])
            pos = out.index(b"5")
            bad = out[:pos] + b"6" + out[pos + 1:]
            self.assertNotEqual(check.check_cli_output(wt, deck, i, rc, bad, err, schema), [])


class GaugeScaling(unittest.TestCase):
    def test_factors_use_nearby_samples(self):
        meter = gauge.Gauge()
        ref = gauge.REFERENCE_NS
        # a slow phase (gauge twice the reference) then a quiet one, 10 s apart
        meter.samples = [(0, 2 * ref), (int(0.5e9), 2 * ref), (int(10e9), ref)]
        self.assertEqual(meter.factors([int(0.2e9), int(9.8e9), int(20e9)]), [0.5, 1.0, 1.0])
        self.assertGreater(gauge.unit(), 0)


class WorkloadsSmokeRun(unittest.TestCase):
    def test_warm_workloads_tiny(self):
        for deck in (decks.block_sweep(1, entries=2), decks.error_curves(1, entries=1)):
            # keep the grids small here
            deck.ops = [dataclasses.replace(op, grid=(-3.0, 6.0, 200)) if op.grid else op
                        for op in deck.ops]
            models = [wt.build_model(s.name, **s.kwargs()) for s in deck.models]
            res = worker.run_loop(wt, deck, models, 0.05)
            self.assertGreaterEqual(res["attempted"], 1)
            self.assertEqual(res["untyped"], [])
            self.assertEqual(check.check_warm(deck, res["outputs"], ROOT), [])
            traced = worker.trace(wt, deck, models, 0.05)
            self.assertEqual(check.check_warm(deck, traced["outputs"], ROOT), [])
            for name in check.PER_LAYER_UNITS:
                if not name.startswith(("import.", "failed.")):
                    self.assertIn(name, traced["per_layer"])

    def test_command_end_to_end(self):
        spec = _benchmark_spec()
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(decks.WORKLOADS))
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(check.PER_LAYER_UNITS))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_refuses_without_sources(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "block-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
