"""Self-tests of the benchmark: inputs, oracles, self time, the tracer, and
the metric names promised in BENCHMARK.json.

    python3 perfbench/selftest.py

Runs plgee in-process on small inputs and takes a few seconds.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import inputs
import oracles
import run
import spans

sys.path.insert(0, str(run.SRC))
import plgee.cli  # noqa: E402
import plgee.estimator  # noqa: E402
from plgee.model import LOG  # noqa: E402

SMALL_FIT = inputs.CsvShape("log", 3_000, 4, 3, 0.4, (0.5, 0.25, -0.25))
SMALL_DIAG = inputs.CsvShape("identity", 120, 4, 3, 0.5, (1.0, 0.5, -0.5))
SMALL_GRID = (30, 60, 120)
SMALL_MC = dict(inputs.MC_SMALL, n=150, replications=40, base_seed=5)


def write_csv(path, X, y):
    with open(path, "w", encoding="utf-8") as fh:
        inputs._write_csv(fh, X, y)


class WithTempDir(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=inputs.cache_dir()))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def cli(self, argv):
        self.assertEqual(plgee.cli.main(argv), 0)


class InputTests(WithTempDir):
    def test_same_seed_same_arrays(self):
        a, b, c = (inputs.draw_arrays(SMALL_FIT, s) for s in (7, 7, 8))
        self.assertTrue(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))
        self.assertFalse(np.array_equal(a[1], c[1]))

    def test_csv_text_parses_back_exactly(self):
        for shape in (SMALL_FIT, SMALL_DIAG):
            X, y = inputs.draw_arrays(shape, 3)
            path = self.tmp / f"{shape.family}.csv"
            write_csv(path, X, y)
            data = plgee.cli.parse_dataset_csv(path)
            self.assertTrue(np.array_equal(data.X, X))
            self.assertTrue(np.array_equal(data.y, y))


class OracleTests(WithTempDir):
    def test_fit_oracle(self):
        X, y = inputs.draw_arrays(SMALL_FIT, 1)
        write_csv(self.tmp / "fit.csv", X, y)
        out = self.tmp / "fit.json"
        self.cli(["fit", "--data", str(self.tmp / "fit.csv"), "--link", "log",
                  "--out", str(out)])
        payload = json.loads(out.read_text())
        self.assertEqual(oracles.check_fit(X, y, "log", SMALL_FIT.beta0, payload), [])

        se = np.asarray(payload["stderr"])
        for shift in (1e-2, 10.0):           # small: off the root; large: off beta0
            bad = dict(payload, beta_hat=(np.asarray(payload["beta_hat"])
                                          + shift * se).tolist())
            problems = oracles.check_fit(X, y, "log", SMALL_FIT.beta0, bad)
            self.assertTrue(any("estimating function" in p for p in problems), problems)
        self.assertTrue(any("standard errors" in p for p in problems), problems)

    def test_diagnose_oracle(self):
        X, y = inputs.draw_arrays(SMALL_DIAG, 1)
        write_csv(self.tmp / "diag.csv", X, y)
        out = self.tmp / "diag.json"
        self.cli(["diagnose", "--data", str(self.tmp / "diag.csv"), "--link", "identity",
                  "--grid", ",".join(map(str, SMALL_GRID)), "--out", str(out)])
        payload = json.loads(out.read_text())
        self.assertEqual(oracles.check_diagnose(X, y, "identity", SMALL_GRID, payload), [])

        bad = json.loads(out.read_text())
        bad["trend"][1]["gamma_D"] *= 1.0 + 1e-6
        self.assertTrue(oracles.check_diagnose(X, y, "identity", SMALL_GRID, bad))
        bad = json.loads(out.read_text())
        bad["beta"][0] += 1e-6
        self.assertTrue(oracles.check_diagnose(X, y, "identity", SMALL_GRID, bad))
        self.assertTrue(oracles.check_diagnose(X, y, "identity", (30, 60, 100), payload))

    def test_simulate_oracle(self):
        config = self.tmp / "sim.json"
        config.write_text(json.dumps(SMALL_MC))
        out, reps = self.tmp / "sim_out.json", self.tmp / "reps.csv"
        self.cli(["simulate", "--config", str(config), "--workers", "1",
                  "--replicates-csv", str(reps), "--out", str(out)])
        payload, text = json.loads(out.read_text()), reps.read_text()
        self.assertEqual(oracles.check_simulate(SMALL_MC, payload, text), [])

        self.assertTrue(oracles.check_simulate(SMALL_MC, dict(payload, n_failures=1), text))
        self.assertTrue(oracles.check_simulate(
            SMALL_MC, dict(payload, coverage=[0.5] * SMALL_MC["p"]), text))
        lines = text.splitlines(keepends=True)
        self.assertTrue(oracles.check_simulate(SMALL_MC, payload, "".join(lines[:-1])))


def synthetic(rows):
    return [spans.Span(name, start, end, parent, None)
            for name, start, end, parent in rows]


class SpanTests(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        tree = synthetic([
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),       # overlaps a: the union 1..6 counts once
            ("a.child", 2.0, 3.0, 1),
            ("late", 9.0, 12.0, 0),   # runs past its parent: only 9..10 counts
            ("c", 7.0, 8.0, 0),
        ])
        got = spans.self_times(tree)
        for value, want in zip(got, [10 - 5 - 1 - 1, 3 - 1, 3, 1, 3, 1]):
            self.assertAlmostEqual(value, want)

    def test_tracer_records_nesting_and_restores(self):
        originals = (plgee.estimator.sym_eigen, plgee.cli.dumps_stable)
        X, y = inputs.draw_arrays(SMALL_FIT, 2)
        tracer = spans.Tracer("selftest")
        tracer.install()
        try:
            plgee.cli.dumps_stable({"a": [1.0, [2.0, 3.0]]})
            plgee.estimator.two_step_fit(plgee.cli.LongitudinalDataset(X, y), LOG)
        finally:
            tracer.uninstall()
        self.assertEqual((plgee.estimator.sym_eigen, plgee.cli.dumps_stable), originals)

        recorded = [spans.Span(*s) for s in tracer.spans]
        names = [s.name for s in recorded]
        self.assertEqual(names.count("cli.dumps_stable"), 1)   # recursion folded
        top = names.index("estimator.two_step_fit")
        indep = names.index("estimator.gee_independence_fit")
        self.assertEqual(recorded[indep].parent, top)
        self.assertTrue(any(s.name == "matkernel.sym_eigen" and s.parent == indep
                            for s in recorded))
        self.assertTrue(all(s.end >= s.start for s in recorded))
        metrics = spans.layer_metrics(recorded)
        self.assertGreater(metrics["estimator.indep_iterations"], 0)
        self.assertGreaterEqual(metrics["estimator.model_evals_per_iteration"], 1.0)


class MetricNameTests(WithTempDir):
    def test_every_benchmark_metric_is_produced(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        config = self.tmp / "sim.json"
        config.write_text(json.dumps(SMALL_MC))
        argv = ["simulate", "--config", str(config), "--workers", "1",
                "--out", str(self.tmp / "out.json")]
        tracer = spans.Tracer("selftest")
        tracer.install()
        try:
            self.cli(argv)
        finally:
            tracer.uninstall()

        prep = run.Prepared(argv, SMALL_MC["replications"], [], lambda: [], "")
        bench = run.Run("mc_small", prep, self.tmp, 0)
        bench.setup_times = [(0.4, 0.3), (0.5, 0.3)]
        bench.samples = [
            {"traced": False, "wall_s": 1.0, "ref_s": 0.3, "maxrss_kb": 50_000, "problems": []},
            {"traced": True, "wall_s": 1.1, "ref_s": 0.3, "maxrss_kb": 50_000, "problems": []},
        ]
        bench.layer_samples = [spans.layer_metrics([spans.Span(*s) for s in tracer.spans])]

        end_to_end = bench.end_to_end()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: run.END_TO_END_UNITS[k] for k in end_to_end})
        per_layer = bench.per_layer()
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: run.layer_unit(k) for k in per_layer})
        self.assertTrue(all(v > 0 for v in end_to_end.values()))
        self.assertGreaterEqual(per_layer["simulator.runs_per_replicate"], 1)
        self.assertGreaterEqual(per_layer["simulator.indep_fits_per_replicate"], 1)


if __name__ == "__main__":
    unittest.main()
