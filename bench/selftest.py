"""Self-tests of the benchmark, at a tiny size (under a minute).

From the root of the repository::

    python3 bench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit on each workload, that count metrics repeat exactly at a fixed seed,
and that the correctness gate fires: on a failing self-check identity, on
a non-finite estimate, and when the program's sources are missing; and
that a record carrying an estimator's error lowers ``ok_frac`` without
failing the replication.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import unittest

import run  # noqa: I001  (run pins BLAS threads before numpy is imported)
from spans import patched

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SELFTEST_OUT = run.OUT_ROOT / "selftest"
SEED = 3

TINY = {
    "desk_n500": run.Workload(120, run.ALL_ESTIMATORS, draws=8, boot=8, chunk_reps=2),
    "population_n5000": run.Workload(300, run.POP_ESTIMATORS, draws=8, boot=2, chunk_reps=2),
    "analytic_n500": run.Workload(
        120, ("naive", "adjusted", "or_ps_info", "or_ps_sandwich"), draws=8, boot=8, chunk_reps=4
    ),
}


def run_tiny(workload, trace, seconds="0.3"):
    """``(exit code, parsed last line or None)`` of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(SEED), "--seconds", seconds,
             "--trace", str(trace)],
            workloads=TINY,
        )
    lines = out.getvalue().strip().splitlines()
    last = lines[-1] if lines else ""
    return code, json.loads(last) if last.startswith("{") else None


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._saved_out = run.OUT_ROOT
        run.OUT_ROOT = SELFTEST_OUT
        if str(run.setup_probe.SRC) not in sys.path:
            sys.path.insert(0, str(run.setup_probe.SRC))

    @classmethod
    def tearDownClass(cls):
        run.OUT_ROOT = cls._saved_out

    def test_workloads_match_benchmark_json(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(names, set(run.WORKLOADS))
        self.assertEqual(names, set(TINY))

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in TINY:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_tiny(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)

    def test_counts_repeat_exactly_at_a_fixed_seed(self):
        count_units = {"count/rep", "count/call", "fraction"}
        _, first = run_tiny("desk_n500", 1)
        _, second = run_tiny("desk_n500", 1)
        counts = {
            name: m["value"] for name, m in first["metrics"].items() if m["unit"] in count_units
        }
        self.assertTrue(counts)
        for name, value in counts.items():
            self.assertEqual(second["metrics"][name]["value"], value, name)
        self.assertGreater(counts["estimators.joint.objective_evals_per_rep"], 0)

    def test_gate_fires_on_a_failing_identity(self):
        from drbayes import selfcheck

        corrupted = [
            *selfcheck.ALL_CHECKS,
            lambda: selfcheck.check_clever_covariate_matches_dr(corrupt_residual_sign=True),
        ]
        with patched([(selfcheck, "ALL_CHECKS", lambda _: corrupted)]):
            with contextlib.redirect_stderr(io.StringIO()):
                code, result = run_tiny("analytic_n500", 0)
        self.assertEqual(code, 1)
        self.assertIsNone(result)

    def test_output_check_fires_on_a_non_finite_estimate(self):
        from drbayes import simulation

        def nan_point(estimator):
            def broken(*args, **kwargs):
                return dataclasses.replace(estimator(*args, **kwargs), point=float("nan"))

            return broken

        with patched([(simulation.ESTIMATORS, "naive", nan_point)]):
            code, result = run_tiny("analytic_n500", 0)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_estimator_error_records_lower_ok_frac_only(self):
        from drbayes import simulation
        from drbayes.estimators import EstimatorError

        def raising(estimator):
            def broken(*args, **kwargs):
                raise EstimatorError("no estimate")

            return broken

        with patched([(simulation.ESTIMATORS, "naive", raising)]):
            code, result = run_tiny("analytic_n500", 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertAlmostEqual(result["metrics"]["ok_frac"]["value"], 0.75)

    def test_fails_without_the_program_sources(self):
        bare = SELFTEST_OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "analytic_n500",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
