"""The benchmark's own tests: a short run of each workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

Each test starts ``perfbench/run.py`` the way a caller does and checks
the printed record: every metric by name with its unit, the per-layer
coverage and tracing overhead on traced runs, and that a failed
correctness check is counted.  (Not named ``test_*.py``, so the repo's
own test run does not collect these minute-long runs.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import run as bench  # noqa: E402

WORKLOADS = tuple(bench.WORKLOADS)
END_TO_END, PER_LAYER = bench.declared_metrics()
OWN_LAYERS = {
    "serve": "detectors.iforest.score_ms",
    "fig3": "detectors.iforest.fit_ms",
    "stream": "streaming.window.ingest_ms",
}


def run_bench(workload: str, trace: int, seconds: float = 2.0, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    diagnostics = json.loads(lines[-2][len("diagnostics "):])
    return json.loads(lines[-1]), diagnostics


class TestWorkloads(unittest.TestCase):
    def check_record(self, record: dict, names_units) -> None:
        self.assertEqual(set(record), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(record["correct"])
        self.assertGreaterEqual(record["attempted"], 1)
        self.assertEqual(record["failed"], 0)
        self.assertEqual(
            [(name, m["unit"]) for name, m in record["metrics"].items()], names_units
        )

    def test_end_to_end_metrics_by_name_and_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace=0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                record, diagnostics = parse(proc)
                self.check_record(record, END_TO_END)
                for name, metric in record["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)
                tail = diagnostics["latency_tail"]
                self.assertGreaterEqual(tail["tail_percentile"], 50.0)
                self.assertGreaterEqual(tail["n"], 1)
                self.assertIn("host_steal_share", diagnostics["machine"])
                self.assertIn("program_cpu_s", diagnostics["machine"])
                self.assertGreater(diagnostics["host_speed"]["readings"], 0)
                self.assertGreater(diagnostics["unscaled"]["curves_per_s"], 0.0)

    def test_traced_run_reports_layers_coverage_and_overhead(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                record, diagnostics = parse(proc)
                self.check_record(record, PER_LAYER)
                metrics = record["metrics"]
                self.assertGreater(metrics[OWN_LAYERS[workload]]["value"], 0.0)
                self.assertGreater(metrics["trace.overhead"]["value"], 0.0)
                uncovered = metrics["trace.uncovered_share"]["value"]
                self.assertTrue(0.0 <= uncovered < 1.0, uncovered)
                self.assertNotIn(OWN_LAYERS[workload], diagnostics["layers_not_run"])

    def test_refuses_to_run_without_the_program(self):
        os.makedirs(common.SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=common.SCRATCH) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("stream", trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class TestHostSpeed(unittest.TestCase):
    def test_scaling_cancels_a_uniformly_slower_host(self):
        speed = common.HostSpeed()
        for t, ms in ((0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 2.0)):
            speed.read(common.REF_NOMINAL_MS * ms, at=t)
        # The same op, timed at normal speed and at half speed.
        scaled = speed.scale([0.010, 0.020], [0.1, 2.9])
        self.assertAlmostEqual(scaled[0], scaled[1])
        self.assertAlmostEqual(scaled[0], 0.010)

    def test_busy_rate_leaves_out_time_between_ops(self):
        # Ten 0.1 s ops per 2 s window: 10 ops per busy second, not 5 per second.
        done = [0.1 * (k + 1) + 2.0 * w for w in range(3) for k in range(10)]
        rate = common.window_rate(done, [0.1] * len(done), 0.0, 6.0)
        self.assertAlmostEqual(rate, 10.0)


class TestFailedCheckIsCounted(unittest.TestCase):
    def test_oracle_mismatch_counts_as_failed(self):
        code = r"""
import sys
sys.path[:0] = ["perfbench", "src"]
import common
import stream_workload as wl

real_build = wl.build

def skewed_build(prime, incremental=True):
    detector = real_build(prime, incremental)
    if not incremental:
        # A different reference: the oracle no longer agrees.
        detector.process(wl.make_inputs(99)[1][0])
    return detector

wl.build = skewed_build
outcome = wl.run(3, 1.0, False)
outcome.metric("ok_share", 1.0 - outcome.failed / outcome.attempted, "fraction")
print(common.result_line(outcome, [("ok_share", "fraction")]))
"""
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(record["correct"])
        self.assertGreater(record["failed"], 0)
        self.assertLess(record["metrics"]["ok_share"]["value"], 1.0)

    def test_broken_detector_scores_count_as_failed(self):
        code = r"""
import sys
sys.path[:0] = ["perfbench", "src"]
import common
import fig3_workload as wl

real_funta = wl.methods_module.funta_outlyingness

def inverted_funta(*args, **kwargs):
    # Outliers now score lowest: FUNTA's AUCs fall below the paper's band.
    return -real_funta(*args, **kwargs)

wl.methods_module.funta_outlyingness = inverted_funta
outcome = wl.run(3, 2.5, False)
outcome.metric("ok_share", 1.0 - outcome.failed / outcome.attempted, "fraction")
print(common.result_line(outcome, [("ok_share", "fraction")]))
"""
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(record["correct"])
        self.assertEqual(record["failed"], record["attempted"])
        self.assertEqual(record["metrics"]["ok_share"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
