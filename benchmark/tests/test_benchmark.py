#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m unittest discover -s benchmark/tests -v

They build the runner if needed (through run.py), then check that the
open-loop schedule is a function of the seed, that every run prints
exactly the metrics BENCHMARK.json names, that each workload passes a
short smoke run with every output correct, and that the benchmark refuses
to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "benchmark"))
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = 2


def run_benchmark(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SMOKE_SECONDS),
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def schedule(workload, seed):
    out = subprocess.run([run.BINARY, "--print-schedule", "--workload",
                          workload, "--seed", str(seed), "--seconds", "15"],
                         capture_output=True, text=True, check=True)
    return out.stdout


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workloads_are_the_declared_three(self):
        self.assertEqual(WORKLOADS, ["batch-mixed", "fleet-hot", "fleet-cold"])
        for w in SPEC["workloads"]:
            self.assertTrue(w["why"] and "\n" not in w["why"])

    def test_schedule_is_deterministic_per_seed(self):
        for workload in WORKLOADS:
            first = schedule(workload, 7)
            self.assertEqual(first, schedule(workload, 7))
            self.assertNotEqual(first, schedule(workload, 8))
            self.assertIn("low requests=", first)
            self.assertIn("high requests=", first)

    def check_result(self, workload, trace, expected):
        proc = run_benchmark(workload, seed=3, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        self.assertIn("stamp {", proc.stdout)
        return result["metrics"]

    def test_smoke_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0, SPEC["end_to_end"])
                for name in ("setup_s", "docs_per_s", "doc_ms_p50",
                             "max_rate_rps", "lat_ms_p50.low"):
                    self.assertGreater(metrics[name]["value"], 0, name)
                self.assertEqual(metrics["ok_frac"]["value"], 1)

    def test_smoke_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1, SPEC["per_layer"])
                self.assertLess(
                    abs(metrics["core.unattributed_frac"]["value"]), 0.10)
                if workload == "fleet-hot":
                    self.assertGreaterEqual(
                        metrics["serve.cache.hit_frac"]["value"], 0.99)
                if workload == "fleet-cold":
                    self.assertEqual(
                        metrics["serve.cache.hit_frac"]["value"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_benchmark(WORKLOADS[0], seed=1, trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
