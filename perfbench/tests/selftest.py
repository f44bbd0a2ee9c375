#!/usr/bin/env python3
"""Self-test of the repository benchmark harness.

    python3 perfbench/tests/selftest.py        (from the root of a checkout)

Runs every workload at a tiny length, untraced and traced, and asserts that
each run passes its output checks and emits every metric BENCHMARK.json
names, with its unit. Then asserts that a perturbed pinned reference count
is caught, and that the benchmark refuses to run (non-zero exit, no result
line) in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SCRATCH = ROOT / ".bench_out" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, seconds="0.5"):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
               "--seconds", seconds, "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Harness(unittest.TestCase):
    def check_metrics(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, f"{workload}: {metric['name']} reads 0")

    def test_every_metric_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 0)

    def test_every_metric_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 1)
                spans = ROOT / ".bench_out" / f"spans-{workload}.tsv"
                header = spans.read_text().splitlines()[0]
                self.assertEqual(header, "id\tparent\tname\tstart_ns\tend_ns\trequest")

    def test_perturbed_reference_is_caught(self):
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        cells = reference["workloads"]["mc-paper"]
        cell = sorted(cells)[0]
        cells[cell] += 1
        SCRATCH.mkdir(parents=True, exist_ok=True)
        perturbed = SCRATCH / "reference-perturbed.json"
        perturbed.write_text(json.dumps(reference))
        done = run("mc-paper", 0, "--reference", str(perturbed), seconds="0.2")
        self.assertNotEqual(done.returncode, 0)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_share"]["value"], 1)
        self.assertIn(cell, done.stderr)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-paper",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
