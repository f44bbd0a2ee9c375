#!/usr/bin/env python3
"""The repository benchmark: build mcx_perf from source, run one workload,
check its outputs, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. mcx_perf (perfbench/src) is built with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs
only rebuild what changed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A run whose
output checks fail prints that object with "correct": false and exits 1.

Further options (used by perfbench/tests/selftest.py):
    --reference PATH   pinned reference counts (default perfbench/reference.json)
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build mcx_perf; serialized by a lock file."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT}: run from a full checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "mcx_perf",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            # Build output goes to stderr: stdout carries only the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return build_dir / "mcx_perf"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-paper", "mc-cliff", "sat-exact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args()

    reference_file = Path(args.reference)
    if not reference_file.is_file():
        fail(f"missing reference counts {reference_file}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(Path(".bench_out").resolve())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"mcx_perf exited with {done.returncode}")
    result = json.loads(lines[-1])

    # Pinned per-cell success counts: any mismatch is a failed operation.
    pinned = json.loads(reference_file.read_text())["workloads"].get(args.workload, {})
    measured = result.get("reference", {})
    mismatches = 0
    for cell in sorted(set(pinned) | set(measured)):
        if pinned.get(cell) != measured.get(cell):
            mismatches += 1
            print(f"perfbench: reference mismatch on {cell}: pinned {pinned.get(cell)}, "
                  f"measured {measured.get(cell)}", file=sys.stderr)
    failed = result["failed"] + mismatches
    attempted = result["attempted"] + len(pinned)

    # Untraced runs report the end_to_end metrics, traced runs the per_layer
    # ones, exactly as BENCHMARK.json names them.
    metrics = result["metrics"]
    if not args.trace:
        metrics["ok_share"] = {"value": max(0.0, 1.0 - failed / attempted), "unit": "share"}
    expected = expected_metrics(args.trace)
    if expected is not None:
        for name, unit in expected.items():
            got = metrics.get(name)
            if got is None or got["unit"] != unit:
                fail(f"metric {name} [{unit}] missing from the output")
        metrics = {name: metrics[name] for name in expected}

    out = {
        "correct": result["correct"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
