#!/usr/bin/env python3
"""Build and run the GridSE frame-cycle benchmark.

Usage, from the root of a checkout:

    python3 framebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds framebench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR (default .bench_build), runs the arithmetic
self-test, then runs one workload in its own process. The last line of
standard output is the result JSON: {"correct", "attempted", "failed",
"metrics"}. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics, each checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"framebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no GridSE sources under {ROOT}/src; cannot build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only benchmark lines.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "framebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("arithmetic self-test failed")
        return 3

    cmd = [os.path.join(build_dir, "framebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 5
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    expected = expected_metrics(args.trace == 1)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            log(f"metric set differs from BENCHMARK.json: got {sorted(got)}")
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
