#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench (Release) and the library it measures into .bench_build/ at
the repository root, runs the helpers' self-test, then runs one workload.
The benchmark's output is passed through; its last line is the result JSON.
The script exits non-zero when the build, the self-test or the run fails, or
when the result line does not carry exactly the metrics BENCHMARK.json names
for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout carries only the benchmark.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are wrong"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        return "result metrics differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr).returncode:
        log("perfbench: self-test failed")
        return 1

    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_ROOT, "work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("perfbench: run failed with code %d" % done.returncode)
        return 1
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        sys.stdout.write(done.stdout)
        log("perfbench: " + problem)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
