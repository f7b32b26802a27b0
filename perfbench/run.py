#!/usr/bin/env python3
"""Build the benchmark runner from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus the runner into .bench_build/perfbench (Release);
later calls only let the build tool confirm the build is current. The
runner's report is passed through; its last stdout line is the JSON result,
checked here against the metric names BENCHMARK.json declares (end-to-end
for --trace 0, per-layer for --trace 1). Any failure exits non-zero.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources (CMakeLists.txt, src/) in the working directory; "
             "run from the root of a checkout")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        # A build tree configured for another checkout would build that one.
        shutil.rmtree(BUILD_DIR)
    if not cache.is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", str(BUILD_DIR), "--parallel", str(os.cpu_count() or 1)])


def run_build_step(cmd):
    # Build output goes to stderr: stdout carries only the report.
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(cmd)}")


def revision():
    """Git revision of the checkout, or 'unknown' when git cannot tell."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with the runner's JSON line (empty when it is well formed)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    expected = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(expected))}")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"end-to-end metric {name} is 0")
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name} unit {m.get('unit')} != {expected[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    env = dict(os.environ, ARTSCI_LOG="warn")
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the runner and waits for it before raising.
        fail(f"runner did not finish within {RUNNER_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"runner exited with {proc.returncode} without a JSON result")
    problems = validate(result, bool(args.trace))
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        print(f"perfbench: {args.workload} FAILED its correctness checks",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
