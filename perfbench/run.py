#!/usr/bin/env python3
"""Builds the dcSR benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload server_prepare --seed 1 --seconds 10 --trace 0

The harness and the library build into .bench_build/perfbench with the
repository's own CMake configuration. The harness runs with DCSR_THREADS set
to the number of usable cores unless the caller sets it. Its standard output
is passed through; the last line is the result object. Without the dcSR
sources next to this directory the build fails, and the script exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("server_prepare", "client_playback", "fleet_day")
RUN_TIMEOUT_S = 170


def build(jobs):
    generator = []
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                    *generator], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "dcsr_perfbench",
                    "-j", str(jobs)], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    cores = len(os.sched_getaffinity(0))
    try:
        build(cores)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "dcsr_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(BUILD, f"spans-{args.workload}.json")]
    env = dict(os.environ)
    env.setdefault("DCSR_THREADS", str(cores))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: harness exited with {proc.returncode}", file=sys.stderr)
        return 1

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    expected = expected_metrics(args.trace)
    if result is None or (expected is not None and set(result["metrics"]) != expected):
        print("perfbench: the result does not list the metrics BENCHMARK.json declares",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
