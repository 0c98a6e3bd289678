#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-lan --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); the benchmark's fingerprint records and
span traces are written next to it.  The last line of standard output is the
benchmark's JSON result.  Exits non-zero, without a result, if the library
sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], **quiet)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.hpp")):
        sys.exit("perfbench: library sources not found at " +
                 os.path.join(ROOT, "src"))
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    state_dir = os.path.join(build_root, "perfbench")
    try:
        exe = build(state_dir)
    except subprocess.CalledProcessError as err:
        sys.exit("perfbench: build failed: %s" % err)

    # The library reads MCMPI_* overrides (faults, shards, tuning) from the
    # environment; the workloads set every knob explicitly instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCMPI_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
