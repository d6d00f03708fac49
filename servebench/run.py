#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload read_mostly --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another.

Run from the repository root. The build (Release, ../src compiled into the
benchmark's own library) goes to .bench_build/servebench and is reused by
later runs; stores and traces go to .bench_build/servebench-work. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's, or 1 when the
build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_build", "servebench-work")
WORKLOADS = ("read_mostly", "update_serve", "cold_analytics")


def build():
    env = dict(os.environ)
    # Compile without a launcher: a compiler cache would write outside the
    # checkout.
    env.pop("CMAKE_CXX_COMPILER_LAUNCHER", None)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target", "servebench", "-j", "4"]
    steps = [compile_]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [os.path.join(BUILD, "servebench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK]
        try:
            status = max(status, subprocess.run(cmd, timeout=170).returncode)
        except subprocess.TimeoutExpired:
            print("servebench: run timed out", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
