#!/usr/bin/env python3
"""Build and run the FastTrack host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the simulator libraries, the ftd
daemon and the benchmark are built from source into .bench_build/ at
the checkout root (build output goes to stderr), then the benchmark
runs with the checkout root as its working directory and scratch files
under .perfbench_work/. The last line of stdout is the JSON result.
Exits non-zero without a result when the sources are missing or the
build fails. --workload all runs the four workloads one after another,
each printing its own result line. --short selects the small grids the
self-test uses.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
# Compiler and benchmark temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
WORKLOADS = ("synth-sweep", "trace-replay", "warm-replay", "remote-loopback")


def build():
    """Configure (once) and build the benchmark and ftd; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources next to the benchmark",
              file=sys.stderr)
        return False
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "ftd"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, env=ENV) != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [os.path.join(BUILD, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--ftd", os.path.join(BUILD, "ft_ftd", "ftd"),
               "--work-dir", WORK]
        if args.short:
            cmd.append("--short")
        sys.stdout.flush()
        status = max(status, subprocess.call(cmd, cwd=ROOT, env=ENV))
    return status


if __name__ == "__main__":
    sys.exit(main())
