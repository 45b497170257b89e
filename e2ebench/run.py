#!/usr/bin/env python3
"""Builds and runs the nestra end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper_serial --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seconds 5

The first call configures and compiles e2ebench/ (which builds the engine
library from ../src) into .bench_build/e2ebench; later calls rebuild
incrementally. Compiler output goes to stderr, so the last line of stdout is
always the benchmark's JSON result. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "nestra_e2ebench")
RUN_TIMEOUT_S = 175


def run_quiet(cmd):
    """Runs a build step; on failure replays its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "nestra_e2ebench", "-j", jobs])


def main():
    if not build():
        return 2
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
