#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
simulator sources under src/ plus the benchmark program) in Release mode
under .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits nonzero, without a result, when the
arguments are malformed, the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    """The four run arguments, passed through as given: the benchmark
    program itself refuses a bad workload, seed, duration or trace flag."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag, required=True)
    return p.parse_args()


def commit_id():
    """The git commit when run from a clone, else 'none'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "none"


def build():
    """Configure (once) and build; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hh")):
        fail(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, check=False).returncode:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    args = parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--ref-dir", os.path.join(BENCH_DIR, "ref"),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "perfbench-traces"),
           "--commit", commit_id()]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
