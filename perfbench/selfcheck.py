#!/usr/bin/env python3
"""Self-checks of the simulator benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py [--workload NAME ...]

Checks, for every workload (or the ones named):
  * malformed arguments (unknown workload, malformed seeds) are refused
    with a nonzero exit and no result line;
  * a seed draws the same configs every time, and different seeds draw
    different config sets;
  * the default and hold-out seeds pass the output check (no failed
    experiment, DES outputs equal to the committed reference);
  * two traced runs of one seed give identical simulated outputs and
    identical per-layer counts.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (builds the benchmark)

DEFAULT_SEED, HOLDOUT_SEED = "1", "2"
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]
# Per-layer metrics that are exact functions of the simulated work.
EXACT_UNITS = {"count"}
EXACT_NAMES = {"sim.cancel_ratio", "net.fast_ratio", "scale.fold_ratio",
               "core.allocs_per_event", "core.ref_err_max"}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def bench(args):
    return subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py")]
                          + args, capture_output=True, text=True, check=False)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def listed(binary, workload, seed):
    proc = subprocess.run([binary, "--workload", workload, "--seed", seed,
                           "--list"], capture_output=True, text=True,
                          check=True)
    return proc.stdout


def traced(workload, seed):
    proc = bench(["--workload", workload, "--seed", seed, "--seconds", "1",
                  "--trace", "1"])
    digest = [l for l in proc.stdout.splitlines()
              if l.startswith("outputs digest:")]
    return proc.returncode, result_line(proc), digest


def main():
    p = argparse.ArgumentParser(description="benchmark self-checks")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    workloads = p.parse_args().workload or WORKLOADS
    binary = run.build()

    for args in (["--workload", "no_such", "--seed", "1"],
                 ["--workload", workloads[0], "--seed", "abc"],
                 ["--workload", workloads[0], "--seed", "-1"],
                 ["--workload", workloads[0], "--seed", "1.5"],
                 ["--workload", workloads[0], "--seed", ""],
                 ["--workload", workloads[0], "--seed", str(2**64)]):
        proc = bench(args + ["--seconds", "1", "--trace", "0"])
        check(proc.returncode != 0 and result_line(proc) is None,
              f"refused {' '.join(args)!r}")
        direct = subprocess.run([binary] + args + ["--list"],
                                capture_output=True, text=True, check=False)
        check(direct.returncode != 0 and direct.stdout == "",
              f"binary refused {' '.join(args)!r}")

    for w in workloads:
        first = listed(binary, w, DEFAULT_SEED)
        check(first == listed(binary, w, DEFAULT_SEED),
              f"{w}: one seed draws the same configs")
        draws = {s: listed(binary, w, s) for s in map(str, range(1, 9))}
        check(len(set(draws.values())) == len(draws),
              f"{w}: seeds 1-8 draw 8 different config sets")

        runs = {}
        for seed in (DEFAULT_SEED, DEFAULT_SEED, HOLDOUT_SEED):
            code, res, digest = traced(w, seed)
            check(code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and len(digest) == 1,
                  f"{w}: seed {seed} passes the output check")
            runs.setdefault(seed, []).append((res, digest[0]))
        (a, da), (b, db) = runs[DEFAULT_SEED]
        check(da == db, f"{w}: same seed, identical simulated outputs")
        exact = [k for k, m in a["metrics"].items()
                 if m["unit"] in EXACT_UNITS or k in EXACT_NAMES]
        diff = [k for k in exact
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        check(not diff, f"{w}: same seed, identical counts {diff or ''}")
    print("all self-checks passed")


if __name__ == "__main__":
    main()
