#!/usr/bin/env python3
"""Perf smoke gate for the event kernel, flow solver, and sweep runner.

Runs two quick workloads against a Release build:

1. bench_micro_engine (google-benchmark JSON): event-queue throughput
   and flow-solver recompute/contention rates.
2. bench_table2_techniques on the SweepRunner thread pool: end-to-end
   sweep wall-clock, plus the simulator's own self-profiling metrics
   (--metrics= dump: event-queue pops/compactions, flow-solver
   fast-vs-full recomputes, per-task wall-time histogram). The dump's
   core counters must be nonzero — a zero means the instrumentation
   came unwired.
3. bench_backend_xval (DES vs analytical cross-validation): the bench
   itself gates per-metric relative error; this script additionally
   gates each backend's wall time per config. The DES figure is
   baseline-relative like the other wall metrics. The analytical one
   must stay under an absolute ceiling, the baseline DES time per
   config / XVAL_SPEEDUP_TARGET: the >=100x speedup contract priced at
   the baseline DES time, so a faster DES never fails the gate.
4. bench_fig22_datacenter_projection --backend=des --symmetry=on:
   mechanistic collapsed-DES runs at logical worlds up to 65536. The
   bench gates byte-determinism and the projector/analytical
   cross-checks itself; this script re-checks the determinism bits in
   the artifact and enforces two absolute collapse contracts: the
   aggregate event rate at the largest world must clear
   COLLAPSED_RATE_FLOOR, and peak RSS must stay under
   FIG22_RSS_CAP_KB (memory O(distinct ranks) — a full instantiation
   of 65536 ranks would blow the cap immediately).

5. bench_micro_engine BM_TrainingIteration/{0,1}: a full DES training
   iteration with causal critical-path tracing disabled vs enabled,
   best-of-3 per arm in one process. The enabled arm must stay within
   CRITPATH_OVERHEAD (2%) of the disabled arm's events/sec; since the
   disabled path is a strict subset of the enabled path's work (one
   null-check branch per hook), this bounds the disabled-path
   overhead too. Both arms also gate baseline-relative.
6. bench_table2_techniques --critical-path= twice: the two attribution
   reports must be byte-identical AND tools/rundiff.py --expect-null
   must report a null diff (a non-null diff on a double run means
   nondeterminism in the tracer or the explainer).

Writes every measurement (plus the committed baseline, the
current/baseline ratios, and the self-profiling counters) to
BENCH_sweep.json so CI can archive the artifact, then fails if any
metric regressed more than --threshold (default 25%) against
tools/perf_baseline.json.

The committed baseline intentionally records a slow reference host; a
failure therefore means a real regression, not runner-to-runner noise.
Regenerate it with --update-baseline after intentional perf changes.

Exit status: 0 pass, 1 regression, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "tools" / "perf_baseline.json"

# google-benchmark names -> metric keys (items/sec, higher = better).
MICRO_METRICS = {
    "BM_EventQueueScheduleRun/1024": "events_per_sec_1024",
    "BM_EventQueueScheduleRun/16384": "events_per_sec_16384",
    "BM_FlowNetworkContention/512": "flow_contention_per_sec_512",
    "BM_FlowNetworkRecompute/256": "flow_recompute_per_sec_256",
    "BM_CollapsedTrainingIteration/1024": "events_per_sec_world1024",
    "BM_CollapsedTrainingIteration/16384": "events_per_sec_world16384",
    "BM_CollapsedTrainingIteration/65536": "events_per_sec_world65536",
}

# Absolute floor for the collapsed engine's aggregate event rate
# (physical pops x DP multiplicity) at a 65536-GPU logical world —
# the rank-symmetry-collapse contract, not a baseline-relative gate.
COLLAPSED_RATE_FLOOR = 1.0e7

# Peak-RSS ceiling for the mechanistic fig22 runs (KiB). Collapsed
# runs measure ~70 MB; a full instantiation of a 65536-rank world
# would exceed this by orders of magnitude.
FIG22_RSS_CAP_KB = 2_000_000

# Wall-clock metrics (seconds, lower = better).
WALL_METRICS = {"table2_wall_seconds", "fig22_wall_seconds",
                "xval_des_wall_per_config_seconds"}

# Absolute ceilings (seconds, lower = better): the current value must
# not exceed the baseline entry at all.
CEILING_METRICS = {"xval_analytical_wall_per_config_seconds"}

# Allowed fractional events/sec cost of the critical-path recorder,
# enabled vs disabled, same process, best-of-3 per arm (ISSUE 9
# acceptance: the observability layer must be effectively free).
CRITPATH_OVERHEAD = 0.02


def run_micro(build: Path) -> dict[str, float]:
    exe = build / "bench" / "bench_micro_engine"
    if not exe.exists():
        print(f"perf_smoke: {exe} not found (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    flt = "|".join(re.escape(name) for name in MICRO_METRICS)
    out = subprocess.run(
        [str(exe), "--benchmark_format=json",
         f"--benchmark_filter=^({flt})$"],
        capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    metrics: dict[str, float] = {}
    for bench in report.get("benchmarks", []):
        key = MICRO_METRICS.get(bench.get("name", ""))
        if key is not None:
            metrics[key] = float(bench["items_per_second"])
    missing = set(MICRO_METRICS.values()) - set(metrics)
    if missing:
        print(f"perf_smoke: benchmarks missing from report: {missing}",
              file=sys.stderr)
        sys.exit(2)
    return metrics


def _critpath_arms(exe: Path) -> tuple[float, float]:
    """One bench_micro_engine invocation: best-of-3 events/sec for
    BM_TrainingIteration with the recorder off (Arg 0) vs on (Arg 1)."""
    out = subprocess.run(
        [str(exe), "--benchmark_format=json",
         "--benchmark_filter=^BM_TrainingIteration/[01]$",
         "--benchmark_repetitions=3"],
        capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    best: dict[str, float] = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue
        name = bench.get("name", "").split("/repeat")[0]
        rate = float(bench.get("items_per_second", 0.0))
        best[name] = max(best.get(name, 0.0), rate)
    off = best.get("BM_TrainingIteration/0", 0.0)
    on = best.get("BM_TrainingIteration/1", 0.0)
    if off <= 0.0 or on <= 0.0:
        print("perf_smoke: BM_TrainingIteration arms missing from "
              f"report (got {sorted(best)})", file=sys.stderr)
        sys.exit(2)
    return off, on


def run_critpath_overhead(build: Path) -> dict[str, float]:
    """Gate enabled-vs-disabled critical-path tracing overhead on
    BM_TrainingIteration events/sec. Both arms run in one process so
    host speed cancels; single-invocation scatter on a busy runner
    still reaches a few percent, so a >2% reading is retried (a real
    regression fails every attempt, noise does not repeat)."""
    exe = build / "bench" / "bench_micro_engine"
    if not exe.exists():
        print(f"perf_smoke: {exe} not found (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    attempts = 3
    off = on = 0.0
    for attempt in range(attempts):
        off, on = _critpath_arms(exe)
        if on >= (1.0 - CRITPATH_OVERHEAD) * off:
            break
        print(f"perf_smoke: critical-path overhead attempt "
              f"{attempt + 1}/{attempts}: "
              f"{(1.0 - on / off) * 100.0:.2f}% "
              f"(enabled {on:.4g} vs disabled {off:.4g})")
    else:
        print(f"perf_smoke: critical-path tracing costs "
              f"{(1.0 - on / off) * 100.0:.2f}% events/sec "
              f"(enabled {on:.4g} vs disabled {off:.4g}) on every "
              f"attempt, above the "
              f"{CRITPATH_OVERHEAD * 100.0:.0f}% gate", file=sys.stderr)
        sys.exit(1)
    print(f"perf_smoke: critical-path overhead "
          f"{(1.0 - on / off) * 100.0:+.2f}% "
          f"(enabled {on:.4g} vs disabled {off:.4g} events/sec)")
    return {
        "training_iter_events_per_sec_off": off,
        "training_iter_events_per_sec_on": on,
    }


def run_rundiff_null(build: Path, threads: int, stem: Path) -> None:
    """Double-run bench_table2_techniques with --critical-path and
    require a byte-identical report pair plus a null rundiff."""
    exe = build / "bench" / "bench_table2_techniques"
    if not exe.exists():
        print(f"perf_smoke: {exe} not found (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    paths = [stem.with_suffix(f".critpath{i}.json") for i in (1, 2)]
    for path in paths:
        subprocess.run(
            [str(exe), f"--threads={threads}",
             f"--critical-path={path}"],
            capture_output=True, text=True, check=True)
    if paths[0].read_bytes() != paths[1].read_bytes():
        print("perf_smoke: double-run critical-path reports are not "
              "byte-identical (tracer nondeterminism)", file=sys.stderr)
        sys.exit(1)
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "rundiff.py"),
         str(paths[0]), str(paths[1]), "--expect-null",
         "--json", str(stem.with_suffix(".rundiff.json"))],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("perf_smoke: rundiff on a double-run pair was not null "
              f"(exit {proc.returncode}):", file=sys.stderr)
        print(proc.stdout + proc.stderr, file=sys.stderr)
        sys.exit(1)
    print("perf_smoke: rundiff double-run pair is null (deterministic)")


# Self-profiling counters that must be nonzero after the table2 sweep
# (a zero means the instrumentation came unwired from the hot path).
REQUIRED_NONZERO_COUNTERS = (
    "sim.events_popped",
    "net.flows_started",
    "net.full_recomputes",
    "sweep.tasks",
)


def run_sweep(build: Path, threads: int,
              metrics_path: Path) -> tuple[dict[str, float], dict]:
    exe = build / "bench" / "bench_table2_techniques"
    if not exe.exists():
        print(f"perf_smoke: {exe} not found (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    start = time.monotonic()
    subprocess.run(
        [str(exe), f"--threads={threads}",
         f"--metrics={metrics_path}"],
        capture_output=True, text=True, check=True)
    wall = {"table2_wall_seconds": time.monotonic() - start}
    try:
        sim_metrics = json.loads(metrics_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_smoke: bad metrics dump {metrics_path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    return wall, sim_metrics


# The analytical backend's cost contract: >=100x cheaper per config
# than DES. Its ceiling in the baseline is the DES time per config
# divided by this, priced once and kept across --update-baseline.
XVAL_SPEEDUP_TARGET = 100.0


def run_xval(build: Path, threads: int,
             artifact_path: Path) -> tuple[dict[str, float], dict]:
    exe = build / "bench" / "bench_backend_xval"
    if not exe.exists():
        print(f"perf_smoke: {exe} not found (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    proc = subprocess.run(
        [str(exe), f"--threads={threads}", f"--out={artifact_path}"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("perf_smoke: bench_backend_xval failed "
              f"(exit {proc.returncode}):", file=sys.stderr)
        print(proc.stdout + proc.stderr, file=sys.stderr)
        sys.exit(1)
    try:
        report = json.loads(artifact_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_smoke: bad xval artifact {artifact_path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    return {
        "xval_des_wall_per_config_seconds":
            float(report["des_wall_per_config_seconds"]),
        "xval_analytical_wall_per_config_seconds":
            float(report["analytical_wall_per_config_seconds"]),
    }, report


def run_fig22(build: Path, threads: int,
              artifact_path: Path) -> tuple[dict[str, float], dict]:
    exe = build / "bench" / "bench_fig22_datacenter_projection"
    if not exe.exists():
        print(f"perf_smoke: {exe} not found (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    start = time.monotonic()
    proc = subprocess.run(
        [str(exe), f"--threads={threads}", "--backend=des",
         "--symmetry=on", f"--out={artifact_path}"],
        capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        print("perf_smoke: mechanistic fig22 failed "
              f"(exit {proc.returncode}):", file=sys.stderr)
        print(proc.stdout + proc.stderr, file=sys.stderr)
        sys.exit(1)
    try:
        report = json.loads(artifact_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_smoke: bad fig22 artifact {artifact_path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    runs = report.get("runs", [])
    if not runs:
        print("perf_smoke: fig22 artifact has no runs", file=sys.stderr)
        sys.exit(1)
    problems = []
    for run in runs:
        if not run.get("deterministic", False):
            problems.append(
                f"  world {run.get('world')}: not byte-deterministic")
        if run.get("peak_rss_kb", 0) > FIG22_RSS_CAP_KB:
            problems.append(
                f"  world {run.get('world')}: peak RSS "
                f"{run.get('peak_rss_kb')} KiB exceeds the "
                f"{FIG22_RSS_CAP_KB} KiB collapse cap")
    largest = max(runs, key=lambda r: r.get("world", 0))
    rate = float(largest.get("aggregate_events_per_sec", 0.0))
    if rate < COLLAPSED_RATE_FLOOR:
        problems.append(
            f"  world {largest.get('world')}: aggregate rate "
            f"{rate:.3g} ev/s below the {COLLAPSED_RATE_FLOOR:.0e} "
            "floor")
    if problems:
        print("perf_smoke: mechanistic fig22 contract violations:",
              file=sys.stderr)
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    metrics = {
        "fig22_wall_seconds": wall,
        "fig22_events_per_sec_world65536": rate,
    }
    return metrics, report


def check_counters(sim_metrics: dict) -> list[str]:
    counters = sim_metrics.get("counters", {})
    problems = []
    for name in REQUIRED_NONZERO_COUNTERS:
        if counters.get(name, 0) <= 0:
            problems.append(
                f"  {name}: expected nonzero, got "
                f"{counters.get(name)!r}")
    hist = sim_metrics.get("histograms", {}).get(
        "sweep.task_wall_seconds", {})
    if hist.get("count", 0) <= 0:
        problems.append(
            "  sweep.task_wall_seconds: histogram is empty")
    return problems


def gate(metrics: dict[str, float], baseline: dict[str, float],
         threshold: float) -> tuple[list[str], dict[str, float]]:
    failures = []
    ratios = {}
    for key, base in baseline.items():
        if key not in metrics or base <= 0.0:
            continue
        cur = metrics[key]
        ratio = cur / base
        ratios[key] = ratio
        if key in CEILING_METRICS:
            if cur > base:
                failures.append(
                    f"  {key}: {cur:.4g} above its absolute ceiling "
                    f"{base:.4g}")
            continue
        if key in WALL_METRICS:
            regressed = ratio > 1.0 + threshold
            direction = "slower"
        else:
            regressed = ratio < 1.0 - threshold
            direction = "lower"
        if regressed:
            failures.append(
                f"  {key}: {cur:.4g} vs baseline {base:.4g} "
                f"({abs(ratio - 1.0) * 100.0:.1f}% {direction})")
    return failures, ratios


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory (Release)")
    ap.add_argument("--threads", type=int, default=0,
                    help="SweepRunner workers (0 = one per core)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    ap.add_argument("--output", default="BENCH_sweep.json",
                    help="where to write the measurement artifact")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite tools/perf_baseline.json instead of "
                         "gating")
    args = ap.parse_args()

    build = Path(args.build_dir)
    metrics = run_micro(build)
    metrics.update(run_critpath_overhead(build))
    run_rundiff_null(build, args.threads, Path(args.output))
    wall, sim_metrics = run_sweep(
        build, args.threads,
        Path(args.output).with_suffix(".metrics.json"))
    metrics.update(wall)
    xval_metrics, xval_report = run_xval(
        build, args.threads,
        Path(args.output).with_suffix(".xval.json"))
    metrics.update(xval_metrics)
    fig22_metrics, fig22_report = run_fig22(
        build, args.threads,
        Path(args.output).with_suffix(".fig22.json"))
    metrics.update(fig22_metrics)

    counter_problems = check_counters(sim_metrics)
    if counter_problems:
        print("perf_smoke: self-profiling counters unwired:",
              file=sys.stderr)
        print("\n".join(counter_problems), file=sys.stderr)
        return 1

    collapsed_rate = metrics["events_per_sec_world65536"]
    if collapsed_rate < COLLAPSED_RATE_FLOOR:
        print(f"perf_smoke: collapsed aggregate event rate "
              f"{collapsed_rate:.3g} ev/s at world 65536 is below "
              f"the {COLLAPSED_RATE_FLOOR:.0e} floor",
              file=sys.stderr)
        return 1

    if args.update_baseline:
        # Ceilings are contracts, not measurements: keep the committed
        # one; price a missing one from the DES time per config.
        old = (json.loads(BASELINE.read_text()) if BASELINE.exists()
               else {})
        baseline = dict(metrics)
        baseline["xval_analytical_wall_per_config_seconds"] = old.get(
            "xval_analytical_wall_per_config_seconds",
            metrics["xval_des_wall_per_config_seconds"] /
            XVAL_SPEEDUP_TARGET)
        BASELINE.write_text(json.dumps(baseline, indent=2,
                                       sort_keys=True) + "\n")
        print(f"perf_smoke: baseline updated at {BASELINE}")
        return 0

    if not BASELINE.exists():
        print(f"perf_smoke: no baseline at {BASELINE}; run with "
              "--update-baseline first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE.read_text())
    missing = CEILING_METRICS - set(baseline)
    if missing:
        print(f"perf_smoke: {BASELINE} lacks the ceilings {missing}",
              file=sys.stderr)
        return 2

    failures, ratios = gate(metrics, baseline, args.threshold)
    artifact = {
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "threads": args.threads,
        "threshold": args.threshold,
        "metrics": metrics,
        "baseline": baseline,
        "current_over_baseline": ratios,
        "self_profile": sim_metrics,
        "backend_xval": xval_report,
        "fig22_mechanistic": fig22_report,
    }
    Path(args.output).write_text(json.dumps(artifact, indent=2,
                                            sort_keys=True) + "\n")
    print(f"perf_smoke: wrote {args.output}")
    for key in sorted(metrics):
        mark = (" (wall)" if key in WALL_METRICS else
                " (ceiling)" if key in CEILING_METRICS else "")
        ratio = ratios.get(key)
        rel = f"  [{ratio:.2f}x baseline]" if ratio else ""
        print(f"  {key}{mark}: {metrics[key]:.4g}{rel}")
    if failures:
        print(f"\nperf_smoke: regression beyond "
              f"{args.threshold * 100.0:.0f}%:")
        print("\n".join(failures))
        return 1
    print("perf_smoke: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
