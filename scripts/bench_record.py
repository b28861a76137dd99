#!/usr/bin/env python3
"""Run bench_core_speed and record a perf baseline as JSON.

Executes the google-benchmark core-speed harness with JSON output,
extracts the BM_NetworkStep* results, compares them against a
baseline (an older binary measured in-window, or the frozen
pre-refactor table), and writes BENCH_core_speed.json so
a perf regression (or claimed win) is a diffable artifact instead
of a number in a PR description. The BM_InjectorTick* results (the
injector at sweep rates, drain phase included) are recorded beside
them with their tick-only tick_ns_per_node_cycle counter, and so are
the BM_TraceReplay* results (one whole replay of an LU dataflow trace
and of a dependency-free SpMV trace), the BM_TraceBuild* results (one
build of each of those traces, generator included), the
BM_RouteCore* results (a fixed stream of router inputs through
Router::routeCore alone) and BM_SynthResultCodec (one encode and
decode of a saturated 8x8 FT(64,2,1) sweep-cache payload); the
headline stays BM_NetworkStep/16/1.

Noise handling: each case runs --benchmark_repetitions times and the
median repetition is recorded (single-core CI boxes and shared VMs
jitter far too much for one-shot numbers). For a drift-immune speedup
ratio, pass --baseline-bench with a binary built from an older tree;
the two binaries then run interleaved, one repetition each per round
with the first alternating, and the recorded ratio compares each
case's median round. Without it, the frozen BASELINE table below is
used.

The record labels its baseline by source: "baseline_bench" for one
measured from --baseline-bench, "baseline_pre_refactor" for the frozen
table. The headline's 2.0x target was set against the frozen table,
so it is recorded and printed only beside that one.

Usage:
    python3 scripts/bench_record.py --bench build/bench/bench_core_speed \
        [--baseline-bench path/to/old/bench_core_speed] \
        [--out BENCH_core_speed.json] [--min-time 1] [--repetitions 3]

Exit status is non-zero when the benchmark binary fails to run or
produces no BM_NetworkStep results.
"""

import argparse
import json
import subprocess
import sys

# Pre-refactor numbers (optional-slot state + virtual hot loop) at
# -O2/-DNDEBUG, re-measured as median-of-repetitions interleaved with
# the post-refactor build on the same host window. The 2x speedup
# target of the engine-core refactor is measured against
# BM_NetworkStep/16/1.
BASELINE = {
    "BM_NetworkStep/4/0": {"ns_per_iter": 2868, "items_per_second": 5.63e6},
    "BM_NetworkStep/4/1": {"ns_per_iter": 4895, "items_per_second": 3.36e6},
    "BM_NetworkStep/8/0": {"ns_per_iter": 8756, "items_per_second": 7.59e6},
    "BM_NetworkStep/8/1": {"ns_per_iter": 17928, "items_per_second": 3.58e6},
    "BM_NetworkStep/16/1": {"ns_per_iter": 70472, "items_per_second": 3.70e6},
}

HEADLINE = "BM_NetworkStep/16/1"

# google-benchmark reports real_time in each case's own time unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Name prefixes of the case families the ledger records.
RECORDED = ("BM_NetworkStep", "BM_InjectorTick", "BM_TraceReplay",
            "BM_TraceBuild", "BM_RouteCore", "BM_SynthResultCodec")


def run_bench(bench, min_time, repetitions):
    cmd = [
        bench,
        "--benchmark_filter=" + "|".join(RECORDED),
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark failed with exit {proc.returncode}")
    return json.loads(proc.stdout)


def extract(raw, repetitions):
    """Recorded results keyed by case name (median repetition)."""
    results = {}
    for b in raw.get("benchmarks", []):
        name = b["name"]
        if not name.startswith(RECORDED):
            continue
        if repetitions > 1:
            if b.get("aggregate_name") != "median":
                continue
            name = name.removesuffix("_median")
        elif b.get("run_type") == "aggregate":
            continue
        results[name] = {
            "ns_per_iter": round(
                b["real_time"] * NS_PER_UNIT[b.get("time_unit", "ns")], 1),
            "items_per_second": round(b.get("items_per_second", 0.0), 1),
        }
        if "tick_ns_per_node_cycle" in b:
            results[name]["tick_ns_per_node_cycle"] = round(
                b["tick_ns_per_node_cycle"], 2)
    return results


def median_runs(runs):
    """Per case, the extracted run with the median ns_per_iter."""
    cases = {}
    for run in runs:
        for name, result in run.items():
            cases.setdefault(name, []).append(result)
    return {name: sorted(results, key=lambda r: r["ns_per_iter"])
            [len(results) // 2] for name, results in cases.items()}


def run_interleaved(bench, baseline_bench, min_time, rounds):
    """Alternate single repetitions of the two binaries so host drift
    lands on both alike; returns (raw context run, current, baseline)."""
    current, baseline = [], []
    raw = None
    for r in range(rounds):
        sides = [(bench, current), (baseline_bench, baseline)]
        for binary, runs in sides if r % 2 == 0 else reversed(sides):
            out = run_bench(binary, min_time, 1)
            if runs is current and raw is None:
                raw = out
            runs.append(extract(out, 1))
    return raw, median_runs(current), median_runs(baseline)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True,
                        help="path to the bench_core_speed binary")
    parser.add_argument("--baseline-bench", default=None,
                        help="older bench binary to measure in-window "
                             "instead of the frozen table")
    parser.add_argument("--out", default="BENCH_core_speed.json",
                        help="output JSON path")
    parser.add_argument("--min-time", default="1",
                        help="--benchmark_min_time per case (seconds)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="repetitions per case; the median is "
                             "recorded")
    args = parser.parse_args()

    if args.baseline_bench:
        raw, current, baseline = run_interleaved(
            args.bench, args.baseline_bench, args.min_time,
            args.repetitions)
        if not baseline:
            raise SystemExit("no BM_NetworkStep results from the "
                             "baseline binary")
        baseline_source = "measured interleaved from --baseline-bench"
        baseline_key = "baseline_bench"
    else:
        raw = run_bench(args.bench, args.min_time, args.repetitions)
        current = extract(raw, args.repetitions)
        baseline = BASELINE
        baseline_source = "frozen pre-refactor table"
        baseline_key = "baseline_pre_refactor"
    frozen = baseline is BASELINE
    if not any(n.startswith("BM_NetworkStep") for n in current):
        raise SystemExit("no BM_NetworkStep results in benchmark output")

    speedups = {}
    for name, base in baseline.items():
        cur = current.get(name)
        if not cur:
            continue
        if base["items_per_second"] > 0:
            speedups[name] = round(
                cur["items_per_second"] / base["items_per_second"], 3)
        elif cur["ns_per_iter"] > 0:
            # A case that counts no items (BM_SynthResultCodec) does
            # the same work every iteration: compare iteration times.
            speedups[name] = round(
                base["ns_per_iter"] / cur["ns_per_iter"], 3)

    record = {
        "benchmark": "bench_core_speed",
        "context": raw.get("context", {}),
        "protocol": {
            "repetitions": args.repetitions,
            "statistic": "median" if args.repetitions > 1 else "single",
            "min_time_s": args.min_time,
            "baseline_source": baseline_source,
        },
        baseline_key: baseline,
        "current": current,
        "speedup_vs_baseline": speedups,
        "headline": {
            "case": HEADLINE,
            "speedup": speedups.get(HEADLINE),
        },
    }
    if frozen:
        record["headline"]["target"] = 2.0

    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")

    headline = speedups.get(HEADLINE)
    print(f"wrote {args.out}")
    if headline is not None and frozen:
        print(f"{HEADLINE}: {headline}x vs pre-refactor baseline "
              f"(target 2.0x)")
    elif headline is not None:
        print(f"{HEADLINE}: {headline}x vs --baseline-bench")


if __name__ == "__main__":
    main()
