#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on the small grids (--short,
one second), untraced and traced. Checks that each run ends with a
result line naming exactly the metrics BENCHMARK.json declares, each
with its declared unit, and that every output check passed
(error_rate == 0, i.e. failed == 0). Prints one table of the metrics
per workload; exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--short"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit status {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output")
    return json.loads(lines[-1])


def check(workload, trace, declared, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0 or \
            not result["correct"]:
        raise AssertionError(
            f"{workload} trace={trace}: error_rate "
            f"{result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        raise AssertionError(f"{workload} trace={trace}: metrics "
                             f"{list(metrics)} differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            raise AssertionError(f"{workload}: {m['name']} printed as {got}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = run(name, trace)
            check(name, trace, declared, result)
            print(f"{name} ({'traced' if trace else 'end to end'}): "
                  f"error_rate 0/{result['attempted']}")
            for key, m in result["metrics"].items():
                print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
