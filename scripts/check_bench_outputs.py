#!/usr/bin/env python3
"""Check the --csv stdout of every bench binary against bench/expected/.

Usage: scripts/check_bench_outputs.py [BUILD_DIR]

Runs each binary of the FT_BENCHES list in bench/CMakeLists.txt from
BUILD_DIR/bench (default: build/bench) with `--csv --threads 4`, in
BUILD_DIR, and compares its stdout byte for byte with
bench/expected/<binary>.csv. Every binary whose output moved, or that
failed to run, is named with the start of its diff.

An intended behaviour change therefore shows up as a reviewable diff
of the figure files it moves: re-record each one with
`BUILD_DIR/bench/<binary> --csv --threads 4 > bench/expected/<binary>.csv`
and commit it with the change.

Exit status: 0 when every output matches, 1 when any moved or failed,
2 on a usage error.
"""

import difflib
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected"
DIFF_LINES = 20


def bench_names():
    """The FT_BENCHES list, in declaration order."""
    text = (ROOT / "bench" / "CMakeLists.txt").read_text()
    match = re.search(r"set\(FT_BENCHES\s+([^)]*)\)", text)
    if not match:
        sys.exit("check_bench_outputs: no FT_BENCHES list in "
                 "bench/CMakeLists.txt")
    return match.group(1).split()


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    build = Path(argv[1] if len(argv) == 2 else "build").resolve()
    if not (build / "bench").is_dir():
        print(f"check_bench_outputs: no bench directory in {build}",
              file=sys.stderr)
        return 2

    names = bench_names()
    moved = []
    for name in names:
        start = time.monotonic()
        expected_path = EXPECTED / f"{name}.csv"
        if not expected_path.is_file():
            moved.append(name)
            print(f"{name}: no expected output {expected_path}")
            continue
        run = subprocess.run([str(build / "bench" / name), "--csv",
                              "--threads", "4"],
                             cwd=build, capture_output=True)
        seconds = time.monotonic() - start
        if run.returncode != 0:
            moved.append(name)
            print(f"{name}: exit status {run.returncode}")
            sys.stdout.write(run.stderr.decode(errors="replace"))
            continue
        expected = expected_path.read_bytes()
        if run.stdout == expected:
            print(f"{name}: ok ({seconds:.1f} s)")
            continue
        moved.append(name)
        print(f"{name}: output moved")
        diff = difflib.unified_diff(
            expected.decode(errors="replace").splitlines(),
            run.stdout.decode(errors="replace").splitlines(),
            f"expected/{name}.csv", name, lineterm="")
        for i, line in enumerate(diff):
            if i == DIFF_LINES:
                print("  ...")
                break
            print(f"  {line}")

    stale = sorted(p.stem for p in EXPECTED.glob("*.csv")
                   if p.stem not in names)
    for name in stale:
        moved.append(name)
        print(f"{name}: expected output for a binary not in FT_BENCHES")

    if moved:
        print(f"{len(moved)} of {len(names)} bench outputs moved: "
              + ", ".join(moved))
        return 1
    print(f"all {len(names)} bench outputs match bench/expected/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
