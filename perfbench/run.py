#!/usr/bin/env python3
"""Build and run the drivefi campaign benchmark for one workload.

    python3 perfbench/run.py --workload random_base --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the drivefi library from
src/ plus the benchmark executable, Release) under .bench_build/perfbench;
later calls only re-check the build. Stores and Chrome traces go to
.bench_build/perfbench-run. The last stdout line is the benchmark's JSON
result; build output goes to stderr. Exits with the benchmark's own status,
or 2 when the repository sources are missing or the build fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "perfbench-run"
BINARY = BUILD / "drivefi_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"error: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"error: {' '.join(step)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return BINARY.is_file()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "experiment.h").is_file():
        print(f"error: no drivefi sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not build():
        return 2

    SCRATCH.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--root", str(ROOT),
               "--scratch", str(SCRATCH)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
