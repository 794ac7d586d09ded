#!/usr/bin/env python3
"""Builds the /proc controller benchmark and runs one workload.

    python3 e2ebench/run.py --workload <dbx-breakpoints|procd-fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The benchmark is compiled from source
into .bench_build/e2ebench (build output goes to stderr), then e2e_bench
runs with the given arguments; the last line of stdout is its JSON result.
SVR4PROC_* variables are dropped from the environment so the simulated
machine keeps its defaults (one CPU, automatic execution engine).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 840
# e2e_bench refuses runs whose timed phases, --seconds in all, exceed 150 s,
# so every run it accepts ends well within this.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no svr4proc sources next to e2ebench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "e2e_bench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("SVR4PROC_")}
    try:
        proc = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: e2e_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
