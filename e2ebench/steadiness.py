#!/usr/bin/env python3
"""Runs two sets of benchmark runs of one build and says whether they agree.

    python3 e2ebench/steadiness.py

Each set makes 10 runs of every workload in BENCHMARK.json, each with its
own seed (set A takes seeds 1-10, set B seeds 11-20), one after the other.
For every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the median,
and whether both spreads are within the metric's bound and set B's median
is no worse than set A's by more than the bound. It also compares the
share of failed operations, which must be identical. Exits 1 if any check
fails.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # per set and workload


def run_once(cmd, workload, seed, seconds):
    out = subprocess.run(
        [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        timeout=900).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(2):
            first = 1 + s * RUNS
            sets.append([run_once(bench["command"], w, seed, bench["run_seconds"])
                         for seed in range(first, first + RUNS)])
        print(f"\n## {w} ({RUNS} runs per set)\n")
        print("| metric | A median | A q1..q3 | A spread | B median | B q1..q3 | B spread "
              "| B vs A | bound | agree |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name = m["name"]
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            change = (b[1] - a[1]) / a[1]
            worse = change if m["better"] == "lower" else -change
            agree = worse <= m["bound"] and a[3] <= m["bound"] and b[3] <= m["bound"]
            ok &= agree
            print(f"| {name} | {a[1]:.4g} | {a[0]:.4g}..{a[2]:.4g} | {a[3]:.3f} "
                  f"| {b[1]:.4g} | {b[0]:.4g}..{b[2]:.4g} | {b[3]:.3f} "
                  f"| {change:+.3f} | {m['bound']} | {'yes' if agree else 'NO'} |")
        print("\nper run (A, then B):")
        for m in bench["end_to_end"]:
            vals = [f"{r['metrics'][m['name']]['value']:.4g}" for runs in sets for r in runs]
            print(f"- {m['name']}: {' '.join(vals[:RUNS])} | {' '.join(vals[RUNS:])}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        same = all(r["failed"] * sets[0][0]["attempted"] == sets[0][0]["failed"] * r["attempted"]
                   for runs in sets for r in runs)
        ok &= same
        print(f"\nfailed share: A {shares[0]:.6g}, B {shares[1]:.6g}, "
              f"identical in every run: {'yes' if same else 'NO'}")
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
