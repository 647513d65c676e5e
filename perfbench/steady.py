#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json several times, each run with its own
seed, and prints for each end-to-end metric its median, its quartiles
(Python's statistics.quantiles(values, n=4)) and its spread, the distance
between the quartiles as a share of the median, against the metric's bound.
For comparison it prints the spread the raw op_p50 time in milliseconds had
on the same runs. With --sets 2 it makes two sets of runs and also compares
their medians.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads scalar_spd --runs 5
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

RAW = re.compile(r"^# raw op: .*op_p50_ms=([0-9.]+)")


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        check=False,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw_ms = next((float(m.group(1)) for m in map(RAW.match, lines) if m), None)
    return result, raw_ms


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    command = spec["command"]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    worst = (0.0, None)

    for w in workloads:
        sets = []
        for k in range(args.sets):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            results = [run_once(command, w, s, seconds) for s in seeds]
            sets.append(results)
        print(f"== {w} ({args.runs} runs x {args.sets} sets, {seconds} s each)")
        for k, results in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r, _ in results}
            attempted = [r["attempted"] for r, _ in results]
            incorrect = sum(not r["correct"] for r, _ in results)
            print(
                f"  set {k + 1}: attempted {min(attempted)}..{max(attempted)}, "
                f"failed share {sorted(shares)}, runs not correct {incorrect}"
            )
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r, _ in results]
                q1, q2, q3, sp = spread(values)
                worst = max(worst, (sp / bound, f"{w} {name}"), key=lambda x: x[0])
                verdict = "steady" if sp < bound / 3 else ("within" if sp <= bound else "OVER")
                print(
                    f"    {name:14s} median {q2:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                    f"spread {sp:6.2%}  bound {bound:.0%}  {verdict}"
                )
            raw = [ms for _, ms in results if ms is not None]
            if len(raw) >= 2:
                q1, q2, q3, sp = spread(raw)
                print(f"    raw op_p50_ms  median {q2:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {sp:6.2%}")
        if len(sets) > 1:
            for name, bound in bounds.items():
                m = [statistics.median(r["metrics"][name]["value"] for r, _ in s) for s in sets]
                change = m[1] / m[0] - 1
                print(f"    {name:14s} set-2 median vs set-1: {change:+.2%} (bound {bound:.0%})")
    print(f"worst spread / bound: {worst[0]:.2f} ({worst[1]})")


if __name__ == "__main__":
    main()
