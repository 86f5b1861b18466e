#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly on one commit.

    python3 perfbench/steady.py --runs 10 --sets 2

Run from the repository root. Each run gets its own seed. For every
workload and end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json. A spread within a third of the
bound reads "steady", within the bound "ok", beyond it "WIDE" (setup_s is
exempt from the spread rule). With --sets 2 it also prints how far the
second set's median moved from the first's, in the worse direction,
against the bound, and whether the share of failed operations matches.
Raw results go to .bench_work/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed "
                 f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: {workload} seed {seed} reported incorrect output")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    raw = {}
    for workload in workloads:
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                results.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"# {workload} set {s + 1} run {i + 1}/{args.runs} "
                      f"seed {seed} done", file=sys.stderr, flush=True)
            raw[f"{workload}/{s + 1}"] = results

    os.makedirs(".bench_work", exist_ok=True)
    with open(os.path.join(".bench_work", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)

    print(f"{'workload':13} {'set':>3} {'metric':17} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        medians = {}
        for s in range(args.sets):
            results = raw[f"{workload}/{s + 1}"]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = summarize(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians[(m["name"], s)] = med
                if m["name"] == "setup_s":
                    verdict = "exempt"
                elif spread <= m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "ok"
                else:
                    verdict = "WIDE"
                print(f"{workload:13} {s + 1:>3} {m['name']:17} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
                      f"{m['bound']:6.2f}  {verdict}")
            print(f"{workload:13} {s + 1:>3} failed share {failed}/{attempted}")
        if args.sets == 2:
            for m in metrics:
                a, b = medians[(m["name"], 0)], medians[(m["name"], 1)]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"{workload:13} 2v1 {m['name']:17} worse by {worse:+.3f} "
                      f"(bound {m['bound']:.2f}) "
                      f"{'ok' if worse <= m['bound'] else 'REGRESSED'}")


if __name__ == "__main__":
    main()
