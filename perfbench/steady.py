#!/usr/bin/env python3
"""Steadiness tool: how much the benchmark's own numbers move run to run.

    python3 perfbench/steady.py run --runs 10 --seconds 20 --out set_a.json
    python3 perfbench/steady.py run --runs 10 --seconds 20 --out set_b.json
    python3 perfbench/steady.py compare set_a.json set_b.json

`run` starts run.py once per (round, workload) in a fresh process, with
seed = first seed + round, and alternates the workload order from round to
round (forward, then reversed) so that slow stretches of the host do not
always land on the same workload. It prints, per workload and metric, the
median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json, and saves every run's result.

`compare` prints, per workload and metric, how far the second set's
median moved from the first's, in the metric's worse direction, as a
share of the first median, next to the bound. The bounds in
BENCHMARK.json were set from what this tool measured (README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<20} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = quartiles(values)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound", float("nan"))
            flag = "  <-- over bound/3" if spread > bound / 3 else ""
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.3f}{flag}")


def cmd_run(args):
    bench = spec()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    results = {name: [] for name in names}
    for round_ in range(args.runs):
        order = names if round_ % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.first_seed + round_
            result = one_run(name, seed, args.seconds)
            result["seed"] = seed
            results[name].append(result)
            print(f"round {round_} {name} seed {seed}: "
                  f"correct={result['correct']}", file=sys.stderr, flush=True)
    summarize(results, bench)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


def cmd_compare(args):
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    worst = 0.0
    for workload in first:
        if workload not in second:
            continue
        print(f"\n{workload}")
        for name, meta in metrics.items():
            a = statistics.median(
                r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(
                r["metrics"][name]["value"] for r in second[workload])
            change = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            worst = max(worst, change / meta["bound"])
            verdict = "worse beyond bound" if change > meta["bound"] else "ok"
            print(f"  {name:<20} {a:>14.6g} -> {b:>14.6g}  worse by "
                  f"{change:+.4f} (bound {meta['bound']:.3f})  {verdict}")
    print(f"\nlargest worsening as a share of its bound: {worst:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="repeat every workload in fresh processes")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seconds", type=int,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--out")
    compare = sub.add_parser("compare", help="compare two saved sets of runs")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        cmd_run(args)
    else:
        cmd_compare(args)


if __name__ == "__main__":
    main()
