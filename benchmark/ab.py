#!/usr/bin/env python3
"""A/B two builds of oscar_benchmark on one workload.

Runs K alternating pairs (parent first in even pairs, change first in
odd ones) and, for every end-to-end metric BENCHMARK.json declares,
prints each side's median and quartiles, the share of pairs the change
won (ties count for neither side), and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's quartile spread exceeds the bound, so "no
              regression" cannot be told from noise (unless every change
              run beat every parent run)
  same        none of the above

  python3 benchmark/ab.py --parent A/build-benchmark/oscar_benchmark \\
      --change B/build-benchmark/oscar_benchmark --workload serve --seed 43

Exit status: 0 when no metric regressed and every run was correct, 1
otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(binary, args):
    # The claim's seed picks the dataset as well as the traffic, so a
    # held-out seed tests a topology the change was not tuned on.
    out = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--dataset-seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, check=False, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"ab.py: {binary} exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"ab.py: {binary} reported failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    # Linear interpolation between order statistics, as oscar_benchmark
    # computes the quartiles in its results files.
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse = (cm - pm) if lower else (pm - cm)
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1):
        return wins, spread, "gain"
    if pm and worse > metric["bound"] * abs(pm):
        return wins, spread, "regression"
    if spread > metric["bound"] and not all_better:
        return wins, spread, "unresolved"
    return wins, spread, "same"


def main():
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=43)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.pairs < 10:
        sys.exit("ab.py: a claim needs at least 10 pairs")

    parent_runs, change_runs = [], []
    for pair in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if pair % 2 == 1:
            order.reverse()
        for side, binary in order:
            (parent_runs if side == "parent" else change_runs).append(
                run(binary, args))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    header = ("metric", "parent q1/median/q3", "change q1/median/q3",
              "wins", "spread", "verdict")
    print("{:<24} {:<36} {:<36} {:>6} {:>7}  {}".format(*header))
    regressed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in parent_runs]
        change = [r[name] for r in change_runs]
        wins, spread, result = verdict(metric, parent, change)
        regressed = regressed or result == "regression"
        fmt = lambda q: "/".join(f"{v:.6g}" for v in q)
        print("{:<24} {:<36} {:<36} {:>6} {:>6.1%}  {}".format(
            name, fmt(quartiles(parent)), fmt(quartiles(change)),
            f"{wins}/{args.pairs}", spread, result))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
