#!/usr/bin/env python3
"""Runs one workload N times with consecutive seeds and prints the spread of
every metric: median, quartiles, min/max and the quartile distance as a
share of the median — the figure each end-to-end bound in BENCHMARK.json is
set against.

    python3 adabench/spread.py --workload nyc_extend --runs 10 --first-seed 1

Quartiles are Python's statistics.quantiles(values, n=4). Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    shares = set()
    correct = True
    for k in range(args.runs):
        seed = args.first_seed + k
        result = run_once(args.workload, seed, args.seconds, args.trace)
        correct &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, correct={correct}, "
          f"failed shares={sorted(shares)}")
    print(f"{'metric':28} {'unit':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28} {units[name]:12} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {min(vals):12.6g} {max(vals):12.6g} "
              f"{spread:8.4f}")


if __name__ == "__main__":
    main()
