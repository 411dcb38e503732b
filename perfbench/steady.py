#!/usr/bin/env python3
"""Steadiness helper: run one workload K times and summarise every metric.

    python3 perfbench/steady.py --workload route_mix --runs 10
    python3 perfbench/steady.py --workload serve_st --runs 10 --holdout

Seeds are 1, 2, ..., K. --holdout uses 100001, 100002, ... instead, a
seed range kept out of development, so a performance claim can be
re-checked on inputs nobody tuned against. For each metric it prints
the median, the quartiles (statistics.quantiles(n=4)), the spread
(q3 - q1) / median, and, for end-to-end metrics, the bound from
BENCHMARK.json. A spread above its bound fails (exit code 3): a second
set of runs could then differ from the first by more than the bound
allows. A spread above a third of its bound is only marked, as the
margin the benchmark aims for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 1
HOLDOUT_BASE = 100001


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--holdout", action="store_true")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = HOLDOUT_BASE if args.holdout else SEED_BASE
    values = {}
    units = {}
    for k in range(args.runs):
        seed = base + k
        proc = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d done (attempted %d, failed %d)" %
              (seed, result["attempted"], result["failed"]), flush=True)

    print("%-42s %14s %14s %14s %8s %6s %-6s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "unit"))
    unsteady = 0
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  <-- above bound"
            unsteady += 1
        elif bound is not None and spread > bound / 3:
            flag = "  (above bound/3)"
        print("%-42s %14.6g %14.6g %14.6g %8.4f %6s %-6s%s" %
              (name, med, q1, q3, spread, "" if bound is None else bound,
               units[name], flag))
    return 0 if unsteady == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
