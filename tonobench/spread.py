#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 tonobench/spread.py --workload ward_live --seeds 1-10 [--seconds 10]

Runs tonobench/run.py once per seed (untraced) and prints, per metric, the
median, the quartile spread (Q3 - Q1, as statistics.quantiles(n=4) gives
them) as a share of the median, the metric's bound from BENCHMARK.json and
whether the spread is within a third of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d failed:\n%s" % (seed, proc.stdout))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d ok" % seed, flush=True)
    print("%-22s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound", "ok"))
    worst = 0.0
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        ok = spread < m["bound"] / 3
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print("%-22s %14.6g %9.4f %7.3f  %s" % (m["name"], med, spread, m["bound"],
                                               "yes" if ok else "NO"))
        if args.values:
            print("    " + " ".join("%.6g" % x for x in v))
    print("worst spread/bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
