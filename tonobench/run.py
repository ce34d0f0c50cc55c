#!/usr/bin/env python3
"""Build and run the tonobench harness.

    python3 tonobench/run.py --workload ward_live --seed 1 --seconds 10 --trace 0
    python3 tonobench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 tonobench/run.py --selftest

Run from the repository root. The harness (tonobench/, a CMake package that
pulls in the repository's own build) is configured and built into
.bench_build/tonobench on first use; build output goes to stderr. The
harness output is passed through, and its last line — the JSON result — is
checked against BENCHMARK.json: the metric names must be exactly the
"end_to_end" list (--trace 0) or the "per_layer" list (--trace 1).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tonobench")
WORKLOADS = ("ward_live", "gateway_replay", "admit_churn")


def build(targets):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("tonobench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    cmd = [os.path.join(BUILD, "tonobench"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_build", "tonobench-work"),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("tonobench: no JSON result line (exit %d)\n" % proc.returncode)
        return None, 1
    want = expected_metrics(trace == 1)
    got = list(result.get("metrics", {}))
    if result.get("correct") and sorted(got) != sorted(want):
        lines.insert(-1, "FAILED: metrics %s do not match BENCHMARK.json %s" % (got, want))
        result["correct"] = False
        lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    return result, proc.returncode if result["correct"] else max(proc.returncode, 1)


def selftest():
    if not build(["tonobench_selftest"]):
        return 1
    names = set()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            if m["name"] in names:
                print("duplicate metric %s" % m["name"])
                ok = False
            names.add(m["name"])
    rc = subprocess.run([os.path.join(BUILD, "tonobench_selftest")], cwd=ROOT).returncode
    return 0 if ok and rc == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["tonobench"]):
        return 1
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, args.trace)[1]
    rc = 0
    for workload in WORKLOADS:
        print("== %s" % workload)
        rc = max(rc, run_workload(workload, args.seed, args.seconds, args.trace)[1])
    return rc


if __name__ == "__main__":
    sys.exit(main())
