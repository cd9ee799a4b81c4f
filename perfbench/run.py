#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload travel_saga --seed 1 --seconds 25 --trace 0

builds perfbench_e2e from source into .bench_build/perfbench (Release) and
runs it from the checkout root. The last stdout line is the run's JSON
result; build output goes to stderr.

Steadiness check:

    python3 perfbench/run.py --steadiness [--runs 10] [--seconds 25]
                             [--workloads travel_saga,flex_fig3]

runs two sets of --runs runs of each workload (set A on seeds 1.., set B on
seeds 101..), prints every end-to-end metric's median and quartiles per
set, and flags a metric whose within-set spread (quartile distance over
median) or whose set-to-set median change exceeds its bound in
BENCHMARK.json. It exits 1 if anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
OUT = ROOT / ".bench_out"


def build():
    jobs = str(min(os.cpu_count() or 1, 8))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, capture=False):
    OUT.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    done = subprocess.run(cmd, cwd=ROOT, timeout=170, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode:
        sys.exit(f"perfbench: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / abs(q2) if q2 else 0


def steadiness(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    flagged = False
    for workload in workloads:
        sets = []
        for base in (1, 101):
            results = [run_once(workload, base + i, args.seconds, 0, True)
                       for i in range(args.runs)]
            for r in results:
                if not r["correct"] or r["failed"]:
                    print(f"{workload}: a run was incorrect or failed: {r}")
                    flagged = True
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        print(f"== {workload}: failed share per run {sorted(shares)}")
        if len(shares) != 1:
            flagged = True
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            medians = []
            for results in sets:
                q1, q2, q3, share = spread(
                    [r["metrics"][name]["value"] for r in results])
                medians.append(q2)
                bad = share > bound and name != "setup_s"
                flagged |= bad
                row.append(f"{q1:.4g} [{q2:.4g}] {q3:.4g} spread {share:.3f}"
                           + (" FLAG" if bad else ""))
            worse = (medians[1] - medians[0]) / abs(medians[0]) if medians[0] else 0
            if metric["better"] == "higher":
                worse = -worse
            drift = worse > bound
            flagged |= drift
            print(f"  {name:24} bound {bound:<5} A: {row[0]} | B: {row[1]}"
                  + (f" | B worse by {worse:.3f} FLAG" if drift else ""))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    if not args.steadiness and not args.workload:
        parser.error("--workload or --steadiness is required")
    build()
    if args.steadiness:
        return steadiness(args)
    return run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
