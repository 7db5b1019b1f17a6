#!/usr/bin/env python3
"""Runs run.py over several seeds and reports each metric's spread: the
distance between the first and third quartile of its per-run values, as a
share of their median (statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workloads net-mixed,net-verified --seeds 1-10

Run from the repository root. For each seed it runs every named workload in
turn, so a host-wide slowdown hits all of them in the same round; each run
prints its req_per_s and the CPU steal share measured around it. Compare the
spreads with the bounds in BENCHMARK.json: a metric is steady when its spread
stays well inside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="net-mixed,net-verified,sim-seq")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seeds_of(args.seeds):
        for workload in workloads:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            runs[workload].append(result)
            record = os.path.join(".bench_out",
                                  "%s-seed%d-trace0.json" % (workload, seed))
            with open(record) as f:
                steal = json.load(f)["context"]["cpu_steal_share"]
            print("seed %d %-12s correct=%s attempted=%d req_per_s=%.0f "
                  "steal=%.4f" % (seed, workload, result["correct"],
                                  result["attempted"],
                                  result["metrics"]["req_per_s"]["value"],
                                  steal), flush=True)
    for workload in workloads:
        print("=== %s" % workload)
        report(runs[workload], bounds)


def report(runs, bounds):
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        print("%-36s median %12.6g  spread %6.3f  bound %.2f (%s)" % (
            name, median, spread, bound,
            "ok" if spread < bound / 3 else "WIDE"))


if __name__ == "__main__":
    main()
