#!/usr/bin/env python3
"""Runs the benchmark over several seeds and saves every run's output.

    python3 perfbench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10]
        [--seconds S] [--trace 0|1]

Writes DIR/<workload>/seed-<n>.txt (the full stdout of one run) and prints
each end-to-end metric's median and quartile spread per workload.  Two such
directories are what compare.py takes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """Interquartile distance as a share of the median: the run-to-run
    spread a metric's bound must cover."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=str(bench["run_seconds"]))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    failed = False
    for workload in args.workloads.split(","):
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        values = {}
        for seed in parse_seeds(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(args.out, workload, "seed-%d.txt" % seed)
            with open(path, "w") as f:
                f.write(run.stdout)
            if run.returncode != 0:
                failed = True
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                                                    run.returncode,
                                                    run.stderr[-2000:]))
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s" % workload)
        for name, vals in values.items():
            print("  %-34s median %14.6g  spread %7.2f%%  (n=%d)" %
                  (name, statistics.median(vals), 100 * spread(vals),
                   len(vals)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
