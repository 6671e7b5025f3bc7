#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds saved run outputs as sweep.py writes them
(<workload>/seed-<n>.txt).  Runs are paired by workload and seed.  For
every workload x metric it prints both medians and quartiles, the share of
pairs the change won, and a verdict:

  improved      the change won >= 90% of pairs and the medians differ by
                more than the base's own interquartile distance
  regressed     the change's median is worse than the base's by more than
                the metric's bound (BENCHMARK.json)
  unresolved    the run-to-run spread is wider than the bound, unless every
                change run beats every base run
  within bound  otherwise

Per-layer metrics have no bound; they get "improved" or "-".  Metrics
layers.json marks paced use only the seeds whose runs both kept their
pacing (loadgen.pacing_valid = 1).  Runs that failed their output checks
or reported no result are listed on stderr and left out.  Exits 1 when
any end-to-end metric regressed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{workload: {seed: metrics}} from saved run outputs."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        sub = os.path.join(directory, workload)
        if not os.path.isdir(sub):
            continue
        for name in sorted(os.listdir(sub)):
            with open(os.path.join(sub, name)) as f:
                lines = f.read().strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if not result.get("correct"):
                print("skipped %s: no correct result" % os.path.join(sub, name),
                      file=sys.stderr)
                continue
            seed = name.rsplit("-", 1)[-1].split(".")[0]
            runs.setdefault(workload, {})[seed] = {
                k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    lower = better == "lower"
    wins = sum(1 for b, c in zip(base, change)
               if (c < b if lower else c > b))
    ties = sum(1 for b, c in zip(base, change) if b == c)
    pairs = len(base) - ties
    won = wins / pairs if pairs else 0.0
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if won >= 0.9 and abs(mc - mb) > (q3 - q1) and mb != mc:
        return won, "improved"
    if bound is None:
        return won, "-"
    worse = (mc - mb) if lower else (mb - mc)
    if mb and worse / abs(mb) > bound:
        return won, "regressed"
    c1, c3 = quartiles(change)
    spread = max(q3 - q1, c3 - c1) / abs(mb) if mb else 0.0
    if spread > bound:
        all_better = (max(change) < min(base)) if lower else (
            min(change) > max(base))
        if not all_better:
            return won, "unresolved"
    return won, "within bound"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        paced = {name for name, layer in json.load(f)["layers"].items()
                 if layer.get("paced")}
    base, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    regressed = False
    print("%-12s %-34s %12s %25s %12s %25s %6s  %s" %
          ("workload", "metric", "base", "base q1..q3", "change",
           "change q1..q3", "won", "verdict"))
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        names = [n for n in specs if n in base[workload][seeds[0]]] if seeds \
            else []
        for name in names:
            valid = [s for s in seeds if name not in paced or all(
                runs[workload][s].get("loadgen.pacing_valid", 1)
                for runs in (base, change))]
            if not valid:
                print("%-12s %-34s no seed kept its pacing" % (workload, name))
                continue
            b = [base[workload][s][name] for s in valid]
            c = [change[workload][s][name] for s in valid]
            better, bound = specs[name]
            won, v = verdict(b, c, better, bound)
            regressed |= v == "regressed"
            bq, cq = quartiles(b), quartiles(c)
            print("%-12s %-34s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g "
                  "%5.0f%%  %s" % (workload, name, statistics.median(b),
                                   bq[0], bq[1], statistics.median(c), cq[0],
                                   cq[1], 100 * won, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
