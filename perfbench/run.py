#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_lab|serve_1m|cluster_hot \
        --seed N --seconds S --trace 0|1 [--corrupt drop|flip|count]

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
check that the build is current.  Build output goes to stderr, so the
result stays the last line of stdout.

The benchmark binary reports metrics by name only.  This wrapper gives
each its unit from BENCHMARK.json: with --trace 0 every end_to_end metric,
with --trace 1 every per_layer metric.  A missing end-to-end metric, or a
reported name BENCHMARK.json does not list, fails the run; a per-layer
metric of a layer the workload bypasses reads 0.  With --trace 0 it also
reruns the binary with --setup-only 1 to average setup_s over fresh
processes (see SETUP_PROCESSES).  Exits non-zero without a
result when the sources are missing, the build fails or the binary
reports no result; exits 1 with "correct": false when an output check
failed.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
# A process's set-up time depends on the address-space layout it draws:
# the lab's construction runs at about 30 us in some processes and 45 us
# in others.  setup_s is therefore the mean over this many processes.
SETUP_PROCESSES = 10


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; run from a full "
                 "checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def commit():
    """The source commit when run inside a git checkout, else unknown."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric_specs(trace):
    """[(name, unit)] of the metric set --trace selects."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    per_layer = [m["name"] for m in bench["per_layer"]]
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        mapped = set(json.load(f)["layers"])
    if mapped != set(per_layer):
        sys.exit("perfbench: layers.json and BENCHMARK.json per_layer differ: "
                 + ", ".join(sorted(mapped ^ set(per_layer))))
    chosen = bench["per_layer"] if trace else bench["end_to_end"]
    return [(m["name"], m["unit"]) for m in chosen]


def with_units(result, trace):
    specs = metric_specs(trace)
    reported = result["metrics"]
    unknown = sorted(set(reported) - {name for name, _ in specs})
    if unknown:
        sys.exit("perfbench: reported metrics not in BENCHMARK.json: " +
                 ", ".join(unknown))
    metrics = {}
    for name, unit in specs:
        if name not in reported and not trace:
            sys.exit("perfbench: workload did not report " + name)
        metrics[name] = {"value": reported.get(name, 0.0), "unit": unit}
    result["metrics"] = metrics
    return result


def setup_seconds(binary, args, first):
    """Mean set-up time over SETUP_PROCESSES processes: this run's own
    figure `first` and fresh processes that measure only the set-up."""
    values = [first]
    for _ in range(SETUP_PROCESSES - 1):
        done = subprocess.run([binary] + args + ["--setup-only", "1"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            sys.exit("perfbench: set-up run failed (exit %d)" %
                     done.returncode)
        last = done.stdout.strip().splitlines()[-1]
        values.append(json.loads(last)["metrics"]["setup_s"])
    return statistics.mean(values)


def main():
    build()
    args = sys.argv[1:]
    trace = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    done = subprocess.run([binary] + args + ["--commit", commit()],
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode in (0, 1) else None
    except (IndexError, ValueError):
        result = None
    if result is None or "metrics" not in result:
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: no result (exit %d)" % done.returncode)
    if not trace and "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"] = setup_seconds(
            binary, args, result["metrics"]["setup_s"])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(with_units(result, trace)))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
