#!/usr/bin/env python3
"""Negative self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seconds S]

For every workload, a clean run must pass, and a dropped response, a
flipped position bit and a wrong fix count (--corrupt drop|flip|count)
must each make the command exit non-zero with "correct": false.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_lab", "serve_1m", "cluster_hot"]


def run(workload, seconds, corrupt=None):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "1", "--seconds", seconds, "--trace", "0"]
    if corrupt:
        args += ["--corrupt", corrupt]
    done = subprocess.run(args, cwd=os.path.dirname(HERE),
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    correct = json.loads(lines[-1])["correct"] if lines else None
    return done.returncode, correct


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="2")
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        code, correct = run(workload, args.seconds)
        good = code == 0 and correct is True
        print("%-12s clean        exit %d correct=%s  %s" %
              (workload, code, correct, "ok" if good else "FAIL"))
        ok &= good
        for corrupt in ["drop", "flip", "count"]:
            code, correct = run(workload, args.seconds, corrupt)
            caught = code != 0 and correct is False
            print("%-12s %-12s exit %d correct=%s  %s" %
                  (workload, corrupt, code, correct,
                   "caught" if caught else "MISSED"))
            ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
