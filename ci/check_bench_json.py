#!/usr/bin/env python3
"""Checks the committed benchmark records (BENCH_*.json at the repo root).

    ci/check_bench_json.py [FILE...]

With no arguments it checks every BENCH_*.json that git tracks (or, outside
a git checkout, every one in the root directory). Each must parse as JSON
and carry "name", "hardware_threads" and "tuples_per_s": a throughput
figure only compares across runs on the same hardware width. The
scalability record must also hold one row per pipeline scale of each
sweep, i.e. the metrics <p>scale_<s>_<f> for every field f in
SCALE_FIELDS (tuples, tweak_s, tuples_per_s, and each tool's seconds in
the median run, which name the layer behind a throughput change), every
s in SCALES and every sweep prefix p in SWEEPS ("" for Rand-XiamiLike
C-L-P, "douban_" for Dscaler-DoubanMovieLike L-P-C). Exits non-zero with
one line per problem.
"""
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = ("name", "hardware_threads", "tuples_per_s")
SCALES = (1, 2, 4, 8, 16)
SWEEPS = ("", "douban_")
SCALE_FIELDS = ("tuples", "tweak_s", "tuples_per_s", "linear_s",
                "coappear_s", "pairwise_s")


def committed_records():
    try:
        out = subprocess.run(["git", "ls-files", "BENCH_*.json"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        names = out.stdout.split()
    except (OSError, subprocess.CalledProcessError):
        names = [os.path.basename(p)
                 for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))]
    return [os.path.join(ROOT, n) for n in sorted(names)]


def check(path):
    problems = []
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: does not parse: {e}"]
    if not isinstance(record, dict):
        return [f"{path}: top level is not an object"]
    for key in REQUIRED:
        if key not in record:
            problems.append(f"{path}: missing \"{key}\"")
    if record.get("name") == "scalability":
        metrics = record.get("metrics", {})
        for prefix in SWEEPS:
            for s in SCALES:
                for field in SCALE_FIELDS:
                    key = f"{prefix}scale_{s}_{field}"
                    if not isinstance(metrics.get(key), (int, float)):
                        problems.append(f"{path}: no metric \"{key}\"")
    return problems


def main(argv):
    paths = argv[1:] or committed_records()
    if not any(os.path.basename(p) == "BENCH_scalability.json"
               for p in paths) and not argv[1:]:
        print("BENCH_scalability.json is not committed")
        return 1
    problems = [p for path in paths for p in check(path)]
    for p in problems:
        print(p)
    if not problems:
        print(f"checked {len(paths)} benchmark record(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
