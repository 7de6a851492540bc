#!/usr/bin/env python3
"""Checks the benchmark's emitted metrics against BENCHMARK.json.

    python3 perfbench/test_metrics.py PIPELINE_BENCH BENCHMARK_JSON

Runs every workload at a small scale, untraced and traced, and checks
that the result line has the contract's shape, that every emitted name
matches [A-Za-z0-9_.-]+ and is listed in BENCHMARK.json with the same
unit (and every listed metric is emitted), that the run passed its
correctness gate, and that each ratio metric is emitted with its base.
"""
import json
import math
import re
import subprocess
import sys
import unittest

BENCH = None
SPEC = None
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, trace):
    out = subprocess.run(
        [BENCH, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.25"],
        check=True, capture_output=True, text=True, timeout=170).stdout
    return json.loads(out.strip().splitlines()[-1])


class MetricNamesTest(unittest.TestCase):
    def check(self, trace, listed):
        spec = {m["name"]: m["unit"] for m in SPEC[listed]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                result = run(w["name"], trace)
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                for name, m in metrics.items():
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertIn(name, spec)
                    self.assertEqual(m["unit"], spec[name], name)
                    self.assertTrue(math.isfinite(m["value"]), name)
                self.assertEqual(sorted(metrics), sorted(spec))
                yield metrics

    def test_end_to_end(self):
        for metrics in self.check(0, "end_to_end"):
            self.assertGreater(metrics["tuples_per_s"]["value"], 0)
            self.assertEqual(metrics["pass_ratio"]["value"], 1)

    def test_per_layer_ratios_carry_their_bases(self):
        for m in self.check(1, "per_layer"):
            v = {k: x["value"] for k, x in m.items()}
            self.assertGreater(v["aspect.proposals"], 0)
            accepted = (v["aspect.proposals"] - v["aspect.vetoed"]
                        - v["aspect.forced"])
            self.assertAlmostEqual(v["aspect.accept_ratio"],
                                   accepted / v["aspect.proposals"])
            skipped = (v["aspect.votes_skipped"] / v["aspect.votes_total"]
                       if v["aspect.votes_total"] else 0)
            self.assertAlmostEqual(v["aspect.vote_skip_ratio"], skipped)
            self.assertGreater(v["trace.accounted_ratio"], 0.5)
            self.assertLessEqual(v["trace.accounted_ratio"], 1)


if __name__ == "__main__":
    BENCH, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        SPEC = json.load(f)
    unittest.main(argv=sys.argv[:1])
