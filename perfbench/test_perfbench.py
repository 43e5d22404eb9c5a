#!/usr/bin/env python3
"""Tests of the perfbench harness itself.

    python3 perfbench/test_perfbench.py

From the repository root. Builds the harness through run.py (as a benchmark
run does) and runs each workload briefly:

* the same seed twice gives exactly equal code_words, fail_share,
  select.nodes_per_job, compact.words_per_job and bdd.nodes_added_per_job;
* a different seed gives a different program set;
* an untraced run prints every end-to-end metric of BENCHMARK.json and a
  traced run every per-layer metric, each with its unit.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("compile_1t", "serve_shared", "explore")
SECONDS = "1"


def run(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d failed (%d):\n%s\n%s" % (
            workload, seed, proc.returncode, proc.stdout[-3000:],
            proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = {}
    for line in lines:
        if line.startswith("counts:") or line.startswith("attempted="):
            for key, value in re.findall(r"([\w.]+)=(\S+)", line):
                counts[key] = value
    return result, counts


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_counts_repeat_for_a_seed_and_programs_follow_the_seed(self):
        exact = ("code_words", "fail_share", "select.nodes_per_job",
                 "compact.words_per_job", "bdd.nodes_added_per_job")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, a = run(workload, 7)
                _, b = run(workload, 7)
                _, other = run(workload, 8)
                self.assertTrue(first["correct"])
                for key in exact:
                    self.assertIn(key, a)
                    self.assertEqual(a[key], b[key], key)
                self.assertEqual(a["program_set"], b["program_set"])
                self.assertNotEqual(a["program_set"], other["program_set"])

    def test_every_registered_metric_is_printed(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run(workload, 3, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    names = [m["name"] for m in self.spec[key]]
                    self.assertEqual(sorted(metrics), sorted(names))
                    for m in self.spec[key]:
                        self.assertEqual(metrics[m["name"]]["unit"],
                                         m["unit"])


if __name__ == "__main__":
    unittest.main()
