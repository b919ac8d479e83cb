#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (a few seconds in total).

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

- Every metric BENCHMARK.json names is emitted, with its unit, by every
  workload: end-to-end metrics with --trace 0, per-layer ones with --trace 1.
- The exact counters repeat bit for bit across two traced runs, so later
  changes may claim them as counts.
- Outputs are correct and the exit code is 0 on the unchanged engine.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_COUNTERS = (
    "core.supersteps", "core.edges_scanned", "bus.bytes", "bus.messages",
    "fault.retries", "storage.blocks_read", "walks.walker_steps",
    "serve.batches",
)

# Counters each workload must actually exercise (nonzero), so that an
# exactness check on a counter that is always zero cannot pass vacuously.
EXERCISED = {
    "pagerank-rmat": ("core.supersteps", "core.edges_scanned", "bus.bytes"),
    "sssp-road": ("core.supersteps", "bus.messages", "async.relaxations"),
    "walk-rmat-faulty": ("walks.walker_steps", "fault.retries", "bus.bytes"),
    "serve-rmat-paged": ("serve.batches", "storage.blocks_read",
                         "core.edges_scanned"),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError("%s failed (%d):\n%s\n%s" % (
            workload, out.returncode, out.stdout[-2000:], out.stderr[-2000:]))
    return json.loads(lines[-1]), out.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def check_metrics(self, result, stdout, wanted):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            # The human-readable line carries the same name and unit.
            self.assertRegex(stdout, r"(?m)^metric %s +\S+ %s$" % (
                m["name"].replace(".", r"\."), m["unit"]))

    def test_end_to_end_metrics(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, stdout = run(workload, 3, 0)
                self.check_metrics(result, stdout, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_exact_counters_repeat(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first, stdout = run(workload, 5, 1)
                second, _ = run(workload, 5, 1)
                self.check_metrics(first, stdout, self.spec["per_layer"])
                for name in EXACT_COUNTERS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                for name in EXERCISED[workload]:
                    self.assertGreater(first["metrics"][name]["value"], 0,
                                       name)

    def test_spec_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
