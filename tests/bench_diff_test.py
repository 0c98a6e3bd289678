#!/usr/bin/env python3
"""Unit tests of the perf gate tools/bench_diff.py on tiny synthetic
baseline and fresh directories (stdlib only).

Usage: bench_diff_test.py [path/to/bench_diff.py] [unittest args]
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "tools", "bench_diff.py")

COST = ["events_scheduled", "payload_copies"]


def record(op, ranks, sim_time_us, wall, **counters):
    return {"key": {"op": op, "network": "switch", "ranks": ranks},
            "counters": {"sim_time_us": sim_time_us, "events_scheduled": 100,
                         "payload_copies": 10, "retransmits": 0, **counters},
            "wall_time_ms": wall}


def bench_file(records):
    return {"bench": "toy", "cost_counters": COST, "records": records}


BASELINE = bench_file([record("bcast", 4, 250.5, 10.0),
                       record("bcast", 9, 410.25, 20.0)])


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, fresh, baseline=BASELINE, extra_args=()):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "base")
            fresh_dir = os.path.join(tmp, "fresh")
            os.mkdir(base_dir)
            os.mkdir(fresh_dir)
            with open(os.path.join(base_dir, "BENCH_toy.json"), "w") as f:
                json.dump(baseline, f)
            with open(os.path.join(fresh_dir, "BENCH_toy.json"), "w") as f:
                json.dump(fresh, f)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline", base_dir,
                 "--fresh", fresh_dir, *extra_args],
                capture_output=True, text=True)
            return proc.returncode, proc.stdout + proc.stderr

    def fresh(self):
        return copy.deepcopy(BASELINE)

    def assert_fails(self, fresh, message, **kwargs):
        rc, out = self.run_diff(fresh, **kwargs)
        self.assertEqual(rc, 1, out)
        self.assertIn(message, out)

    def test_identical_run_passes(self):
        rc, out = self.run_diff(self.fresh())
        self.assertEqual(rc, 0, out)
        self.assertIn("bench_diff: OK", out)

    def test_changed_sim_time_fails(self):
        fresh = self.fresh()
        fresh["records"][1]["counters"]["sim_time_us"] = 410.5
        self.assert_fails(fresh, "sim_time_us changed 410.25 -> 410.5")

    def test_changed_exact_counter_fails(self):
        fresh = self.fresh()
        fresh["records"][0]["counters"]["retransmits"] = 1
        self.assert_fails(fresh, "retransmits changed 0 -> 1")

    def test_exact_counter_that_fell_still_fails(self):
        baseline = copy.deepcopy(BASELINE)
        baseline["records"][0]["counters"]["retransmits"] = 3
        self.assert_fails(self.fresh(), "retransmits changed 3 -> 0",
                          baseline=baseline)

    def test_cost_counter_that_rose_fails(self):
        fresh = self.fresh()
        fresh["records"][0]["counters"]["events_scheduled"] = 101
        self.assert_fails(fresh, "events_scheduled regressed 100 -> 101")

    def test_cost_counter_that_fell_passes_as_improved(self):
        fresh = self.fresh()
        fresh["records"][0]["counters"]["payload_copies"] = 7
        rc, out = self.run_diff(fresh)
        self.assertEqual(rc, 0, out)
        self.assertIn("IMPROVED", out)
        self.assertIn("payload_copies improved 10 -> 7", out)

    def test_missing_record_fails(self):
        fresh = self.fresh()
        del fresh["records"][1]
        self.assert_fails(fresh, "missing from fresh run")

    def test_missing_counter_fails(self):
        fresh = self.fresh()
        del fresh["records"][1]["counters"]["retransmits"]
        self.assert_fails(fresh, "retransmits missing from fresh run")

    def test_unpinned_record_fails(self):
        fresh = self.fresh()
        fresh["records"].append(record("bcast", 16, 600.0, 30.0))
        self.assert_fails(fresh, "not pinned")

    def test_unpinned_counter_fails(self):
        fresh = self.fresh()
        fresh["records"][0]["counters"]["nacks_sent"] = 0
        self.assert_fails(fresh, "nacks_sent not pinned")

    def test_key_axis_distinguishes_records(self):
        # The same point on another sweep axis is a different record.
        fresh = self.fresh()
        fresh["records"][1]["key"]["shards"] = 2
        self.assert_fails(fresh, "not pinned")

    def test_duplicate_key_fails(self):
        fresh = self.fresh()
        fresh["records"].append(copy.deepcopy(fresh["records"][0]))
        self.assert_fails(fresh, "duplicate key")

    def test_duplicate_key_in_baseline_fails(self):
        baseline = copy.deepcopy(BASELINE)
        baseline["records"].append(copy.deepcopy(baseline["records"][0]))
        self.assert_fails(self.fresh(), "duplicate key", baseline=baseline)

    def test_missing_required_file_fails(self):
        self.assert_fails(self.fresh(), "required fresh output missing",
                          extra_args=["--require", "BENCH_other.json"])

    def test_wall_time_over_tolerance_fails(self):
        fresh = self.fresh()
        fresh["records"][0]["wall_time_ms"] = 14.0  # 30 -> 34 ms: +13%
        self.assert_fails(fresh, "aggregate wall time regressed")

    def test_wall_time_within_tolerance_passes(self):
        fresh = self.fresh()
        fresh["records"][0]["wall_time_ms"] = 14.0
        rc, out = self.run_diff(fresh, extra_args=["--wall-tolerance", "0.2"])
        self.assertEqual(rc, 0, out)

    def test_wall_sum_skips_baseline_records_without_wall_time(self):
        # A record pinned without a wall time takes no part in the sum.
        baseline = copy.deepcopy(BASELINE)
        baseline["records"].append(record("scatter", 8, 90.0, 0.0))
        del baseline["records"][-1]["wall_time_ms"]
        fresh = self.fresh()
        fresh["records"].append(record("scatter", 8, 90.0, 500.0))
        rc, out = self.run_diff(fresh, baseline=baseline)
        self.assertEqual(rc, 0, out)
        self.assertIn("wall 30.0 -> 30.0 ms", out)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1].endswith(".py"):
        SCRIPT = sys.argv.pop(1)
    unittest.main()
