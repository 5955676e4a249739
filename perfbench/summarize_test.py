#!/usr/bin/env python3
"""Shows that run.py's acceptance check fires: summarize() must mark a run
incorrect when two of its rounds — untraced repeats, or a traced round
against an untraced one — disagree on any number that the deterministic
simulation fixes, or when a round reports a failed output check.

    python3 perfbench/summarize_test.py      (also run by run.py --self-test)
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record():
    """One round's record, shaped like perfbench's output."""
    return {
        "parts": 1,
        "setup_s": 0.2,
        "wall_s": 1.5,
        "sim_s": 21.125,
        "peak_rss_mb": 100.0,
        "attempted": 482,
        "failed": 1,
        "job_ms": [80.5, 82.25, 90.0],
        "errors": [],
        "notes": [],
        "modeled": {"sim.events": 3.8e6, "net.nic_busy_s": 1.25},
        "host": {"bench.closure_wall_s": 0.08},
        "traced": {},
    }


def traced_record():
    r = record()
    r["wall_s"] = 2.0
    r["traced"] = {"obs.trace_records": 1.4e6, "ser.sim_s": 0.5}
    return r


class SummarizeTest(unittest.TestCase):
    bench = run.load_benchmark()

    def summarize(self, plain, traced, trace):
        return run.summarize(self.bench, plain, traced, trace)

    def test_agreeing_rounds_are_correct(self):
        for trace in (0, 1):
            r = self.summarize([record(), record()],
                               [traced_record()] if trace else [], trace)
            self.assertTrue(r["correct"])
            self.assertEqual(r["attempted"], 964 + (482 if trace else 0))

    def test_host_times_may_differ(self):
        other = record()
        other["wall_s"] = 1.9
        other["setup_s"] = 0.3
        other["host"]["bench.closure_wall_s"] = 0.1
        self.assertTrue(self.summarize([record(), other], [], 0)["correct"])

    def assert_differs(self, change):
        """Changing one fixed number of the second round makes the run
        incorrect, untraced and traced alike."""
        other = copy.deepcopy(record())
        change(other)
        self.assertFalse(self.summarize([record(), other], [], 0)["correct"])
        traced = traced_record()
        change(traced)
        self.assertFalse(self.summarize([record()], [traced], 1)["correct"])

    def test_modeled_layer_value_differs(self):
        def change(r):
            r["modeled"]["net.nic_busy_s"] = 1.2500000001
        self.assert_differs(change)

    def test_modeled_layer_value_missing(self):
        self.assert_differs(lambda r: r["modeled"].pop("sim.events"))

    def test_sim_s_differs(self):
        def change(r):
            r["sim_s"] = 21.126
        self.assert_differs(change)

    def test_job_duration_differs(self):
        def change(r):
            r["job_ms"][1] = 82.26
        self.assert_differs(change)

    def test_attempted_differs(self):
        def change(r):
            r["attempted"] = 481
        self.assert_differs(change)

    def test_failed_differs(self):
        def change(r):
            r["failed"] = 0
        self.assert_differs(change)

    def test_failed_output_check(self):
        self.assert_differs(lambda r: r["errors"].append("job 3 vs closed form"))


if __name__ == "__main__":
    unittest.main()
