#!/usr/bin/env python3
"""Unit tests of the bench gate's verdict on fixture perfbench results.

    python3 scripts/test_bench_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_gate import verdict  # noqa: E402

SPEC = {
    "workloads": [{"name": "paper_mix"}],
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "events_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    ],
}
BASE = {"run_s": 1.0, "events_per_s": 1e6, "peak_rss_mb": 10.0}


def runs(scale=None, spread=None, failed=0, correct=True, n=5):
    """`n` identical results, with `scale` multiplying named metrics and
    `spread` giving one metric a per-run list of values instead."""
    out = []
    for i in range(n):
        values = {k: v * (scale or {}).get(k, 1.0) for k, v in BASE.items()}
        for k, vs in (spread or {}).items():
            values[k] = vs[i]
        out.append({
            "correct": correct,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                f"paper_mix.{k}": {"value": v, "unit": ""} for k, v in values.items()
            },
        })
    return out


def status(rows, name):
    return next(row[-1] for row in rows if row[0] == name)


class VerdictTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        rows, ok = verdict(SPEC, runs(), runs())
        self.assertTrue(ok, rows)

    def test_run_s_rise_of_30_percent_fails_and_10_percent_passes(self):
        rows, ok = verdict(SPEC, runs(), runs({"run_s": 1.3}))
        self.assertFalse(ok)
        self.assertTrue(status(rows, "paper_mix.run_s").startswith("FAIL"))
        rows, ok = verdict(SPEC, runs(), runs({"run_s": 1.1}))
        self.assertTrue(ok, rows)

    def test_events_per_s_rise_passes_because_higher_is_better(self):
        rows, ok = verdict(SPEC, runs(), runs({"events_per_s": 1.3}))
        self.assertTrue(ok, rows)
        rows, ok = verdict(SPEC, runs(), runs({"events_per_s": 0.7}))
        self.assertFalse(ok)

    def test_peak_rss_rise_of_20_percent_fails_under_its_15_percent_bound(self):
        rows, ok = verdict(SPEC, runs(), runs({"peak_rss_mb": 1.2}))
        self.assertFalse(ok)
        self.assertTrue(status(rows, "paper_mix.peak_rss_mb").startswith("FAIL"))

    def test_a_rise_in_failed_fails(self):
        rows, ok = verdict(SPEC, runs(), runs(failed=1))
        self.assertFalse(ok)
        self.assertEqual(status(rows, "failed"), "FAIL: rose")

    def test_an_incorrect_head_fails(self):
        rows, ok = verdict(SPEC, runs(), runs(correct=False))
        self.assertFalse(ok)
        self.assertEqual(status(rows, "correct"), "FAIL")

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        # BASE's quartiles (0.8 and 1.2) lie 40% of its median apart.
        noisy = {"run_s": [0.6, 0.8, 1.0, 1.2, 1.4]}
        overlapping = {"run_s": [1.0, 1.2, 1.3, 1.4, 1.5]}
        rows, ok = verdict(SPEC, runs(spread=noisy), runs(spread=overlapping))
        self.assertEqual(status(rows, "paper_mix.run_s"), "unresolved")
        self.assertTrue(ok, rows)
        # Unresolved still fails when every HEAD run reads worse.
        rows, ok = verdict(SPEC, runs(spread=noisy), runs({"run_s": 1.5}))
        self.assertEqual(status(rows, "paper_mix.run_s"), "FAIL: unresolved, every HEAD run worse")
        self.assertFalse(ok)

    def test_one_outlier_does_not_widen_the_spread(self):
        # One slow BASE run leaves the quartiles equal, so a 30% rise
        # still resolves and fails.
        outlier = {"run_s": [0.95, 1.0, 1.0, 1.0, 2.0]}
        rows, ok = verdict(SPEC, runs(spread=outlier), runs({"run_s": 1.3}))
        self.assertEqual(status(rows, "paper_mix.run_s"), "FAIL: worse by more than 25%")
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()
