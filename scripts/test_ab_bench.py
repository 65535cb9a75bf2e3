#!/usr/bin/env python3
"""Unit tests for the verdict rules of scripts/ab_bench.py.

    python3 scripts/test_ab_bench.py

Covers every branch of `verdict()` for bounded end-to-end metrics and for
unbounded per-layer (traced) metrics, and the rule that a gain does not
count while the change fails a larger share of operations than the base.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab_bench import failed_share, verdict  # noqa: E402

NEEDED = 9  # wins out of 10 pairs that make a gain
CPU = {"name": "cpu_us_per_update", "better": "lower", "bound": 0.24}
RATE = {"name": "updates_per_s", "better": "higher", "bound": 0.24}
TRACED = {"name": "gossip.node.pull_request_ns", "better": "lower"}

# Ten base runs with median 100 and quartile distance 4 (98 .. 102).
BASE = [96, 97, 98, 98, 99, 101, 102, 102, 103, 104]


def shifted(values, by):
    return [v + by for v in values]


class VerdictTest(unittest.TestCase):
    def test_equal_when_every_pair_reads_the_same(self):
        self.assertEqual(verdict(CPU, BASE, list(BASE), NEEDED),
                         (0, "equal"))
        self.assertEqual(verdict(TRACED, BASE, list(BASE), NEEDED),
                         (0, "equal"))

    def test_gain_needs_nine_wins_and_a_median_beyond_the_quartiles(self):
        self.assertEqual(verdict(CPU, BASE, shifted(BASE, -10), NEEDED),
                         (10, "gain"))

    def test_gain_for_a_higher_is_better_metric(self):
        self.assertEqual(verdict(RATE, BASE, shifted(BASE, 10), NEEDED),
                         (10, "gain"))

    def test_nine_wins_inside_the_quartile_distance_is_no_gain(self):
        # Every pair won by 1, but the medians are 1 apart against a
        # quartile distance of 4.
        self.assertEqual(verdict(CPU, BASE, shifted(BASE, -1), NEEDED),
                         (10, "within bound"))

    def test_a_median_far_beyond_with_eight_wins_is_no_gain(self):
        change = shifted(BASE, -20)
        change[0] = BASE[0] + 1  # two pairs lost
        change[9] = BASE[9] + 1
        wins, word = verdict(CPU, BASE, change, NEEDED)
        self.assertEqual(wins, 8)
        self.assertEqual(word, "within bound")

    def test_unresolved_when_the_base_spread_exceeds_the_bound(self):
        wide = [50, 60, 70, 80, 100, 100, 120, 130, 140, 150]  # IQR 55
        change = list(reversed(wide))  # same median; 4 wins, 2 ties
        self.assertEqual(verdict(CPU, wide, change, NEEDED),
                         (4, "unresolved"))

    def test_a_change_that_beats_every_base_run_is_resolved(self):
        wide = [50, 60, 70, 80, 100, 100, 120, 130, 140, 150]
        change = [45, 46, 47, 48, 49, 49, 48, 47, 46, 45]
        # Below every base run, yet the medians are 53 apart against an IQR
        # of 55: no gain, but not unresolved either.
        wins, word = verdict(CPU, wide, change, NEEDED)
        self.assertEqual(wins, 10)
        self.assertEqual(word, "within bound")

    def test_regression_beyond_bound(self):
        self.assertEqual(verdict(CPU, BASE, shifted(BASE, 30), NEEDED),
                         (0, "regression beyond bound"))
        self.assertEqual(verdict(RATE, BASE, shifted(BASE, -30), NEEDED),
                         (0, "regression beyond bound"))

    def test_within_bound(self):
        self.assertEqual(verdict(CPU, BASE, shifted(BASE, 20), NEEDED),
                         (0, "within bound"))

    def test_traced_loss(self):
        self.assertEqual(verdict(TRACED, BASE, shifted(BASE, 10), NEEDED),
                         (0, "loss"))

    def test_traced_no_clear_difference(self):
        # Lost every pair, but only by 1 against a quartile distance of 4.
        self.assertEqual(verdict(TRACED, BASE, shifted(BASE, 1), NEEDED),
                         (0, "no clear difference"))
        self.assertEqual(verdict(TRACED, BASE, list(reversed(BASE)), NEEDED),
                         (5, "no clear difference"))

    def test_traced_gain(self):
        self.assertEqual(verdict(TRACED, BASE, shifted(BASE, -10), NEEDED),
                         (10, "gain"))


class FailedOperationsTest(unittest.TestCase):
    def test_a_gain_with_more_failed_operations_is_not_counted(self):
        self.assertEqual(
            verdict(CPU, BASE, shifted(BASE, -10), NEEDED,
                    more_failures=True),
            (10, "gain not counted (more failed operations)"))
        self.assertEqual(
            verdict(TRACED, BASE, shifted(BASE, -10), NEEDED,
                    more_failures=True),
            (10, "gain not counted (more failed operations)"))

    def test_other_verdicts_are_unchanged(self):
        for change, word in ((list(BASE), "equal"),
                             (shifted(BASE, 30), "regression beyond bound"),
                             (shifted(BASE, 20), "within bound")):
            self.assertEqual(
                verdict(CPU, BASE, change, NEEDED, more_failures=True)[1],
                word)

    def test_failed_share(self):
        runs = [{"attempted": 100, "failed": 1},
                {"attempted": 300, "failed": 3}]
        self.assertAlmostEqual(failed_share(runs), 0.01)
        self.assertEqual(failed_share([{"attempted": 0, "failed": 0}]), 0.0)
        self.assertGreater(
            failed_share([{"attempted": 100, "failed": 2}]),
            failed_share(runs))


if __name__ == "__main__":
    unittest.main()
