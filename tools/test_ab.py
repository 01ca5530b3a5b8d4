#!/usr/bin/env python3
"""Self-test of `tools/ab.py`'s verdict: synthetic parent/change runs, one
per rule of the gate, fed to the pure `judge`. Standard library only:

    python3 tools/test_ab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

PAIRS = 10
WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "req_per_s", "better": "higher", "bound": 0.25}

# A parent whose ten runs spread over ±5 %: median 1.0, and an IQR of
# 0.0575 by `statistics.quantiles`' default (exclusive) method.
PARENT = [0.95, 0.96, 0.975, 0.99, 0.995, 1.005, 1.01, 1.025, 1.04, 1.05]


def runs(parent, change, name="wall_s", digests=("d",)):
    return {
        "parent": [{name: v} for v in parent],
        "change": [{name: v} for v in change],
        "digests": sorted(digests),
    }


def verdict(parent, change, metric=WALL, digests=("d",)):
    rows, bad = ab.judge(runs(parent, change, metric["name"], digests), [metric], PAIRS)
    (row,) = rows
    return row[-1], bad


class Verdict(unittest.TestCase):
    def test_the_parent_spread_is_what_the_table_calls_its_iqr(self):
        self.assertAlmostEqual(ab.iqr(PARENT), 0.0575, places=9)

    def test_a_clear_gain(self):
        # Half the time on every pair: past the IQR and past the bound.
        self.assertEqual(verdict(PARENT, [v * 0.5 for v in PARENT]), ("GAIN", False))

    def test_a_clear_gain_on_a_higher_is_better_metric(self):
        self.assertEqual(verdict(PARENT, [v * 2 for v in PARENT], RATE), ("GAIN", False))

    def test_a_gain_inside_the_parents_iqr_is_no_verdict(self):
        # Every pair won, by 0.04 s against a 0.0575 s spread.
        self.assertEqual(verdict(PARENT, [v - 0.04 for v in PARENT]), ("", False))

    def test_a_gain_that_clears_the_iqr_but_not_the_bound(self):
        # 10 % faster: past the 0.0575 s spread, inside the 25 % bound.
        self.assertEqual(verdict(PARENT, [v * 0.9 for v in PARENT]), ("below bound", False))

    def test_a_gain_won_on_fewer_than_nine_pairs_is_no_verdict(self):
        change = [v * 0.5 for v in PARENT[:8]] + [v * 1.1 for v in PARENT[8:]]
        self.assertEqual(verdict(PARENT, change), ("", False))

    def test_a_regression_past_the_bound_fails_the_gate(self):
        self.assertEqual(verdict(PARENT, [v * 1.3 for v in PARENT]), ("WORSE", True))

    def test_a_rate_that_drops_past_the_bound_fails_the_gate(self):
        self.assertEqual(verdict(PARENT, [v * 0.7 for v in PARENT], RATE), ("WORSE", True))

    def test_a_regression_inside_the_bound_passes(self):
        self.assertEqual(verdict(PARENT, [v * 1.2 for v in PARENT]), ("", False))

    def test_a_digest_mismatch_fails_the_gate_whatever_the_numbers(self):
        self.assertEqual(verdict(PARENT, PARENT, digests=("a", "b")), ("", True))
        self.assertEqual(verdict(PARENT, [v * 0.5 for v in PARENT], digests=("a", "b")),
                         ("GAIN", True))


if __name__ == "__main__":
    unittest.main()
