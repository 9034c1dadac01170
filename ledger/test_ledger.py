#!/usr/bin/env python3
"""Unit tests of ledger.py's paired comparison.

  python3 ledger/test_ledger.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def document(walls, starts, failed=0, metric="wall_s"):
    """A result document with one workload and one metric; a None sample
    is a failed rep."""
    ok = [w for w in walls if w is not None]
    return {"failed": failed, "workloads": {"fig4-jobs": {
        "starts": starts,
        "end_to_end": {metric: dict(ledger.summarize(ok), unit="s",
                                    samples=walls)}}}}


class PairedCompareTest(unittest.TestCase):
    REPS = 11

    def setUp(self):
        # run --against alternates which side goes first: the parent in
        # even reps, the change in odd ones.
        self.parent_starts = [10.0 * i + (i % 2) for i in range(self.REPS)]
        self.change_starts = [10.0 * i + 1 - (i % 2)
                              for i in range(self.REPS)]
        self.parent_walls = [1.0 + 0.001 * i for i in range(self.REPS)]
        self.change_walls = [0.9 * w for w in self.parent_walls]

    def test_failed_rep_drops_its_pair_only(self):
        self.change_walls[3] = None
        self.change_starts[3] = None
        parent = document(self.parent_walls, self.parent_starts)
        change = document(self.change_walls, self.change_starts, failed=72)
        pairs = ledger.paired_samples(parent["workloads"]["fig4-jobs"],
                                      change["workloads"]["fig4-jobs"],
                                      "wall_s")
        self.assertEqual([i for i, _, _, _ in pairs],
                         [0, 1, 2, 4, 5, 6, 7, 8, 9, 10])
        for i, p, c, parent_first in pairs:
            self.assertEqual(p, self.parent_walls[i])
            self.assertAlmostEqual(c, 0.9 * p)
            self.assertEqual(parent_first, i % 2 == 0)

        rows, status = ledger.compare_docs(parent, change, SPEC)
        # Ten surviving pairs, all won, order alternating around the gap.
        self.assertEqual(rows[0][-1], "improved")
        # The change failed more jobs than the parent.
        self.assertEqual(status, 1)

    def test_order_must_alternate(self):
        self.change_starts = [s + 5 for s in self.parent_starts]
        parent = document(self.parent_walls, self.parent_starts)
        change = document(self.change_walls, self.change_starts)
        rows, status = ledger.compare_docs(parent, change, SPEC)
        self.assertEqual(rows[0][-1], "unchanged")
        self.assertEqual(status, 0)

    def test_regression_beyond_paired_bound_fails(self):
        # 12% worse: inside BENCHMARK.json's unpaired bound, beyond the
        # paired one.
        change_walls = [1.12 * w for w in self.parent_walls]
        rows, status = ledger.compare_docs(
            document(self.parent_walls, self.parent_starts),
            document(change_walls, self.change_starts), SPEC)
        self.assertEqual(rows[0][-1], "regressed")
        self.assertEqual(status, 1)

    def test_setup_regression_needs_absolute_floor(self):
        parent = [0.0015] * self.REPS
        for change, want in (([0.0020] * self.REPS, 0),
                             ([0.0080] * self.REPS, 1)):
            rows, status = ledger.compare_docs(
                document(parent, self.parent_starts, metric="setup_s"),
                document(change, self.change_starts, metric="setup_s"),
                SPEC)
            self.assertEqual(status, want)


if __name__ == "__main__":
    unittest.main()
