"""Tail-percentile choice, backlog detection and span self times."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pbstats  # noqa: E402
from pbstats import INF  # noqa: E402


def single_server(due, service_ms):
    """Completion times of a FIFO server with a fixed service time."""
    done, free = [], 0.0
    for t in due:
        free = max(free, t) + service_ms
        done.append(free)
    return done


class CostPerOpTest(unittest.TestCase):
    def test_each_input_counts_once(self):
        # Input 0 costs 10, input 1 costs 20; input 0 ran three times, once
        # slowly. A plain median or mean would lean towards input 0.
        xs = [10.0, 20.0, 10.0, 21.0, 30.0]
        groups = [0, 1, 0, 1, 0]
        self.assertAlmostEqual(pbstats.mean_of_medians(xs, groups), 15.25)
        self.assertEqual(pbstats.mean_of_medians([], []), 0.0)


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        self.assertEqual(pbstats.tail_index(200), 189)
        self.assertAlmostEqual(pbstats.tail_percentile(200), 95.0)
        self.assertAlmostEqual(pbstats.tail_percentile(1000), 99.0)
        self.assertEqual(pbstats.tail_index(21), 10)  # the median

    def test_too_few_samples_give_the_maximum(self):
        # Ten samples beyond would put the tail below the median.
        self.assertEqual(pbstats.tail_index(20), 19)
        self.assertEqual(pbstats.tail_index(16), 15)
        self.assertEqual(pbstats.tail_index(10), 9)
        self.assertEqual(pbstats.tail_index(1), 0)
        self.assertEqual(pbstats.tail([3.0, 1.0, 2.0]), 3.0)
        with self.assertRaises(ValueError):
            pbstats.tail_index(0)

    def test_tail_value_and_failures(self):
        xs = list(range(1, 201))  # 1..200
        self.assertEqual(pbstats.tail(xs), 190)
        # A failed request is infinitely late: it is counted in the tail.
        lat = pbstats.latencies([0.0] * 30, [5.0] * 30, [1] * 19 + [2] * 11)
        self.assertEqual(pbstats.tail(lat), INF)


class BacklogTest(unittest.TestCase):
    def test_underloaded_rung_has_flat_backlog(self):
        due = [10.0 * i for i in range(200)]
        done = single_server(due, 5.0)
        status = [1] * len(due)
        self.assertFalse(pbstats.backlog_grows(
            pbstats.outstanding(due, done, status), slack=4))
        s = pbstats.rung_summary(due, done, status, limit_ms=50, slack=4)
        self.assertTrue(s["passes"])
        self.assertAlmostEqual(s["p50_ms"], 5.0)

    def test_overloaded_rung_grows(self):
        due = [10.0 * i for i in range(200)]
        done = single_server(due, 15.0)  # 1.5x the arrival rate
        status = [1] * len(due)
        backlog = pbstats.outstanding(due, done, status)
        self.assertTrue(pbstats.backlog_grows(backlog, slack=4))
        s = pbstats.rung_summary(due, done, status, limit_ms=10_000, slack=4)
        self.assertFalse(s["passes"])  # within the limit, but the backlog grows

    def test_abandoned_requests_count_as_backlog(self):
        due = [10.0 * i for i in range(100)]
        done = [t + 2 for t in due[:50]] + [-1.0] * 50
        status = [1] * 50 + [0] * 50
        self.assertTrue(pbstats.backlog_grows(
            pbstats.outstanding(due, done, status), slack=4))

    def test_tail_over_limit_fails_the_rung(self):
        due = [10.0 * i for i in range(1000)]
        done = [t + (900 if i % 5 == 0 else 3) for i, t in enumerate(due)]
        s = pbstats.rung_summary(due, done, [1] * 1000, limit_ms=500, slack=4)
        self.assertFalse(s["backlog_grows"])
        self.assertFalse(s["passes"])

    def test_max_passing_rate(self):
        self.assertEqual(pbstats.max_passing_rate(
            [10, 25, 50, 100], [True, True, True, False]), 50)
        self.assertEqual(pbstats.max_passing_rate([10, 20], [False, False]), 0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "row", "start_ns": 0, "end_ns": 10_000_000, "parent": -1, "request": -1},
            {"name": "atpg", "start_ns": 0, "end_ns": 7_000_000, "parent": 0, "request": -1},
            {"name": "fill", "start_ns": 7_000_000, "end_ns": 9_000_000, "parent": 0, "request": -1},
            {"name": "row", "start_ns": 10_000_000, "end_ns": 14_000_000, "parent": -1, "request": -1},
            {"name": "atpg", "start_ns": 10_000_000, "end_ns": 13_000_000, "parent": 3, "request": -1},
        ]
        self.assertEqual(pbstats.self_times(spans), [1.0, 7.0, 2.0, 1.0, 3.0])
        per_row = pbstats.per_root_self(spans)
        self.assertEqual(per_row["atpg"], [7.0, 3.0])
        self.assertEqual(per_row["fill"], [2.0, 0.0])

    def test_by_request(self):
        spans = [{"name": "net", "start_ns": 0, "end_ns": 2_000_000, "parent": -1, "request": 4}]
        self.assertEqual(pbstats.by_request(spans, "net"), {4: 2.0})


if __name__ == "__main__":
    unittest.main()
