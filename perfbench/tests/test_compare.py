"""The comparator's verdicts on synthetic result sets."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402
import pbstats  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        change = [x - 10 for x in PARENT]
        v, d = pbstats.verdict(PARENT, change, "lower", 0.1)
        self.assertEqual(v, "gain")
        self.assertEqual(d["wins"], 10)

    def test_higher_is_better(self):
        change = [x + 10 for x in PARENT]
        self.assertEqual(pbstats.verdict(PARENT, change, "higher", 0.1)[0], "gain")
        self.assertEqual(pbstats.verdict(PARENT, change, "lower", 0.2)[0], "same")

    def test_eight_wins_is_no_gain(self):
        change = [x - 10 for x in PARENT]
        change[0] = change[1] = 200.0
        self.assertNotEqual(pbstats.verdict(PARENT, change, "lower", 0.5)[0], "gain")

    def test_small_gap_is_no_gain(self):
        change = [x - 0.01 for x in PARENT]  # wins every pair, gap < IQR
        self.assertEqual(pbstats.verdict(PARENT, change, "lower", 0.1)[0], "same")

    def test_fewer_than_ten_pairs_is_no_gain(self):
        change = [x - 10 for x in PARENT[:9]]
        self.assertEqual(pbstats.verdict(PARENT[:9], change, "lower", 0.2)[0], "same")

    def test_ties_count_for_neither_side(self):
        v, d = pbstats.verdict(PARENT, list(PARENT), "lower", 0.1)
        self.assertEqual((v, d["wins"]), ("same", 0))

    def test_regression_beyond_the_bound(self):
        change = [x * 1.3 for x in PARENT]
        self.assertEqual(pbstats.verdict(PARENT, change, "lower", 0.2)[0], "regression")
        self.assertEqual(pbstats.verdict(PARENT, change, "lower", 0.4)[0], "same")

    def test_wide_spread_is_unresolved(self):
        parent = [50.0, 150.0, 70.0, 130.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = [x * 1.05 for x in parent]
        self.assertEqual(pbstats.verdict(parent, change, "lower", 0.1)[0], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [100.0, 150.0, 120.0, 130.0, 110.0]
        change = [50.0, 60.0, 55.0, 58.0, 52.0]
        self.assertNotEqual(pbstats.verdict(parent, change, "lower", 0.1)[0], "unresolved")


def record(workload, seed, t, value, trace=0, nproc=4, digest="aa"):
    ctx = {"workload": workload, "seed": seed, "trace": trace, "nproc": nproc,
           "backend_w4": "avx2", "compiler": "12", "build_type": "Release",
           "quality": {"dyn_saving_pct": 90.0}, "digest": digest}
    return {"time": t, "context": ctx,
            "end_to_end": {"setup_s": 0.1, "p50_ms": value},
            "metrics": {"atpg.busy_s": {"value": value / 1e3, "unit": "s"}}}


SPEC = {
    "workloads": [{"name": "flow_atpg"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "atpg.busy_s", "unit": "s", "better": "lower"}],
}


class CompareTest(unittest.TestCase):
    def test_rows_quality_and_layers(self):
        parent = [record("flow_atpg", s, 2 * s, v) for s, v in enumerate(PARENT)]
        change = [record("flow_atpg", s, 2 * s + 1, v - 10,
                         digest="bb" if s == 3 else "aa")
                  for s, v in enumerate(PARENT)]
        parent.append(record("flow_atpg", 1, 99, 100.0, trace=1))
        change.append(record("flow_atpg", 1, 100, 80.0, trace=1))
        rows, quality, layers = compare.compare(parent, change, SPEC)
        verdicts = {r["metric"]: r["verdict"] for r in rows}
        self.assertEqual(verdicts, {"setup_s": "same", "p50_ms": "gain"})
        self.assertEqual([(q["seed"], q["field"]) for q in quality], [(3, "digest")])
        self.assertEqual(len(layers), 1)
        self.assertAlmostEqual(layers[0]["delta_pct"], -20.0)

    def test_machine_mismatch_is_detected(self):
        a = [record("flow_atpg", 1, 0, 1.0)]
        b = [record("flow_atpg", 1, 1, 1.0, nproc=8)]
        self.assertEqual(len(compare.machines(a) | compare.machines(b)), 2)


if __name__ == "__main__":
    unittest.main()
