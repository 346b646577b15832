"""Smoke configuration: every workload, untraced and traced, in seconds.

Builds the benchmark on first use (into $CARGO_TARGET_DIR or .bench_build
under the repository root), so the first run takes about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import pbstats  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(args, cwd=ROOT, timeout=900):
    cmd = [sys.executable, os.path.join(os.path.relpath(BENCH_DIR, ROOT), "run.py")]
    return subprocess.run(cmd + args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        r = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        self.assertEqual(list(result["metrics"]), names)
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return result["metrics"]

    def test_flow_atpg(self):
        self.check("flow_atpg", 0)
        layers = self.check("flow_atpg", 1)
        self.assertGreater(layers["atpg.busy_s"]["value"], 0)

    def test_flow_power(self):
        self.check("flow_power", 0)
        layers = self.check("flow_power", 1)
        self.assertEqual(layers["atpg.busy_s"]["value"], 0)  # ATPG bypassed
        self.assertGreater(layers["power_eval.busy_s"]["value"], 0)

    def test_diag_serve(self):
        self.check("diag_serve", 0)
        layers = self.check("diag_serve", 1)
        self.assertEqual(layers["atpg.busy_s"]["value"], 0)
        self.assertGreater(layers["diagnose.full_ms"]["value"], 0)

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark directory: no result, exit != 0.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, os.path.basename(BENCH_DIR)),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run(["--workload", "flow_atpg", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=tmp, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


class ConfigTest(unittest.TestCase):
    def test_nominal_rung_tail_is_p90(self):
        with open(os.path.join(BENCH_DIR, "config.json")) as f:
            c = json.load(f)["diag_serve"]
        k = c["nominal_index"]
        n = round(c["ladder_rps"][k] * SPEC["run_seconds"] * c["rung_shares"][k])
        self.assertEqual(n, 100)
        self.assertAlmostEqual(pbstats.tail_percentile(n), 90.0)


if __name__ == "__main__":
    unittest.main()
