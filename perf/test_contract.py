#!/usr/bin/env python3
"""Output-contract test of the benchmark.

    python3 perf/test_contract.py

Runs every workload of BENCHMARK.json at its smallest size, untraced and
traced, and checks the last output line: exactly the keys correct,
attempted, failed and metrics; every end-to-end (untraced) or per-layer
(traced) metric of BENCHMARK.json exactly once, with its unit and a finite
value; end-to-end values non-zero; no failed operation. Also runs the
percentile-guard unit test and checks that run.py fails without printing a
result when only BENCHMARK.json and perf/ are present.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perf"))
import run  # noqa: E402  (perf/run.py: the build step)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def run_workload(cwd, workload, trace):
    cmd = [sys.executable, "perf/run.py", "--workload", workload, "--seed",
           "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class Spec(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class PercentileGuard(unittest.TestCase):
    def test_unit_tests_pass(self):
        build_dir = run.build(("perf_stats_test",))
        out = subprocess.run([str(build_dir / "perf" / "perf_stats_test")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


class Output(unittest.TestCase):
    def check(self, workload, trace):
        out = run_workload(ROOT, workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr)
        last = out.stdout.rstrip("\n").split("\n")[-1]
        result = json.loads(last, object_pairs_hook=no_duplicates)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec))
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = run.BUILD / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run_workload(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
