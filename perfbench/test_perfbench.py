#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny size (about a minute).

    python3 perfbench/test_perfbench.py

They check that every metric BENCHMARK.json names is printed with its unit,
in the untraced and the traced run, that a tiny run of each workload is
correct, and that a perturbed recorded fingerprint fails the run's
operations.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-tests")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench(workload, trace=0, extra=()):
    """Run the benchmark at tiny size; returns (stdout lines, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def check_metrics(self, lines, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            prefix = f"{m['name']} = "
            printed = [ln for ln in lines if ln.startswith(prefix)]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]),
                            printed[0])

    def test_end_to_end_metrics_every_workload(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                lines, result = bench(w["name"])
                self.check_metrics(lines, result, BENCH["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertIn("(match)", "\n".join(lines))
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_per_layer_metrics_traced_run(self):
        lines, result = bench("queue-storm", trace=1)
        self.check_metrics(lines, result, BENCH["per_layer"])
        self.assertTrue(result["correct"])
        coverage = result["metrics"]["bench.span_coverage"]["value"]
        self.assertGreater(coverage, 0.98)
        self.assertLessEqual(coverage, 1.0)


class FidelityGateTest(unittest.TestCase):
    def test_perturbed_fingerprint_fails_every_operation(self):
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            fps = json.load(f)
        for workload in ("llm-serve", "queue-storm"):
            # Seed 1's first input is pimbench seed 4 (see run.inputs_of).
            fp = fps["tiny"][workload]["4"]
            fps["tiny"][workload]["4"] = \
                ("0" if fp[0] != "0" else "1") + fp[1:]
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "perturbed-fingerprints.json")
        with open(path, "w") as f:
            json.dump(fps, f)
        for workload in ("llm-serve", "queue-storm"):
            with self.subTest(workload=workload):
                lines, result = bench(workload,
                                      extra=["--fingerprints", path])
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("(MISMATCH)", "\n".join(lines))

    def test_unrecorded_seed_checks_invariants_only(self):
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "empty-fingerprints.json")
        with open(path, "w") as f:
            json.dump({}, f)
        lines, result = bench("graph-ingest", extra=["--fingerprints", path])
        self.assertTrue(result["correct"])
        self.assertIn("not recorded", "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
