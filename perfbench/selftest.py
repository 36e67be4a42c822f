#!/usr/bin/env python3
"""Self-test of the benchmark, at seconds-long smoke sizes.

    python3 perfbench/selftest.py

For every workload it checks that

* the untraced run prints every end-to-end metric of BENCHMARK.json
  exactly once, with its unit and a positive value, and reports no failed
  operation;
* the traced run prints every per-layer metric exactly once, with its
  unit;
* the deterministic outputs — the `sim.*` metrics and the digest of the
  round records — are identical at AUTOFL_THREADS=1 and =2, and the
  digest of the traced run equals that of the untraced run.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet_1m", "paper_sweep", "serve_queue"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, trace, threads):
    """Runs one smoke-sized workload; returns (metric pairs, result, digest)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--threads", str(threads), "--smoke",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    # Keep the metrics as a list of pairs, so a repeated name shows.
    result = json.loads(lines[-1], object_pairs_hook=lambda pairs: pairs)
    result = dict(result)
    pairs = [(name, dict(value)) for name, value in result["metrics"]]
    digest = next(l.split()[-1] for l in lines if l.startswith(f"# {workload} digest "))
    return pairs, result, digest


class SelfTest(unittest.TestCase):
    def check_names(self, pairs, spec):
        names = [name for name, _ in pairs]
        for metric in spec:
            self.assertEqual(names.count(metric["name"]), 1, metric["name"])
        self.assertEqual(len(names), len(spec), "no metric beyond BENCHMARK.json")
        units = {name: value["unit"] for name, value in pairs}
        for metric in spec:
            self.assertEqual(units[metric["name"]], metric["unit"], metric["name"])

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                pairs, result, untraced_digest = run(workload, 0, 2)
                self.check_names(pairs, BENCHMARK["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for name, value in pairs:
                    self.assertTrue(math.isfinite(value["value"]) and value["value"] > 0, name)

                sims, digests = {}, {}
                for threads in (1, 2):
                    pairs, result, digests[threads] = run(workload, 1, threads)
                    self.check_names(pairs, BENCHMARK["per_layer"])
                    self.assertTrue(result["correct"])
                    sims[threads] = {n: v["value"] for n, v in pairs if n.startswith("sim.")}
                self.assertEqual(sims[1], sims[2])
                self.assertEqual(digests[1], digests[2])
                self.assertEqual(digests[1], untraced_digest)


if __name__ == "__main__":
    unittest.main()
