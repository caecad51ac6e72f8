#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny-N (--smoke) runs of its three workloads.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names prints with its unit in both
modes, that the correctness checks pass on the default and the held-out
seed, that a deliberately corrupted result trips a named check, and that
run.py fails without printing a result where the library sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HELD_OUT_SEED = 7


def smoke(binary, workload, trace, *extra):
    command = [binary, "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=170)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_every_metric_prints_with_its_unit(self):
        for trace in (0, 1):
            expected = run.expected_metrics(trace)
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = smoke(self.binary, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(run.validate(result, trace), [])
                    self.assertTrue(result["correct"])
                    for name, unit in expected:
                        self.assertTrue(any(line.split()[:1] == [name] and
                                            line.split()[-1] == unit for line in lines),
                                        f"{name} [{unit}] not printed")

    def test_held_out_seed_passes_the_checks(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                done = smoke(self.binary, workload, 1, "--seed", str(HELD_OUT_SEED))
                self.assertEqual(done.returncode, 0, done.stderr)
                self.assertTrue(json.loads(done.stdout.strip().split("\n")[-1])["correct"])

    def test_corrupted_result_trips_a_named_check(self):
        done = smoke(self.binary, "backlog-switch", 0, "--corrupt")
        self.assertEqual(done.returncode, 1)
        self.assertIn("CHECK FAILED [switch_accounting]", done.stderr)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_fails_without_sources(self):
        build_root = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "backlog-switch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
