"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the drivers like run.py does and run every workload at its
benchmark size, a few repetitions each; after the build they take about
two minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        spec = bench_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(workloads, list(run.WORKLOADS))
        for name in names + workloads:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_reported_names_match_the_declared_ones(self):
        spec = bench_spec()
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            correct, _, _, metrics = run.measure("sim-dftt", 5, 0.1, trace)
            self.assertTrue(correct)
            for name in metrics:
                self.assertTrue(NAME.fullmatch(name), name)
            self.assertEqual(
                sorted((name, unit) for name, (_, unit) in metrics.items()),
                sorted((m["name"], m["unit"]) for m in spec[declared]))


class Audit(unittest.TestCase):
    def test_audit_counts_the_injected_false_pair(self):
        # The audit itself must see the pair: the digest and the reference
        # check would fail the run too, and must not be what this tests.
        _, pb_trace = run.build()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                clean = run.run_rep(pb_trace, workload, 3, ["--audit", "1"])
                injected = run.run_rep(pb_trace, workload, 3,
                                       ["--audit", "1",
                                        "--inject-false-pair", "1"])
                self.assertEqual(clean["audit"]["false_pairs"], 0)
                self.assertEqual(injected["audit"]["false_pairs"], 1)
                self.assertTrue(injected["audit"]["exact_matches"])
                self.assertIn("1 false pairs", run.audit_problems(
                    injected, workload, 3, {}))

    def test_injected_false_pair_fails_the_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                correct, attempted, _, _ = run.measure(
                    workload, 3, 0.1, 0, inject_false_pair=True)
                self.assertFalse(correct)
                self.assertGreater(attempted, 0)

    def test_command_exits_nonzero_on_injected_false_pair(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "sim-mq", "--seed", "3", "--seconds", "0.1", "--trace", "0",
             "--inject-false-pair"],
            cwd=run.ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["correct"])

    def test_clean_runs_pass(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                correct, attempted, failed, metrics = run.measure(
                    workload, 3, 0.1, 0)
                self.assertTrue(correct)
                self.assertEqual(failed, 0)
                self.assertEqual(metrics["ok_frac"][0], 1.0)


class TracedRun(unittest.TestCase):
    def test_traced_digest_and_frames_equal_untraced(self):
        pb_run, pb_trace = run.build()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = run.run_rep(pb_run, workload, 11)
                traced = run.run_rep(pb_trace, workload, 11)
                self.assertFalse(plain["traced"])
                self.assertTrue(traced["traced"])
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertTrue(run.same_output(plain, traced))
                self.assertEqual(plain["exact_pairs"], traced["exact_pairs"])
                if not plain["multiprocess"]:
                    self.assertEqual(plain["frames"], traced["frames"])

    def test_layer_self_times_cover_the_traced_wall_time(self):
        _, _, _, metrics = run.measure("sim-mq", 5, 0.1, 1)
        self.assertGreaterEqual(metrics["trace.coverage_frac"][0], 0.9)


if __name__ == "__main__":
    unittest.main()
