#!/usr/bin/env python3
"""Self-tests of the benchmark, on the tiny inputs of `--smoke`.

    python3 perfbench/selftest.py

Run from the root of a checkout. Scratch files go under `.perfbench/`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload, trace=False, seed=0, **kwargs):
    return run.run(ROOT, workload, seed, 0.0, trace, smoke=True, **kwargs)


class SpecTest(unittest.TestCase):
    def test_spec_names_the_metrics_and_workloads_the_code_emits(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class SmokeRunTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = smoke(workload, trace)
                    self.assertTrue(r["correct"], r["notes"]["failures"])
                    self.assertTrue(r["notes"]["golden_checked"])
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
                    for name, m in r["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    self.assertEqual(set(r["env"]), {"python", "nproc", "DOMSET_KERNEL", "backend"})

    def test_traced_outputs_match_the_untraced_ones(self):
        r = smoke("exact_check", trace=True)
        self.assertGreaterEqual(r["notes"]["passes"], 2)
        self.assertTrue(r["correct"], r["notes"]["failures"])

    def test_wrong_golden_digest_is_a_failed_op(self):
        bad = list(run.load_golden(True, "exact_check", 0))
        bad[3] = "0" * len(bad[3])
        r = smoke("exact_check", golden=bad)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["notes"]["passes"])
        self.assertIn("digest", r["notes"]["failures"][0])

    def test_invalid_result_is_a_failed_op(self):
        def empty_classical(mods):
            real = mods.solvers.solve_classical

            def broken(g, targets=None):
                return dataclasses.replace(real(g, targets), dominating_set=())
            mods.solvers.solve_classical = broken

        # A seed without committed digests, so the domination check alone
        # has to catch the injected result.
        r = smoke("large_sparse", seed=12345, after_setup=empty_classical)
        classical_ops = 4  # one per sparse graph
        self.assertEqual(r["failed"], classical_ops * r["notes"]["passes"])
        self.assertTrue(all("does not dominate" in f for f in r["notes"]["failures"]))

    def test_raising_op_is_a_failed_op(self):
        def raising_auto(mods):
            def broken(g, targets=None):
                raise RuntimeError("injected")
            mods.solvers.solve_auto = broken

        r = smoke("large_sparse", after_setup=raising_auto)
        auto_ops = 4  # one per sparse graph
        self.assertEqual(r["failed"], auto_ops * r["notes"]["passes"])
        self.assertTrue(all("injected" in f for f in r["notes"]["failures"]))


class SpeedTest(unittest.TestCase):
    def test_scaled_times_are_measured_times_at_the_nominal_speed(self):
        r = smoke("large_sparse")
        self.assertEqual(speed.kernel(), speed.PICKS)
        scale = speed.REF_S / (r["notes"]["kernel_ms"] / 1e3)
        measured, scaled = r["notes"]["measured"]["wall_s"], r["metrics"]["wall_s"]["value"]
        # Each op has its own scale, from the kernel runs around it.
        self.assertLess(abs(scaled / measured / scale - 1), 0.5)

    def test_scale_comes_from_the_kernel_runs_around_the_op(self):
        s = speed.Speed()
        s.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        s.samples = [speed.REF_S * k for k in (9, 2, 2, 9, 2, 2, 9)]
        # Kernel runs are named by the time they ended.
        self.assertEqual(s.scale(3.0, 3.9), 0.5)      # runs 2, 3 | 4, 5
        self.assertEqual(s.scale(3.5, 4.5), 0.5)      # runs 2, 3 | 5, 6
        self.assertAlmostEqual(s.scale(0.5, 0.6), 1 / 5.5)  # none | 1, 2
        self.assertEqual(s.scale(6.5, 9.0), 0.5)      # runs 5, 6 | none


class CommandTest(unittest.TestCase):
    def setUp(self):
        self.scratch = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def bench(self, cwd, *args):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact_check", "--seed", "0",
             "--seconds", "0", *args],
            cwd=cwd, capture_output=True, text=True, timeout=120)

    def test_last_line_is_the_result_object(self):
        proc = self.bench(ROOT, "--trace", "0", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])

    def test_refuses_to_run_without_the_sources(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.scratch)
        shutil.copytree(HERE, self.scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = self.bench(self.scratch, "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_compare_refuses_different_backends(self):
        rec = {"workload": "exact_check", "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        paths = []
        for backend in ("python", "c"):
            path = self.scratch / f"{backend}.jsonl"
            path.write_text(json.dumps({**rec, "env": {"backend": backend}}) + "\n")
            paths.append(str(path))
        self.assertEqual(compare.main(["diff", *paths]), 2)


class TraceMathTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ["cli.main", 0.0, 10.0, -1, "0:0", None],
            ["graph.parse_graph", 1.0, 4.0, 0, "0:0", None],
            ["graph.validate", 2.0, 3.5, 1, "0:0", None],
            ["solvers.solve_auto", 5.0, 9.0, 0, "0:0", None],
        ]
        total, own = tracer.layer_times(spans, 0, len(spans))
        self.assertEqual(total["graph.parse_graph"], 3.0)
        self.assertEqual(own["graph.parse_graph"], 1.5)
        self.assertEqual(own["cli.main"], 3.0)
        self.assertEqual(own["solvers.solve_auto"], 4.0)

    def test_tail_keeps_ten_values_beyond_it(self):
        values = list(range(100))
        self.assertEqual(run.tail(values), (89, 90.0))
        self.assertEqual(run.tail(list(range(21)))[0], 10)
        self.assertEqual(run.tail(list(range(20))), (19, 100.0))
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0))


if __name__ == "__main__":
    unittest.main()
