"""The benchmark's own tests.

    python3 bench/selftest.py

Runs every workload once at a tiny size, then shows that every check
fails when an output it reads is perturbed: scaled, or reversed along
its last axis.  A check that cannot fail shows nothing.  Also covers the
tracer, the round accounting of ``run.measure``, the metric names in
``BENCHMARK.json`` and the refusal to run without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from refmath import CheckError  # noqa: E402


def _perturbations(value):
    a = np.asarray(value)
    if a.dtype == bool:
        yield "negated", ~a
    elif np.issubdtype(a.dtype, np.integer):
        yield "plus one", a + 1
    else:
        yield "scaled by 1.5", 1.5 * a + 1e-3 * (float(np.max(np.abs(a))) or 1.0)
        if a.ndim and not np.array_equal(np.flip(a, axis=-1), a):
            yield "reversed", np.flip(a, axis=-1).copy()


class BenchTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.work_dir = tempfile.mkdtemp(dir=run.OUT, prefix="selftest-")

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _run_once(self, op):
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            return op.read(op.call(out_dir), out_dir)
        finally:
            shutil.rmtree(out_dir)


class TestChecks(BenchTest):
    def test_every_check_passes_and_catches_perturbed_outputs(self):
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, 3, self.work_dir, tiny=True):
                with self.subTest(op=op.name):
                    outputs = self._run_once(op)
                    op.verify(outputs)
                    for key, value in outputs.items():
                        for how, bad in _perturbations(value):
                            with self.subTest(field=key, perturbation=how):
                                with self.assertRaises(CheckError):
                                    op.verify({**outputs, key: bad})

    def test_same_seed_same_inputs(self):
        a = workloads.build("langevin", 5, self.work_dir, tiny=True)
        b = workloads.build("langevin", 5, self.work_dir, tiny=True)
        c = workloads.build("langevin", 6, self.work_dir, tiny=True)
        ref_a, ref_b, ref_c = (ops[0].reference()[0] for ops in (a, b, c))
        self.assertTrue(np.array_equal(ref_a, ref_b))
        self.assertFalse(np.array_equal(ref_a, ref_c))


class TestMeasure(BenchTest):
    def test_failed_and_wrong_operations_are_counted_apart(self):
        def fail(_):
            raise RuntimeError("program fault")

        def wrong(o, r):
            raise CheckError("wrong")

        ok = workloads.Op("ok", lambda _: None, lambda r, _: {}, lambda: 0, lambda o, r: None)
        failing = workloads.Op("failing", fail, lambda r, _: {}, lambda: 0, lambda o, r: None)
        times, attempted, failed, correct = run.measure([ok, failing], 0.0, self.work_dir)
        self.assertEqual((len(times[0]), attempted, failed, correct), (1, 2, 1, True))
        bad = workloads.Op("bad", lambda _: None, lambda r, _: {}, lambda: 0, wrong)
        self.assertFalse(run.measure([ok, bad], 0.0, self.work_dir)[3])
        self.assertEqual(os.listdir(self.work_dir), [])


class TestTracing(BenchTest):
    def test_spans_cover_from_imports_and_give_every_metric(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = workloads.build("langevin", 0, self.work_dir, tiny=True)
            times = run.measure(ops[:1], 0.0, self.work_dir)[0]
        finally:
            tracer.uninstall()
        from nnkernels import empirical, kernels

        self.assertIs(empirical.ntk_kernel_2layer, kernels.ntk_kernel_2layer)
        self.assertFalse(hasattr(empirical.langevin_train, "__wrapped__"))
        # suggest_step_size calls ntk_kernel_2layer through ``from .kernels import``
        self.assertEqual(tracer.nested_calls("kernels.ntk_kernel_2layer", "empirical.suggest_step_size"), 1)
        stats = tracer.summary()
        self.assertLessEqual(stats["empirical.suggest_step_size"]["self_s"], stats["empirical.suggest_step_size"]["total_s"])
        metrics = tracing.layer_metrics(tracer, 1, run.round_seconds(times))
        self.assertEqual(list(metrics), [m for m, _, _ in tracing.PER_LAYER])
        self.assertGreater(metrics["empirical.langevin_train.us_per_chain_step"]["value"], 0.0)


class TestContract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(m) for m in tracing.PER_LAYER],
        )
        self.assertEqual([m["name"] for m in spec["end_to_end"]], ["setup_s", "wall_s", "peak_rss_mb"])

    def test_refuses_to_run_without_the_package(self):
        run.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.OUT, prefix="bare-"))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "langevin", "--seed", "0", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
