"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each run emits every metric BENCHMARK.json names, with its
unit, that nothing fails at this commit, that a wide mountain window is an
expected refusal rather than a failure, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int, seconds: float = 1.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


class Workloads(unittest.TestCase):
    def check_run(self, workload: str, trace: int, seconds: float):
        proc = bench(ROOT, workload, trace, seconds)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("failed_frac", proc.stdout)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in spec},
        )
        return result["metrics"]

    def test_end_to_end(self):
        for workload in wl.NAMES:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0, 1.0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer(self):
        for workload in wl.NAMES:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1, 2.0)
                if workload == "mountain":
                    self.assertGreater(metrics["render.refusals"]["value"], 0)
                    self.assertGreater(metrics["atlas.mountain_ms"]["value"], 0)
                elif workload != "cli":
                    self.assertGreater(metrics["surgery.contexts_built"]["value"], 0)
                    self.assertGreater(metrics["decorations.busy_ms"]["value"], 0)


class Judging(unittest.TestCase):
    def test_wide_window_is_an_expected_refusal(self):
        from ops import Engine

        plan = wl.Plan("mountain", 7, wl.load_reference())
        i = next(k for k in range(100) if plan.op(k)[4] is not None)
        out = Engine().mountain(*plan.op(i))
        self.assertEqual(out, wl.REFUSED)
        phase = run.Phase()
        phase.outcomes = [(i, out)]
        self.assertEqual(run.judge(plan, phase), [])
        phase.outcomes = [(i, wl.digest("some output"))]
        self.assertEqual(len(run.judge(plan, phase)), 1)

    def test_cold_workloads_do_not_repeat_a_class_within_a_pass(self):
        for name in ("sweep", "long-chain"):
            plan = wl.Plan(name, 7, wl.load_reference())
            first = [tuple(plan.op(i)) for i in range(plan.pass_len)]
            self.assertEqual(len(first), len(set(first)))
            for i in range(3 * plan.pass_len):
                self.assertLessEqual(plan.chunk_end(i), (i // plan.pass_len + 1) * plan.pass_len)

    def test_seed_fixes_the_inputs(self):
        ref = wl.load_reference()
        for name in wl.NAMES:
            a, b, c = (wl.Plan(name, s, ref) for s in (3, 3, 4))
            ops = [[p.op(i) for i in range(200)] for p in (a, b, c)]
            self.assertEqual(ops[0], ops[1])
            self.assertNotEqual(ops[0], ops[2])

    def test_refuses_to_run_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench(bare, "sweep", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
