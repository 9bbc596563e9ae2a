"""Self-tests of the benchmark harness.  They touch no test of the library.

Run from the repository root (about a minute on two cores):

    python3 bench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

run.import_library()

from riskquad import fem, ouu  # noqa: E402

from tracer import Tracer, library_modules  # noqa: E402
from workloads import WORKLOADS, build, same_outputs  # noqa: E402


def snapshot():
    """Every attribute of the riskquad modules and of the classes they define."""
    snap = {}
    for name, mod in library_modules().items():
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, obj in vars(value).items():
                    snap[(name, attr, member)] = obj
    return snap


def assert_same_snapshot(test, before, after):
    test.assertEqual(before.keys(), after.keys())
    changed = [k for k in before if before[k] is not after[k]]
    test.assertEqual(changed, [])


def bench(workload, seed, trace):
    """Run the benchmark command and return its result line."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class WrapperTests(unittest.TestCase):
    def test_install_patches_and_restores_every_binding(self):
        before = snapshot()
        solve = fem.SpdSolver.solve
        kernel = ouu.weighted_stiffness_apply
        with Tracer().installed():
            self.assertIsNot(fem.SpdSolver.solve, solve)
            self.assertIsNot(ouu.weighted_stiffness_apply, kernel)
            self.assertIs(ouu.weighted_stiffness_apply, fem.weighted_stiffness_apply)
        assert_same_snapshot(self, before, snapshot())

    def test_restores_after_an_error(self):
        before = snapshot()
        with self.assertRaises(ZeroDivisionError):
            with Tracer().installed():
                1 / 0
        assert_same_snapshot(self, before, snapshot())


class OutputTests(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_identical(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                tracer = Tracer()
                setup = build(register=tracer.register)
                plain = workload.run(setup, 0)
                with tracer.installed():
                    traced = workload.run(setup, 0)
                self.assertTrue(same_outputs(plain, traced))
                self.assertGreater(sum(tracer.ledger().values()), 0)
                self.assertEqual(tracer.identity_violations, 0)


class RunTests(unittest.TestCase):
    def test_count_metrics_repeat_exactly(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = bench(name, 5, 1), bench(name, 5, 1)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(
                    {m: first["metrics"][m]["value"] for m in counts},
                    {m: second["metrics"][m]["value"] for m in counts},
                )

    def test_fails_without_the_library(self):
        scratch = run.ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, f"{tmp}/{run.BENCH.name}",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                 "mc-risk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
