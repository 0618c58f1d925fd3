"""Self-test of the benchmark.

    python3 perfbench/selftest.py               # everything, about 3 minutes
    python3 perfbench/selftest.py OracleTests   # the oracles alone, seconds

OracleTests hands every oracle a right answer and a deliberately wrong one.
DeclarationTests checks BENCHMARK.json against manifest.json.  RunTests runs
every workload once in each trace mode and checks that the metric names
declared in BENCHMARK.json are exactly the ones emitted, and that a
directory holding only the benchmark makes it fail without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from oracles import Miss  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())


class OracleTests(unittest.TestCase):
    def assertMiss(self, kind, fn, *args):
        with self.assertRaises(Miss) as cm:
            fn(*args)
        self.assertEqual(cm.exception.kind, kind, str(cm.exception))

    def test_quadratic_solve(self):
        x = np.linspace(0.0, 1.0, 65)
        ok = NS(converged=True, J=1e-9)
        oracles.quadratic_solve(ok, x + 1e-3, x)
        self.assertMiss("wrong", oracles.quadratic_solve, NS(converged=True, J=1e-3), x, x)
        self.assertMiss("wrong", oracles.quadratic_solve, ok, x + 0.1, x)
        self.assertMiss("no-converge", oracles.quadratic_solve, NS(converged=False, J=0.0), x, x)

    def test_isoperimetric(self):
        good = dict(converged=True, lam=-2.001, J=1.002, constraint_gap=1e-4)
        oracles.isoperimetric(NS(**good))
        for bad in ({"lam": -1.9}, {"lam": None}, {"J": 1.1}, {"constraint_gap": 1e-2}):
            self.assertMiss("wrong", oracles.isoperimetric, NS(**{**good, **bad}))
        self.assertMiss("no-converge", oracles.isoperimetric, NS(**{**good, "converged": False}))

    def test_stationary(self):
        oracles.stationary(NS(converged=True), 1e-9)
        self.assertMiss("wrong", oracles.stationary, NS(converged=True), 1e-3)
        self.assertMiss("no-converge", oracles.stationary, NS(converged=False), 0.0)

    def test_log_minimizer(self):
        v = np.full(65, oracles.LOG_MINIMIZER_V)
        v[0] = 7.0  # node 0 carries no condition
        oracles.log_minimizer(NS(converged=True), v)
        self.assertMiss("wrong", oracles.log_minimizer, NS(converged=True), v + 1e-2)

    def test_extremal(self):
        oracles.extremal_residual(np.full(10, 1e-3))
        self.assertMiss("wrong", oracles.extremal_residual, np.array([0.0, 0.1]))
        oracles.extremal_functional(2.6e-5, 1 / 1024)
        self.assertMiss("wrong", oracles.extremal_functional, 1e-2, 1 / 1024)
        self.assertMiss("wrong", oracles.extremal_functional, -1e-6, 1 / 1024)

    def test_directional_derivative(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        d = np.array([[0.5, -1.0], [2.0, 0.25]])
        dot = float(np.sum(g * d))
        oracles.directional_derivative(g, d, dot)
        self.assertMiss("wrong", oracles.directional_derivative, g, d, dot + 1e-4)

    def test_excess(self):
        oracles.excess_value(0.25, 0.5, 1.0)
        self.assertMiss("wrong", oracles.excess_value, 0.25 + 1e-6, 0.5, 1.0)

    def test_convexity(self):
        oracles.convexity(NS(convex=True, counterexample=None), True)
        oracles.convexity(NS(convex=False, counterexample=object()), False)
        self.assertMiss("wrong", oracles.convexity, NS(convex=True, counterexample=None), False)
        self.assertMiss("wrong", oracles.convexity, NS(convex=False, counterexample=None), False)

    def test_field(self):
        oracles.field_identities(NS(passed=True))
        self.assertMiss("wrong", oracles.field_identities, NS(passed=False))
        good = dict(trajectory=True, J=0.5003, gap=3e-4)
        oracles.field_minimizer(NS(**good))
        for bad in ({"trajectory": False}, {"J": 0.6}, {"gap": 0.1}):
            self.assertMiss("wrong", oracles.field_minimizer, NS(**{**good, **bad}))

    def test_fixtures(self):
        rows = [{"status": "ok", "distance": d} for d in (0.3, 0.2, 0.1)]
        good = {
            "limit_sweep_classical": {"rows": rows},
            "solve_quadratic": {"J": 1e-19, "converged": True},
            "solve_iso_lambda2": {"J": 1.0, "lambda": -2.0, "constraint_gap": 1e-7,
                                  "converged": True},
            "el_residual_extremal": {"J": 2e-4, "residual_interior_norm": 4e-3,
                                     "config": {"grid": {"n_cells": 128}}},
            "evalop_rlfi": {"result_norm": math.sqrt(2 / math.pi)},
            "functional_zero": {"J": 0.0},
            "certify_convex_mixed": {"convex": True},
            "check_field_halfx": {"identities_pass": True, "trajectory": True,
                                  "value_gap": 2.5e-3},
        }
        wrong = {
            "limit_sweep_classical": {"rows": rows[::-1]},
            "solve_quadratic": {"J": 1e-3, "converged": True},
            "solve_iso_lambda2": {"J": 1.0, "lambda": -1.0, "constraint_gap": 1e-7,
                                  "converged": True},
            "el_residual_extremal": {"J": 2e-4, "residual_interior_norm": 0.5,
                                     "config": {"grid": {"n_cells": 128}}},
            "evalop_rlfi": {"result_norm": 0.8},
            "functional_zero": {"J": 1e-6},
            "certify_convex_mixed": {"convex": False},
            "check_field_halfx": {"identities_pass": True, "trajectory": False,
                                  "value_gap": 2.5e-3},
        }
        self.assertEqual(set(good), set(oracles.FIXTURE_ORACLES))
        for stem in good:
            with self.subTest(stem=stem):
                oracles.fixture(stem, 0, good[stem])
                self.assertMiss("wrong", oracles.fixture, stem, 0, wrong[stem])
                self.assertMiss("wrong", oracles.fixture, stem, 3, good[stem])
        self.assertMiss("no-converge", oracles.fixture, "solve_quadratic", 4,
                        {**good["solve_quadratic"], "converged": False})
        stalled = {"rows": [{**rows[0], "status": "no-converge"}] + rows[1:]}
        self.assertMiss("no-converge", oracles.fixture, "limit_sweep_classical", 0, stalled)

    def test_same_hash(self):
        oracles.same_hash("f", None, "ab" * 32)
        oracles.same_hash("f", "ab" * 32, "ab" * 32)
        self.assertMiss("wrong", oracles.same_hash, "f", "ab" * 32, "cd" * 32)


class DeclarationTests(unittest.TestCase):
    def test_every_metric_is_documented(self):
        self.assertEqual(set(MANIFEST["workloads"]), {w["name"] for w in BENCH["workloads"]})
        for w in MANIFEST["workloads"].values():
            self.assertEqual(set(w["metrics"]), {m["name"] for m in BENCH["end_to_end"]}
                             - {"wall_s", "setup_s", "peak_rss_mib"})
        self.assertEqual(set(MANIFEST["per_layer_moves"]), {m["name"] for m in BENCH["per_layer"]})


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class RunTests(unittest.TestCase):
    def test_declared_metrics_are_emitted(self):
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            units = {m["name"]: m["unit"] for m in declared}
            for w in BENCH["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = _run(ROOT, w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)

    def test_fails_without_the_program(self):
        bare = Path(tempfile.mkdtemp(prefix="bare_", dir=ROOT / ".perfbench"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(bare, BENCH["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    unittest.main()
