"""Self-test of the benchmark, at the tiny input size.

    python3 perfbench/selftest.py

Takes about a minute: it runs every workload with and without tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import run  # noqa: E402
from tracing import import_breakdown  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    """Each workload emits every declared metric with its unit, and the
    per-layer numbers show the split between workloads."""

    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in ops.WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = tiny(workload, trace)

    def test_every_metric_with_its_unit(self):
        for (workload, trace), (_, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 {m["name"]: m["unit"] for m in declared})

    def layer(self, workload: str, name: str) -> float:
        return self.results[workload, 1][1]["metrics"][name]["value"]

    def test_workload_split(self):
        self.assertEqual(self.layer("precommit_demo", "solver.recursion_step_calls"), 0)
        for w in ("sweep_solve", "precommit_demo"):
            self.assertEqual(self.layer(w, "simulate.simulate_paths_s"), 0)
        for w in ("sweep_solve", "simulate_ensemble"):
            self.assertEqual(self.layer(w, "simulate.inconsistency_demo_s"), 0)
        self.assertGreater(self.layer("sweep_solve", "solver.zero_row_share"), 0)
        self.assertEqual(self.layer("simulate_ensemble", "solver.zero_row_share"), 0)
        self.assertGreater(self.layer("sweep_solve", "cli.sweep_pool_eff"), 0)

    def test_layer_self_times_add_up_to_warm_time(self):
        for workload in ops.WORKLOADS:
            details, result = self.results[workload, 1]
            with self.subTest(workload=workload):
                (warm,), (self_total,) = details["warm_s"], details["self_s_total"]
                overhead = result["metrics"]["trace_overhead_frac"]["value"]
                self.assertLessEqual(abs(self_total / warm - 1.0), abs(overhead) + 0.02)


class Failures(unittest.TestCase):
    def test_corrupted_artifact_is_a_failed_operation(self):
        real = ops.Launcher.run

        def corrupting(self, argv, stdout, stderr, timeout):
            res = real(self, argv, stdout, stderr, timeout)
            paths = stdout.parent / "paths.csv"
            if paths.is_file():  # nudge one wealth value
                lines = paths.read_text().splitlines(keepends=True)
                f = lines[2].split(",")
                f[2] = repr(float(f[2]) + 1.0)
                lines[2] = ",".join(f)
                paths.write_text("".join(lines))
            return res

        stdout = io.StringIO()
        with mock.patch.object(ops.Launcher, "run", corrupting), contextlib.redirect_stdout(stdout):
            run.main(["--workload", "simulate_ensemble", "--seed", "3", "--seconds", "1",
                      "--size", "tiny"])
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = HERE / "work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "sweep_solve", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class ImportBreakdown(unittest.TestCase):
    def test_groups_partition_the_import(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |   site",
            "import time:       100 |        100 |     numpy",
            "import time:        30 |         30 |         scipy.special",
            "import time:         5 |          5 |           scipy._lib",
            "import time:        20 |         55 |       scipy.integrate",
            "import time:         7 |        162 |     cptalloc.choquet",
            "import time:         3 |        165 |   cptalloc",
        ])
        self.assertEqual(import_breakdown(log), {
            "numpy": 100e-6, "scipy.special": 30e-6, "scipy.integrate": 25e-6, "cptalloc": 10e-6})


if __name__ == "__main__":
    unittest.main()
