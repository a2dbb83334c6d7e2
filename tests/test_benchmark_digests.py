"""The benchmark's recorded artifact digests, checked from the test suite.

perfbench/fixtures/digests.json holds the sha256 of every artifact the
benchmark's workloads write at its recorded seed. This test writes the same
inputs with perfbench's own helpers, runs each operation once as a cold
`python -m cptalloc` command, and compares the artifacts with those digests,
so a byte change fails here before a benchmark run. Config and output paths
are relative to the working directory, as in perfbench/run.py, because
policy.csv's config hash covers the resolved atom_file path.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", PERFBENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_the_recorded_benchmark_digests(tmp_path):
    ops = load_ops()
    recorded = json.loads((PERFBENCH / "fixtures" / "digests.json").read_text())
    seed, size = recorded["seed"], recorded["size"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    got = {}
    for workload in ops.WORKLOADS:
        work = Path("perfbench", "work", workload)
        workload_ops = ops.workload_ops(workload, size)
        ops.write_inputs(tmp_path / work / "inputs", workload_ops, seed, size)
        for op in workload_ops:
            out = work / "cold0" / op.name
            argv = ops.cli_argv(op, work / "inputs" / op.config, out, seed)
            proc = subprocess.run([sys.executable, "-m", "cptalloc", *argv], cwd=tmp_path, env=env,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            (tmp_path / out).mkdir(parents=True, exist_ok=True)
            (tmp_path / out / "stdout.txt").write_bytes(proc.stdout)
            for artifact in op.artifacts:
                data = (tmp_path / out / artifact).read_bytes()
                got[f"{workload}/{op.name}/{artifact}"] = hashlib.sha256(data).hexdigest()
    assert got == recorded["sha256"]
