"""Workloads as sequences of cpt-alloc operations, each run cold or warm.

A cold operation is one `cpt-alloc` command in a fresh interpreter; a warm
operation makes the same call in-process through `cptalloc.cli.run_*`.
Both write their artifacts into a directory of their own, which the checks
in `checks.py` then read.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

ACTIVE, ZERO = "active", "zero"

# Entry point of every cold command: what the `cpt-alloc` console script
# runs, after writing the moment its imports were done to the file named by
# its first argument, so each command also yields a set-up time.
CLI_MAIN = ("import sys, time; from cptalloc.cli import main; "
            "open(sys.argv.pop(1), 'w').write(repr(time.perf_counter())); sys.exit(main())")

# "full" is the size every recorded number refers to. "tiny" only exists so
# the self-test can run each workload in seconds; these keys replace those of
# every config, and it shrinks the demo grids and the generated atom file.
# The demo grids are coarse enough that a run repeats every command several
# times (the cost of a demo grows with the square of its grid).
SIZES = {
    "full": {"config": "", "demo_grid": 31, "four_atom_grid": 21, "large_atoms": 100_000},
    "tiny": {
        "config": "grid_points = 41\ny_nodes = 8\nr_nodes = 4\nn_paths = 200\n",
        "demo_grid": 11,
        "four_atom_grid": 7,
        "large_atoms": 1000,
    },
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    `policy` maps each policy-bearing artifact to the expected policy: ACTIVE
    or ZERO, or for a sweep a dict from grid value to ACTIVE or ZERO. A
    `seeded` operation's output depends on the workload seed.
    """

    name: str
    command: str
    config: str
    options: tuple[tuple[str, str], ...] = ()
    seeded: bool = False
    policy: dict = dataclasses.field(default_factory=dict)

    @property
    def artifacts(self) -> tuple[str, ...]:
        if self.command == "solve":
            return ("policy.csv",)
        if self.command == "simulate":
            return ("policy.csv", "paths.csv", "summary.csv")
        if self.command == "sweep":
            return (f"sweep_{self.option('--param').replace('-', '_')}.csv",)
        if self.command == "demo":
            return ("demo_report.txt",)
        return ("stdout.txt",)  # value prints its result

    def option(self, flag: str) -> str:
        return dict(self.options)[flag]


def workload_ops(workload: str, size: str) -> list[Op]:
    """The operations of one workload round, in the order they run."""
    def demo(grid):
        return ("--r-low", "0"), ("--r-high", "0.5"), ("--demo-grid", str(SIZES[size][grid]))

    workloads = {
        # Solver only: the zero-row short-circuit, the mix_batch kernel and
        # the sweep pool all show here; simulate does no work.
        "sweep_solve": [
            Op("sweep_mu", "sweep", "baseline.cfg",
               (("--param", "mu"), ("--grid", "0.045,0.3,0.6,1.0")),
               policy={"sweep_mu.csv": {"0.045": ZERO, "0.3": ZERO, "0.6": ZERO, "1.0": ACTIVE}}),
            Op("solve_active", "solve", "active_normal.cfg", policy={"policy.csv": ACTIVE}),
            Op("sweep_rate_mode", "sweep", "active_normal.cfg",
               (("--param", "rate-mode"), ("--grid", "fixed,sqrt_t")),
               policy={"sweep_rate_mode.csv": {"fixed": ACTIVE, "sqrt_t": ACTIVE}}),
        ],
        # The per-path loop, per-scalar sampling and the paths.csv formatter.
        "simulate_ensemble": [
            Op("simulate_normal", "simulate", "active_normal.cfg", seeded=True,
               policy={"policy.csv": ACTIVE}),
            Op("simulate_atoms", "simulate", "active_atoms.cfg", seeded=True,
               policy={"policy.csv": ACTIVE}),
        ],
        # Per-call overhead in dist and choquet, plus short commands whose
        # time is mostly interpreter start-up and import.
        "precommit_demo": [
            Op("demo_shipped", "demo", "demo.cfg", demo("demo_grid")),
            Op("demo_four_atoms", "demo", "demo_four_atoms.cfg", demo("four_atom_grid")),
            Op("value_normal", "value", "active_normal.cfg", (("--amount", "2.5"),)),
            Op("value_large_atoms", "value", "large_atoms.cfg", (("--amount", "1.0"),), seeded=True),
        ],
    }
    return workloads[workload]


WORKLOADS = ("sweep_solve", "simulate_ensemble", "precommit_demo")


def write_inputs(inputs: Path, ops: list[Op], seed: int, size: str) -> None:
    """Copy the fixtures the operations use into `inputs`, sized, and
    generate the seed-dependent large atom file."""
    import numpy as np

    inputs.mkdir(parents=True, exist_ok=True)
    extra = SIZES[size]["config"]
    resized = {ln.split("=")[0].strip() for ln in extra.splitlines()}
    for cfg in sorted({op.config for op in ops}):
        lines = (FIXTURES / cfg).read_text().splitlines(keepends=True)
        kept = [ln for ln in lines if ln.startswith("#") or ln.split("=")[0].strip() not in resized]
        (inputs / cfg).write_text("".join(kept) + extra)
    for csv_file in FIXTURES.glob("*.csv"):
        shutil.copyfile(csv_file, inputs / csv_file.name)
    if any(op.config == "large_atoms.cfg" for op in ops):
        n = SIZES[size]["large_atoms"]
        rng = np.random.default_rng(seed)
        values = 0.05 + 0.3 * rng.standard_normal(n)
        rows = "".join(f"{v!r},{1.0 / n!r}\n" for v in values.tolist())
        (inputs / "large_atoms.csv").write_text("value,probability\n" + rows)


def cli_argv(op: Op, config: Path, out: Path, seed: int) -> list[str]:
    argv = [op.command, "--config", str(config)]
    for flag, value in op.options:
        argv += [flag, value]
    if op.command == "simulate":
        argv += ["--seed", str(seed)]
    if op.command != "value":
        argv += ["--out", str(out)]
    return argv


@dataclass
class ColdResult:
    start: float  # time.perf_counter() just before the child was started
    wall_s: float
    returncode: int
    maxrss_mb: float


class Launcher:
    """Client of launcher.py, which starts and reaps every child process.

    Start it before this process loads numpy or cptalloc, so the launcher
    forks from a small process too.
    """

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> ColdResult:
        req = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        return ColdResult(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def value_text(result) -> str:
    """What `cpt-alloc value` prints for a CptValue."""
    return (f"value = {result.value:.17g}\n"
            f"gain_part = {result.gain_part:.17g}\n"
            f"loss_part = {result.loss_part:.17g}\n")


def run_warm(cli, op: Op, config: Path, out: Path, seed: int) -> float:
    """Make the operation's call in-process; returns its wall time.

    Config loading is timed, as a cold command pays it too; writing the
    value command's stdout.txt is not.
    """
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    cfg = cli.load_config(config)
    result = None
    if op.command == "solve":
        cli.run_solve(cfg, str(out))
    elif op.command == "simulate":
        cli.run_simulate(dataclasses.replace(cfg, seed=seed), str(out))
    elif op.command == "sweep":
        grid = [v.strip() for v in op.option("--grid").split(",") if v.strip()]
        cli.run_sweep(cfg, op.option("--param"), grid, str(out))
    elif op.command == "value":
        result = cli.run_value(cfg, float(op.option("--amount")))
    elif op.command == "demo":
        cli.run_demo(cfg, float(op.option("--r-low")), float(op.option("--r-high")),
                     int(op.option("--demo-grid")), str(out))
    else:
        raise ValueError(f"unknown command {op.command!r}")
    wall = time.perf_counter() - t0
    if result is not None:
        (out / "stdout.txt").write_text(value_text(result))
    return wall


def warm_up(cli, inputs: Path, out: Path) -> None:
    """One small solve, so lazy imports and first-call set-up are paid
    before any warm operation is timed."""
    config = inputs / "warm_up.cfg"
    config.write_text("horizon = 2\ngrid_points = 11\ny_nodes = 4\nr_nodes = 2\n")
    cli.run_solve(cli.load_config(config), str(out))
