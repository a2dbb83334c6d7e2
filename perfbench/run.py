"""cptalloc benchmark: cold-CLI and warm-library timings, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_solve --seed 1 --seconds 20 --trace 0

One process generates the inputs from --seed, then runs the
workload's operations in a closed loop: each starts only after the previous
one has ended. Outputs are checked after every operation (see checks.py).

--trace 0 reports the end-to-end metrics, each at the reference speed of
the host's cores (see measure):
  wall_s       wall time of the workload's command sequence, each command a
               fresh `cpt-alloc` process, import included: the sum over the
               commands of each one's median
  setup_s      median time from starting a command's interpreter until
               cptalloc is imported, over every command of the run
  warm_s       the same calls made in-process through cptalloc.cli.run_*,
               after import and one warm-up call: the sum of their medians
  peak_rss_mb  largest peak resident set of any workload command
--trace 1 reports the per-layer metrics of tracing.py from a traced warm
round, the import breakdown from `-X importtime`, and trace_overhead_frac.

Work repeats until --seconds is used up, the whole sequence at least once;
a run starts nothing that would end later than --seconds after its start,
unless the first pass alone takes longer. The last line
of stdout is the result JSON; the lines before it record the environment
and per-operation details. The exit code is 2 if the checkout has no
cptalloc sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402

# Load comes from this process and at most the sweep pool's two threads; BLAS
# would otherwise add threads of its own on top of those, on two cores.
PINNED_ENV = {
    "CPT_ALLOC_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
OP_TIMEOUT_S = 170.0  # a run must end within 180 s


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(lib) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cptalloc": lib.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ[k] for k in PINNED_ENV},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run of one workload: inputs, counters and checks."""

    def __init__(self, workload: str, seed: int, size: str, t0: float):
        self.workload, self.seed, self.size, self.t0 = workload, seed, size, t0
        self.ops = ops.workload_ops(workload, size)
        self.work = HERE / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.launcher = ops.Launcher(child_env(self.work))
        self.inputs = self.work / "inputs"
        ops.write_inputs(self.inputs, self.ops, seed, size)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.lib = None
        self.cfgs = {}

    def timeout(self) -> float:
        return max(1.0, OP_TIMEOUT_S - (time.perf_counter() - self.t0))

    def config(self, op: ops.Op) -> Path:
        # Relative to the checkout root, the working directory of every call,
        # so the config hash inside policy.csv does not depend on where the
        # checkout lives.
        return (self.inputs / op.config).relative_to(ROOT)

    def record(self, op: ops.Op, label: str, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{label} {op.name}: {f}" for f in failures]

    def import_cptalloc(self, *flags: str) -> str:
        """A cold `import cptalloc`; returns its stderr."""
        out, err = self.work / "import.stdout", self.work / "import.stderr"
        res = self.launcher.run([sys.executable, *flags, "-c", "import cptalloc"], out, err,
                                self.timeout())
        stderr = err.read_text()
        if res.returncode != 0:
            raise RuntimeError(f"import cptalloc failed: {stderr.strip()[-300:]}")
        return stderr

    def load_library(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        import cptalloc
        import cptalloc.cli

        from checks import load_digests

        self.lib = cptalloc
        ref = load_digests()
        self.digests_all = ref["sha256"] if self.size == ref["size"] else None
        self.digests_seeded = self.digests_all if self.seed == ref["seed"] else None
        ops.warm_up(cptalloc.cli, self.inputs, self.work / "warm_up")

    def content_failures(self, op: ops.Op, out: Path) -> list[str]:
        """Full checks of an operation's output directory."""
        from checks import check_digests, check_outputs

        cfg = self.cfgs.setdefault(op.config, self.lib.cli.load_config(self.config(op)))
        digests = self.digests_seeded if op.seeded else self.digests_all
        return check_outputs(op, out, cfg, self.lib) + check_digests(self.workload, op, out, digests)

    def cold_op(self, op: ops.Op, k: int) -> tuple[ops.ColdResult, float | None]:
        """Run the command cold into work/cold<k>; fully check its outputs
        the first time, then compare them byte for byte with cold0. Also
        returns the command's set-up time, None if it did not get that far."""
        from checks import check_cold_status, check_same

        out = (self.work / f"cold{k}" / op.name).relative_to(ROOT)
        out.mkdir(parents=True)
        imported = self.work / f"cold{k}" / f"{op.name}.imported"
        argv = [sys.executable, "-c", ops.CLI_MAIN, str(imported),
                *ops.cli_argv(op, self.config(op), out, self.seed)]
        res = self.launcher.run(argv, out / "stdout.txt", out / "stderr.txt", self.timeout())
        failures = check_cold_status(op, out, res.returncode, (out / "stderr.txt").read_text())
        if not failures:
            failures = (self.content_failures(op, out) if k == 0
                        else check_same(op, out, self.work / "cold0" / op.name))
        self.record(op, f"cold{k}", failures)
        setup = float(imported.read_text()) - res.start if imported.is_file() else None
        return res, setup

    def warm_op(self, op: ops.Op, label: str, ref: str | None) -> float:
        """Make the call warm into work/<label>; compare its outputs byte for
        byte with those in work/<ref>, or fully check them when ref is None."""
        from checks import check_same

        out = (self.work / label / op.name).relative_to(ROOT)
        t0 = time.perf_counter()
        try:
            elapsed = ops.run_warm(self.lib.cli, op, self.config(op), out, self.seed)
        except Exception as exc:  # an operation failure, counted and reported
            self.record(op, label, [f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0
        self.record(op, label, check_same(op, out, self.work / ref / op.name) if ref
                    else self.content_failures(op, out))
        return elapsed

    def warm_round(self, label: str, ref: str | None) -> float:
        return sum(self.warm_op(op, label, ref) for op in self.ops)


# About the reference task's time on a quiet core of the machine the
# benchmark was defined on (2 vCPUs of a shared Intel Xeon host, Python 3.11,
# numpy 2.4). Metrics are only compared between runs on one machine, so the
# exact value does not matter; it keeps them near seconds.
REFERENCE_S = 0.01


def reference_time() -> float:
    """Time a fixed mix of interpreter, numpy and formatting work, the kinds
    of work cptalloc does. It uses nothing from the checkout, so its time
    changes only with the speed the host gives the core it runs on."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    a = np.arange(100_000.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    ",".join(f"{x!r}" for x in a[:5_000].tolist())
    return time.perf_counter() - t0


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """--trace 0: end-to-end metrics and per-operation details.

    The operations cycle through the workload, each as the cold command and
    then the warm call, until the next one would end more than `seconds`
    after the run started. wall_s and warm_s sum the operations' median
    times, so a partial last cycle still counts.

    The host is shared, and how fast it runs this machine's cores drifts by
    up to a factor of two over seconds and minutes, so raw times of the same
    code differ by that much from run to run. The reference task therefore runs
    between every two timed steps, and each step's time is scaled by
    REFERENCE_S over the mean of the reference times just before and just
    after it. The medians of those scaled times are what a change to
    cptalloc moves, and the host's drift cancels out of them. The details
    hold the scaled times and every reference time.
    """
    run.load_library()  # also fills the bytecode cache before any cold command
    cold = {op.name: [] for op in run.ops}
    warm = {op.name: [] for op in run.ops}
    setup, rss, last = [], 0.0, {}
    refs = [reference_time()]

    def speed() -> float:
        """REFERENCE_S over the mean reference time around the step just
        timed; the new reference time also opens the next step."""
        refs.append(reference_time())
        return REFERENCE_S / ((refs[-2] + refs[-1]) / 2)

    i = 0
    while True:
        op, k = run.ops[i % len(run.ops)], i // len(run.ops)
        if op.name in last and time.perf_counter() - run.t0 + last[op.name] > seconds:
            break
        t = time.perf_counter()
        res, setup_s = run.cold_op(op, k)
        factor = speed()
        if setup_s is not None:
            setup.append(setup_s * factor)
        cold[op.name].append(res.wall_s * factor)
        rss = max(rss, res.maxrss_mb)
        warm_s = run.warm_op(op, f"warm{k}", "cold0")
        warm[op.name].append(warm_s * speed())
        last[op.name] = time.perf_counter() - t
        i += 1
    metrics = {
        "wall_s": (sum(statistics.median(v) for v in cold.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "warm_s": (sum(statistics.median(v) for v in warm.values()), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, {"ops_run": i, "cold_s": cold, "warm_s": warm, "setup_s": setup,
                     "reference_s": refs}


def rounds(seconds: float, start: float, body) -> int:
    """Call body(k) for k = 0, 1, ... until another round, as long as the
    last one, would end more than `seconds` after `start`."""
    k = 0
    while True:
        r0 = time.perf_counter()
        body(k)
        k += 1
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return k


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """--trace 1: per-layer metrics from traced warm rounds."""
    from tracing import Tracer, import_breakdown, layer_metrics, traced

    run.load_library()  # also fills the bytecode cache before any cold import
    parts = [import_breakdown(run.import_cptalloc("-X", "importtime")) for _ in range(3)]
    workers = run.lib.cli.worker_count()

    plain, traced_s, layers = [], [], []

    def body(k):
        plain.append(run.warm_round(f"warm{k}", "warm0" if k else None))
        tracer = Tracer()
        with traced(tracer):
            traced_s.append(run.warm_round(f"traced{k}", "warm0"))
        layers.append(layer_metrics(tracer, workers))
        files = [run.work / f"traced{k}" / op.name / a
                 for op in run.ops if op.command != "value" for a in op.artifacts]
        layers[-1]["cli.artifact_bytes"] = (sum(f.stat().st_size for f in files if f.is_file()), "bytes")

    n = rounds(seconds, run.t0, body)
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    for group, label in (("numpy", "numpy"), ("scipy.special", "scipy_special"),
                         ("scipy.integrate", "scipy_integrate"), ("cptalloc", "cptalloc_own")):
        metrics[f"setup.{label}_s"] = (statistics.median(p[group] for p in parts), "s")
    warm, warm_traced = statistics.median(plain), statistics.median(traced_s)
    metrics["trace_overhead_frac"] = ((warm_traced - warm) / warm, "ratio")
    details = {"rounds": n, "warm_s": plain, "warm_traced_s": traced_s,
               "self_s_total": [sum(v for k, (v, _) in m.items() if k.endswith(".self_s")
                                    or k in ("cli.run_self_s", "cli.load_config_s"))
                                for m in layers]}
    return metrics, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(ops.SIZES), default="full",
                   help="input size; 'tiny' is for the self-test only")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    t0 = time.perf_counter()
    os.environ.update(PINNED_ENV)  # before anything loads numpy or BLAS
    if not (ROOT / "src" / "cptalloc" / "__init__.py").is_file():
        print(f"no cptalloc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run = Run(args.workload, args.seed, args.size, t0)
    try:
        if args.trace:
            metrics, details = measure_traced(run, args.seconds)
        else:
            metrics, details = measure(run, args.seconds)
    finally:
        run.launcher.close()

    details["failures"] = run.failures
    details["failed_frac"] = run.failed / run.attempted
    print(json.dumps({"env": environment(run.lib), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
