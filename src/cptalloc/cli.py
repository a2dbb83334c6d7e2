"""Batch front-end: flat key=value configs, solve/simulate/sweep/value/demo.

Every command is a pure function of (config, seed): repeated runs write
byte-identical artifacts. Exit codes: 0 success; 1 config error, which
includes any ValueError the library raises on an input it rejects; 2 numerical
failure, such as a prospect value that overflows float64.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import gc
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .choquet import CptValue, cpt_scaled_position
from .dist import (
    DeterministicRate,
    DiscreteEmpirical,
    Distribution,
    GaussianSqrtTRate,
    Normal,
    RateModel,
)
from .errors import ConfigError, NumericalError
from .prefs import CptPreferences
from .solver import Constraints, PolicyTable, SolverSettings, backward_induction
# run_simulate and run_demo import simulate themselves: no other command compiles it.

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "config_hash",
    "run_solve",
    "run_simulate",
    "run_sweep",
    "run_value",
    "run_demo",
    "main",
]

RATE_MODES = ("fixed", "sqrt_t")
# Bounds every command's horizon, and so a solve's time: a period that the
# kernel solves takes about 8 ms at the default grid and nodes, and
# solver.MAX_TENSOR admits 16 times that work per period. It bounds work, not
# memory: the kernel holds one row block of the tensor at a time.
MAX_HORIZON = 1_000
# Bounds the simulated ensemble (and paths.csv, ~75 bytes per step) before
# anything is solved or allocated: 20 times the default 10000 paths x 10 periods.
MAX_PATH_STEPS = 2_000_000


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; defaults encode the baseline calibration."""

    alpha: float = 0.88
    lam: float = 2.20
    gamma: float = 0.61  # documented default; override with the gamma key
    delta: float = 0.69
    lo_frac: float = -5.0
    hi_frac: float = 5.0
    mu: float | tuple = 0.045  # scalar, or one value per period
    sigma: float | tuple = 1.69
    atom_file: str | None = None
    rate_model: str = "sqrt_t"
    rate: float | None = None
    rate_base: float = 0.03
    rate_vol: float = 0.003
    horizon: int = 10
    w0: float = 0.8
    grid_points: int = SolverSettings.grid_points
    z_tol: float = SolverSettings.z_tol
    y_nodes: int = SolverSettings.y_nodes
    r_nodes: int = SolverSettings.r_nodes
    cdf_tol: float = SolverSettings.cdf_tol
    n_paths: int = 10000
    seed: int = 42
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # Finiteness is checked per float key so the message names it. Every
        # range rule lives in the domain constructors built below.
        for key in _FLOAT_KEYS:
            val = getattr(self, _SCHEMA[key][0])
            vals = val if isinstance(val, tuple) else (val,)
            _require(all(v is None or np.isfinite(v) for v in vals), f"{key} must be finite")
        _require(self.rate_model in RATE_MODES, f"rate_model must be one of {RATE_MODES}")
        if self.rate_model == "fixed":
            _require(self.rate is not None, "missing required key: rate (needed when rate_model = fixed)")
        _require(1 <= self.horizon <= MAX_HORIZON, f"horizon must be in [1, {MAX_HORIZON}]")
        for key in ("mu", "sigma"):
            val = getattr(self, key)
            if isinstance(val, tuple):
                _require(
                    len(val) == self.horizon,
                    f"{key} schedule must have one value per period (horizon = {self.horizon})",
                )
        try:
            self.preferences()
            self.constraints()
            self.solver_settings()
            self._normals()
            GaussianSqrtTRate(self.rate_base, self.rate_vol)
            if self.rate is not None:
                DeterministicRate(self.rate)
        except ValueError as exc:
            # Domain messages use the domain's parameter names; report the keys.
            raise ConfigError(_DOMAIN_NAME.sub(lambda m: _KEY_OF[m[0]], str(exc))) from exc
        _require(self.n_paths >= 1, "n_paths must be >= 1")
        _require(self.seed >= 0, "seed must be >= 0")
        _require(bool(self.out_dir), "out_dir must be non-empty")

    def preferences(self) -> CptPreferences:
        return CptPreferences(self.alpha, self.lam, self.gamma, self.delta)

    def constraints(self) -> Constraints:
        return Constraints(self.lo_frac, self.hi_frac)

    def y_schedule(self) -> list[Distribution]:
        """One return distribution per period; stationary unless scheduled."""
        # An atom file, when set, takes precedence over mu/sigma.
        if self.atom_file is not None:
            try:
                return [DiscreteEmpirical.from_csv(self.atom_file)] * self.horizon
            except (OSError, ValueError) as exc:
                raise ConfigError(f"atom_file: {exc}") from exc
        normals = self._normals()
        return normals if len(normals) == self.horizon else normals * self.horizon

    def _normals(self) -> list[Normal]:
        """The mu/sigma return laws: one per period if either is a schedule, else one."""
        n = self.horizon if isinstance(self.mu, tuple) or isinstance(self.sigma, tuple) else 1
        mus = self.mu if isinstance(self.mu, tuple) else (self.mu,) * n
        sigmas = self.sigma if isinstance(self.sigma, tuple) else (self.sigma,) * n
        return [Normal(m, s) for m, s in zip(mus, sigmas)]

    def y_distribution(self) -> Distribution:
        """The first period's return distribution (value and demo commands)."""
        return self.y_schedule()[0]

    def rate_model_obj(self) -> RateModel:
        if self.rate_model == "fixed":
            return DeterministicRate(self.rate)
        return GaussianSqrtTRate(self.rate_base, self.rate_vol)

    def solver_settings(self) -> SolverSettings:
        return SolverSettings(
            grid_points=self.grid_points,
            z_tol=self.z_tol,
            y_nodes=self.y_nodes,
            r_nodes=self.r_nodes,
            cdf_tol=self.cdf_tol,
        )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _float_or_schedule(s: str):
    if "," not in str(s):  # a number from a Python sweep grid is one value
        return float(s)
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty schedule")
    return tuple(float(p) for p in parts)


# Domain parameter names that differ from the config keys users write.
_KEY_OF = {"lam": "lambda", "base": "rate_base", "vol": "rate_vol"}
_DOMAIN_NAME = re.compile(rf"\b({'|'.join(_KEY_OF)})\b")

# key -> (RunConfig field, caster), in field order, which also fixes the
# canonical serialization order. A key is its field's name as _KEY_OF spells it;
# a caster is the type of the field's default, except for these fields:
_CASTS = {"mu": _float_or_schedule, "sigma": _float_or_schedule, "atom_file": str, "rate": float}
_SCHEMA: dict[str, tuple[str, object]] = {
    _KEY_OF.get(f.name, f.name): (f.name, _CASTS.get(f.name, type(f.default)))
    for f in dataclasses.fields(RunConfig)
}
_FLOAT_KEYS = tuple(k for k, (_, cast) in _SCHEMA.items() if cast in (float, _float_or_schedule))
SWEEP_PARAMS = (*_FLOAT_KEYS, "rate-mode")


def parse_config(text: str) -> RunConfig:
    """Parse flat 'key = value' lines with # comments into a valid RunConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        if not val:
            raise ConfigError(f"empty value for key: {key}")
        raw[key] = val

    kwargs = {}
    for key, val in raw.items():
        field_name, cast = _SCHEMA[key]
        try:
            kwargs[field_name] = cast(val)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key}: {exc}") from exc
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    """Read a config file; a relative atom_file is resolved against it."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    cfg = parse_config(text)
    if cfg.atom_file is not None and not Path(cfg.atom_file).is_absolute():
        cfg = dataclasses.replace(cfg, atom_file=str(path.parent / cfg.atom_file))
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every set key, schema order, shortest float repr."""
    lines = []
    for key, (field_name, _) in _SCHEMA.items():
        v = getattr(cfg, field_name)
        if v is None:
            continue
        if isinstance(v, tuple):
            lines.append(f"{key} = {','.join(repr(x) for x in v)}")
        elif isinstance(v, float):
            lines.append(f"{key} = {v!r}")
        else:
            lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    import hashlib  # OpenSSL's import is paid only by the commands that write policy.csv

    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def _write_atomic(path: Path, chunks: Iterable[str]) -> Path:
    """Write an artifact's text chunks to path through a temporary file; return path.

    The chunks may be produced as they are written, so whatever fails, the
    temporary file is removed and path is left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)  # already gone after the rename
    return path


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out


def _solve_table(cfg: RunConfig, schedule: list[Distribution]) -> PolicyTable:
    return backward_induction(
        cfg.preferences(),
        cfg.constraints(),
        cfg.rate_model_obj(),
        schedule,
        cfg.horizon,
        cfg.solver_settings(),
    )


def worker_count() -> int:
    """Sweeps solve on the calling thread, so one worker.

    Kept because `perfbench/run.py --trace 1` divides `cli.sweep_pool_eff`
    by it; it can go once the benchmark drops that metric.
    """
    return 1


def _write_policy(cfg: RunConfig, table: PolicyTable, out: Path) -> Path:
    """Write policy.csv under a provenance header naming the config hash."""
    header = f"# config_sha256 = {config_hash(cfg)}\n"
    return _write_atomic(out / "policy.csv", [header, table.to_csv()])


def run_solve(cfg: RunConfig, out_dir: str | None = None) -> Path:
    """Solve the policy and write policy.csv with a provenance header."""
    table = _solve_table(cfg, cfg.y_schedule())
    return _write_policy(cfg, table, _out_dir(cfg, out_dir))


def run_simulate(cfg: RunConfig, out_dir: str | None = None) -> list[Path]:
    """Solve, simulate the path ensemble, and write policy/paths/summary CSVs."""
    _require(
        cfg.n_paths * cfg.horizon <= MAX_PATH_STEPS,
        f"n_paths * horizon must be <= {MAX_PATH_STEPS}, got {cfg.n_paths * cfg.horizon}",
    )
    from .simulate import _paths_csv_blocks, simulate_paths, summary_to_csv

    schedule = cfg.y_schedule()  # one read of an atom_file serves both
    table = _solve_table(cfg, schedule)
    paths, summary = simulate_paths(
        table, cfg.rate_model_obj(), schedule, cfg.w0, cfg.n_paths, cfg.seed
    )
    out = _out_dir(cfg, out_dir)
    return [
        _write_policy(cfg, table, out),
        _write_atomic(out / "paths.csv", _paths_csv_blocks(paths)),
        _write_atomic(out / "summary.csv", [summary_to_csv(summary)]),
    ]


def _sweep_variant(cfg: RunConfig, param: str, value) -> RunConfig:
    if param == "rate-mode":
        rate = cfg.rate if cfg.rate is not None else cfg.rate_base
        return dataclasses.replace(cfg, rate_model=value, rate=rate)
    try:
        value = _SCHEMA[param][1](value)
    except ValueError as exc:
        raise ConfigError(f"invalid {param} grid value {value!r}: {exc}") from exc
    return dataclasses.replace(cfg, **{_SCHEMA[param][0]: value})


def run_sweep(cfg: RunConfig, param: str, grid: list, out_dir: str | None = None) -> Path:
    """Re-solve per grid value and tabulate every period's coefficients."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    if not grid or any("," in str(v) for v in grid):
        raise ConfigError("sweep grid must hold one or more values, each without a comma")
    if param in ("mu", "sigma") and cfg.atom_file is not None:
        raise ConfigError(f"cannot sweep {param}: atom_file overrides mu and sigma")
    variants = [_sweep_variant(cfg, param, v) for v in grid]  # validate all first
    # Only mu and sigma change the laws; the other variants share one read of an atom_file.
    shared = None if param in ("mu", "sigma") else cfg.y_schedule()
    tables = [_solve_table(v, shared or v.y_schedule()) for v in variants]

    lines = ["param_value,t,kStar,kHatStar,A_t,B_t\n"]
    for value, table in zip(grid, tables):
        label = value if isinstance(value, str) else f"{float(value):.17g}"
        for row in table.rows:
            lines.append(
                f"{label},{row.t},{row.k_star:.17g},{row.k_hat_star:.17g},"
                f"{row.a_coef:.17g},{row.b_coef:.17g}\n"
            )
    safe = param.replace("-", "_")
    return _write_atomic(_out_dir(cfg, out_dir) / f"sweep_{safe}.csv", lines)


def run_value(cfg: RunConfig, amount: float) -> CptValue:
    """Prospect value of holding `amount` dollars of the configured return."""
    return cpt_scaled_position(cfg.preferences(), cfg.y_distribution(), amount, cfg.cdf_tol)


def run_demo(
    cfg: RunConfig,
    r_low: float,
    r_high: float,
    grid_points: int,
    out_dir: str | None = None,
) -> Path:
    """Run the two-period precommitment demo and write its report."""
    from .simulate import inconsistency_demo

    y = cfg.y_distribution()
    if not isinstance(y, DiscreteEmpirical):
        raise ConfigError("demo requires a finite return distribution (set atom_file)")
    report = inconsistency_demo(cfg.preferences(), cfg.constraints(), y, r_low, r_high, grid_points)
    return _write_atomic(_out_dir(cfg, out_dir) / "demo_report.txt", [report.to_text()])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors map to 1
        raise ConfigError(message)


# Options whose value may be negative. argparse reads a value that starts with
# '-' as an option unless it is a plain negative number (not -1e-3, nor a grid
# -0.1,0.2), so main joins such a value to its flag as --flag=value. The flag
# may be any prefix that names one of them, as argparse reads --am as --amount;
# a prefix of two, such as --r, is left for argparse to reject as ambiguous.
_SIGNED_OPTIONS = ("--grid", "--amount", "--r-low", "--r-high")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _join_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and _SIGNED_VALUE.match(arg) and sum(o.startswith(out[-1]) for o in _SIGNED_OPTIONS) == 1:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpt-alloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="config file (defaults are used if omitted)")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides out_dir)")

    p = sub.add_parser("solve", help="write the optimal policy table")
    common(p)

    p = sub.add_parser("simulate", help="solve, then simulate a wealth-path ensemble")
    common(p)
    p.add_argument("--seed", type=int, metavar="N", help="override the simulation seed")

    p = sub.add_parser("sweep", help="re-solve across a parameter grid")
    common(p)
    p.add_argument("--param", required=True, metavar="NAME", help=f"one of {', '.join(SWEEP_PARAMS)}")
    p.add_argument("--grid", required=True, metavar="v1,v2,...", help="comma-separated grid values")

    p = sub.add_parser("value", help="prospect value of a dollar position in the return")
    common(p)
    p.add_argument("--amount", type=float, default=1.0, metavar="X", help="position size in dollars")

    p = sub.add_parser("demo", help="two-period precommitment demo (finite return required)")
    common(p)
    p.add_argument("--r-low", type=float, default=0.0, metavar="R")
    p.add_argument("--r-high", type=float, default=0.5, metavar="R")
    p.add_argument("--demo-grid", type=int, default=21, metavar="N")

    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    # At shutdown CPython runs full collections over every object still alive
    # (about 22,000 once numpy is loaded), only to free memory the OS takes back
    # anyway. gc.freeze moves them all out of the collector's reach; it runs at
    # exit, so an in-process caller's heap stays collectable while it lives.
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    try:
        args = _build_parser().parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
        cfg = load_config(args.config) if args.config else RunConfig()
        if getattr(args, "seed", None) is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)

        if args.command == "solve":
            print(run_solve(cfg, args.out))
        elif args.command == "simulate":
            for path in run_simulate(cfg, args.out):
                print(path)
        elif args.command == "sweep":
            grid = [v.strip() for v in args.grid.split(",") if v.strip()]
            print(run_sweep(cfg, args.param, grid, args.out))
        elif args.command == "value":
            result = run_value(cfg, args.amount)
            print(f"value = {result.value:.17g}")
            print(f"gain_part = {result.gain_part:.17g}")
            print(f"loss_part = {result.loss_part:.17g}")
        elif args.command == "demo":
            print(run_demo(cfg, args.r_low, args.r_high, args.demo_grid, args.out))
    except (ConfigError, ValueError, NumericalError) as exc:
        # The only exception-to-exit-code map; a library ValueError is a rejected input.
        kind, code = ("numerical failure", 2) if isinstance(exc, NumericalError) else ("config error", 1)
        # One line per error, though a message that quotes a path may hold a newline.
        message = " ".join(line.strip() for line in str(exc).splitlines())
        print(f"{kind}: {message}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
