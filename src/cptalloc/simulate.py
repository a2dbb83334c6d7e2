"""Wealth-path simulation, benchmarking, and the precommitment demo.

Paths evolve by the self-financing step W' = (1+r)*W + v*y with the trade v
taken from a policy table. Each path owns a spawned RNG stream, so ensembles
are bit-reproducible for a given seed no matter how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choquet import cpt_discrete
from .dist import DiscreteEmpirical, RateModel, as_schedule
from .errors import NumericalError
from .prefs import CptPreferences
from .solver import (
    Constraints,
    PolicyTable,
    terminal_coefficients,
    terminal_stats,
)

__all__ = [
    "PathEnsemble",
    "BenchmarkReport",
    "EnsembleSummary",
    "DemoCase",
    "DemoReport",
    "step_wealth",
    "benchmarked_wealth",
    "simulate_paths",
    "inconsistency_demo",
    "paths_to_csv",
    "summary_to_csv",
]

_QUANTS = (0.05, 0.25, 0.50, 0.75, 0.95)
_QCOLS = tuple(f"wealth_q{int(q * 100):02d}" for q in _QUANTS)
# The demo scores grid**2 fraction pairs per rate, one exact CPT value each.
MAX_DEMO_GRID = 201


def step_wealth(wealth, trade, rate, excess):
    """One self-financing step: (1+rate)*wealth + trade*excess, elementwise."""
    if not np.all(rate > -1.0):
        raise ValueError(f"rate must be > -1, got {rate}")
    return (1.0 + rate) * wealth + trade * excess


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """n simulated paths stored as read-only arrays, one row per path.

    wealth (n, T+1) holds W_0..W_T; trades and rates (n, T) hold the
    per-period amounts and rates; excess_returns[:, j] is the excess return
    over period [j, j+1). A single path is a one-row ensemble.
    """

    wealth: np.ndarray
    trades: np.ndarray
    rates: np.ndarray
    excess_returns: np.ndarray

    def __post_init__(self) -> None:
        n, T = self.trades.shape
        if not (n and T and self.wealth.shape == (n, T + 1)
                and self.rates.shape == self.excess_returns.shape == (n, T)):
            raise ValueError("need (n, T+1) wealth and (n, T) trades, rates, excess_returns, n, T >= 1")
        for name in ("wealth", "trades", "rates", "excess_returns"):
            arr = getattr(self, name)
            bad = ~np.isfinite(arr)
            if bad.any():
                t = int(bad.any(axis=0).argmax())
                raise NumericalError(f"simulated {name} is not finite at period {t}")
            arr.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.trades.shape[1]


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """Terminal wealth measured against the two risk-free benchmarks, per path."""

    full_benchmark: np.ndarray
    last_period_benchmark: np.ndarray


def benchmarked_wealth(paths: PathEnsemble, t: int) -> BenchmarkReport:
    """Benchmarked terminal wealth of every path, each started at period t.

    The full benchmark carries every trade's excess gain forward at the
    risk-free rate; the last-period benchmark keeps only the final trade.
    The full benchmark equals W_T minus the risk-free roll-up of W_t, and
    both computations are cross-checked before reporting.
    """
    T = paths.horizon
    if not 0 <= t <= T - 1:
        raise ValueError(f"initial time must lie in [0, {T - 1}], got {t}")
    w, v, r, y = paths.wealth, paths.trades, paths.rates, paths.excess_returns
    bad = (step_wealth(w[:, :-1], v, r, y) != w[:, 1:]).any(axis=0)
    if bad.any():
        raise ValueError(f"self-financing violated at period {int(bad.argmax())}")

    # growth[:, j] is the risk-free growth of 1 dollar from period j to T.
    growth = np.ones((w.shape[0], T + 1))
    growth[:, :T] = np.cumprod(1.0 + r[:, ::-1], axis=1)[:, ::-1]
    gains = growth[:, t + 1:] * v[:, t:] * y[:, t:]
    # Summed left to right, period t first, as the per-path definition reads.
    full = np.cumsum(gains, axis=1)[:, -1]
    rollup = growth[:, t] * w[:, t]
    alt = w[:, T] - rollup
    # Both sides round in proportion to the gains, which can cancel to a small W_T.
    scale = np.max([np.ones_like(alt), np.abs(w[:, T]), np.abs(rollup),
                    np.abs(gains).sum(axis=1)], axis=0)
    bad = ~(np.abs(full - alt) <= 1e-12 * scale)
    if bad.any():
        i = int(bad.argmax())
        raise NumericalError(
            f"benchmark identity violated on path {i}: "
            f"sum={float(full[i])!r}, terminal-minus-rollup={float(alt[i])!r}"
        )
    return BenchmarkReport(full, v[:, T - 1] * y[:, T - 1])


@dataclass(eq=False)
class EnsembleSummary:
    """Per-period wealth statistics and mean realized fractions."""

    wealth_mean: np.ndarray
    wealth_quantiles: dict
    fraction_mean: np.ndarray


def simulate_paths(
    policy: PolicyTable,
    rate_model: RateModel,
    y_dist,
    w0: float,
    n_paths: int,
    seed: int,
) -> tuple[PathEnsemble, EnsembleSummary]:
    """Simulate n_paths trajectories under the policy, one RNG stream each.

    ``y_dist`` is a single distribution or a per-period schedule. Within a
    path, the per-period rates are drawn first (t ascending), then one excess
    return per period (t ascending); this order is part of the
    reproducibility contract. A stationary schedule draws a path's returns in
    one call, which yields the same numbers as one call per period.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not np.isfinite(w0):
        raise ValueError(f"w0 must be finite, got {w0!r}")
    T = policy.horizon
    schedule = as_schedule(y_dist, T)
    stationary = all(d is schedule[0] for d in schedule)
    periods = np.arange(T)

    rates = np.empty((n_paths, T))
    ys = np.empty((n_paths, T))
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        rng = np.random.default_rng(stream)
        rates[i] = rate_model.sample(periods, rng)
        ys[i] = schedule[0].sample(rng, T) if stationary else [d.sample(rng) for d in schedule]

    # optimal_trade's branch on the wealth sign and step_wealth, on all paths.
    k_star = [row.k_star for row in policy.rows]
    k_hat_star = [row.k_hat_star for row in policy.rows]
    wealth = np.empty((n_paths, T + 1))
    trades = np.empty((n_paths, T))
    wealth[:, 0] = w0
    with np.errstate(over="ignore", invalid="ignore"):  # PathEnsemble rejects the result
        for t in range(T):
            w = wealth[:, t]
            trades[:, t] = np.where(w >= 0.0, k_star[t], k_hat_star[t]) * w
            wealth[:, t + 1] = step_wealth(w, trades[:, t], rates[:, t], ys[:, t])
    ens = PathEnsemble(wealth, trades, rates, ys)

    # Finite wealths can still sum past float64's range; reject that below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        frac = np.where(wealth[:, :-1] != 0.0, trades / wealth[:, :-1], 0.0)
        summary = EnsembleSummary(
            wealth_mean=wealth.mean(axis=0),
            wealth_quantiles={q: np.quantile(wealth, q, axis=0) for q in _QUANTS},
            fraction_mean=frac.mean(axis=0),
        )
    # Fractions are bounded by the policy's, so only the wealth columns can overflow.
    bad = np.argwhere(~np.isfinite([summary.wealth_mean, *summary.wealth_quantiles.values()]))
    if bad.size:
        col, t = bad[0]
        raise NumericalError(f"summary {('wealth_mean', *_QCOLS)[col]} is not finite at period {t}")
    return ens, summary


def paths_to_csv(paths: PathEnsemble, fh) -> None:
    """Emit one row per (path, period) plus a terminal-wealth row per path."""
    T = paths.horizon
    # One template per path; its fields run W_0, v_0, r_0, y_0, W_1, ..., W_T.
    row = "{{0}},{t},{{{f}:.17g}},{{{g}:.17g}},{{{h}:.17g}},{{{k}:.17g}}\n"
    template = "".join(row.format(t=t, f=4 * t + 1, g=4 * t + 2, h=4 * t + 3, k=4 * t + 4)
                       for t in range(T))
    template += f"{{0}},{T},{{{4 * T + 1}:.17g}},,,\n"
    per_period = np.stack((paths.wealth[:, :-1], paths.trades, paths.rates, paths.excess_returns), axis=2)
    fields = np.concatenate((per_period.reshape(-1, 4 * T), paths.wealth[:, -1:]), axis=1)
    fh.write("path,t,W,v,r,y\n")
    fh.write("".join(template.format(i, *vals) for i, vals in enumerate(fields.tolist())))


def summary_to_csv(summary: EnsembleSummary, fh) -> None:
    fh.write(f"t,wealth_mean,{','.join(_QCOLS)},fraction_mean\n")
    T = summary.fraction_mean.size
    for t in range(T + 1):
        quants = ",".join(f"{summary.wealth_quantiles[q][t]:.17g}" for q in _QUANTS)
        frac = f"{summary.fraction_mean[t]:.17g}" if t < T else ""
        fh.write(f"{t},{summary.wealth_mean[t]:.17g},{quants},{frac}\n")


@dataclass(frozen=True)
class DemoCase:
    """Precommitted two-period solution under one deterministic rate."""

    rate: float
    precommit_z0: float
    precommit_z1: float
    value: float
    time_consistent_k_star: float

    @property
    def gap_vs_time_consistent(self) -> float:
        return abs(self.precommit_z1 - self.time_consistent_k_star)


@dataclass(frozen=True)
class DemoReport:
    """Observed precommitment gaps for the compounding-benchmark objective."""

    grid_points: int
    low: DemoCase
    high: DemoCase

    @property
    def cross_rate_gap(self) -> float:
        return abs(self.low.precommit_z1 - self.high.precommit_z1)

    def to_text(self) -> str:
        lines = [f"grid_points = {self.grid_points}"]
        for name, case in (("low", self.low), ("high", self.high)):
            lines.append(f"{name}.rate = {case.rate:.17g}")
            lines.append(f"{name}.precommit_z0 = {case.precommit_z0:.17g}")
            lines.append(f"{name}.precommit_z1 = {case.precommit_z1:.17g}")
            lines.append(f"{name}.value = {case.value:.17g}")
            lines.append(f"{name}.time_consistent_k_star = {case.time_consistent_k_star:.17g}")
            lines.append(f"{name}.gap_vs_time_consistent = {case.gap_vs_time_consistent:.17g}")
        lines.append(f"cross_rate_gap = {self.cross_rate_gap:.17g}")
        return "\n".join(lines) + "\n"


def _demo_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # Zero is always admissible and is the tie-break anchor, so force it in.
    return np.unique(np.concatenate((np.linspace(lo, hi, n), [0.0])))


def inconsistency_demo(
    prefs: CptPreferences,
    constraints: Constraints,
    discrete_y: DiscreteEmpirical,
    r_low: float,
    r_high: float,
    grid_points: int,
) -> DemoReport:
    """Exhibit how the compounding benchmark couples the last trade to rates.

    For a two-period horizon started at unit wealth, enumerate deterministic
    fraction pairs (z0, z1) on a grid, score the exact outcome distribution of
    the fully-benchmarked terminal wealth under each deterministic rate, and
    record the precommitted argmax next to the rate-free time-consistent
    last-period fraction. Gaps are reported, not asserted: their size depends
    on the outcome distribution.

    z1 is constrained to the fraction interval that stays admissible for
    either wealth sign, since one deterministic coefficient must serve both.
    """
    if not 3 <= grid_points <= MAX_DEMO_GRID:
        raise ValueError(f"demo grid must lie in [3, {MAX_DEMO_GRID}], got {grid_points}")
    if discrete_y.values.size > 20:
        raise ValueError("demo supports at most 20 atoms")
    for r in (r_low, r_high):
        if not (np.isfinite(r) and r > -1.0):
            raise ValueError(f"demo rates must be finite and > -1, got {r}")

    lo, hi = constraints.lo_frac, constraints.hi_frac
    zs0 = _demo_grid(lo, hi, grid_points)
    zs1 = _demo_grid(max(lo, -hi), min(hi, -lo), grid_points)
    pairs = sorted(
        ((z0, z1) for z0 in zs0 for z1 in zs1),
        key=lambda p: (abs(p[0]) + abs(p[1]), abs(p[1]), abs(p[0]), p[1], p[0]),
    )

    yv = discrete_y.values
    yp = discrete_y.probs
    prob = np.outer(yp, yp).ravel()

    stats = terminal_stats(prefs, discrete_y)
    k_star_terminal = terminal_coefficients(prefs, constraints, stats, t=1).k_star

    cases = []
    for r in (r_low, r_high):
        growth = 1.0 + r
        best = None
        for z0, z1 in pairs:
            mid_wealth = growth + z0 * yv  # W_1 per first-period outcome, W_0 = 1
            outcome = growth * z0 * yv[:, None] + z1 * mid_wealth[:, None] * yv[None, :]
            val = cpt_discrete(prefs, DiscreteEmpirical(outcome.ravel(), prob)).value
            if best is None or val > best[2]:
                best = (z0, z1, val)
        cases.append(
            DemoCase(
                rate=r,
                precommit_z0=best[0],
                precommit_z1=best[1],
                value=best[2],
                time_consistent_k_star=k_star_terminal,
            )
        )
    return DemoReport(grid_points=grid_points, low=cases[0], high=cases[1])
