"""Wealth-path simulation, benchmarking, and the precommitment demo.

Paths evolve by the self-financing step W' = (1+r)*W + v*y with the trade v
taken from a policy table. Each path owns a spawned RNG stream, so ensembles
are bit-reproducible for a given seed no matter how work is scheduled. The
streams are exactly the children of SeedSequence(seed).spawn(n_paths), each
seeded into PCG64 as default_rng seeds it, but their states are computed for
all paths at once; tests/test_simulate.py checks them against numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .choquet import _cpt_rows
from .dist import DiscreteEmpirical, RateModel, _merge_rows, as_schedule
from .errors import NumericalError
from .prefs import CptPreferences
from .solver import (
    Constraints,
    PolicyTable,
    _least_exposure,
    fraction_grid,
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
# The demo scores grid**2 fraction pairs per rate, one exact CPT value each,
# in blocks of at most DEMO_BLOCK_ENTRIES outcomes (1 MB per float array).
MAX_DEMO_GRID = 201
DEMO_BLOCK_ENTRIES = 2**17


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


# SeedSequence's hash constants and PCG64's LCG multiplier, fixed by numpy's
# stream-compatibility policy (NEP 19).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _stream_states(seed: int, n: int):
    """The PCG64 (state, inc) of each child of SeedSequence(seed).spawn(n).

    The children's entropy pools are hashed in uint32 arithmetic, one column
    per child, and each PCG64 is seeded as numpy seeds it from the child's
    generate_state(4, uint64). Returns an iterator of int pairs in child order.
    """
    # A spawn key (i,) is one uint32 word while i < 2**32, which the CLI's
    # n_paths <= cli.MAX_PATH_STEPS (2e6) keeps; past it the layout differs.
    if not 1 <= n <= 2**32:
        raise ValueError(f"need 1 <= n <= 2**32 streams, got {n}")
    # The seed's uint32 words, least significant first; 0 is one word.
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # A spawned child pads the seed's words with zeros to the pool size, then
    # appends its key, so the key always lands after the pool's first mix.
    entropy = np.zeros((max(len(words), _POOL_SIZE) + 1, n), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(n, dtype=np.uint32)

    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R
        return out ^ out >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words, read in little-endian pairs.
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append((value ^ value >> 16).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * j] | state[2 * j + 1] << np.uint64(32)
                                        for j in range(4))

    def pcg64_seeding(s_hi, s_lo, q_hi, q_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        return ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc

    return map(pcg64_seeding, seed_hi.tolist(), seed_lo.tolist(), seq_hi.tolist(), seq_lo.tolist())


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
    reproducibility contract. Each path's stream state is set on one shared
    generator, which fills the path's row of raw variates with one call per
    run of same-kind variates; that yields the same numbers as one call per
    variate. The rate model and the laws then transform the raw columns of
    all paths at once. ``seed`` must be an integer >= 0.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    seed = int(seed)
    if not np.isfinite(w0):
        raise ValueError(f"w0 must be finite, got {w0!r}")
    T = policy.horizon
    schedule = as_schedule(y_dist, T)
    periods = np.arange(T)

    k = int(np.count_nonzero(rate_model.variate_mask(periods)))
    runs, start = [], 0
    for kind, group in itertools.groupby(["standard_normal"] * k + [d.variate for d in schedule]):
        stop = start + len(list(group))
        runs.append((kind, slice(start, stop)))
        start = stop
    raw = np.empty((n_paths, k + T))
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    fills = [(getattr(rng, kind), cols) for kind, cols in runs]
    for row, (state, inc) in zip(raw, _stream_states(seed, n_paths)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        for fill, cols in fills:
            fill(out=row[cols])
    rates = rate_model.from_variates(periods, raw[:, :k])
    ys = np.empty((n_paths, T))
    for t, d in enumerate(schedule):
        ys[:, t] = d.from_variates(raw[:, k + t])

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
    record the precommitted optimum next to the rate-free time-consistent
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
    zs0 = fraction_grid(lo, hi, grid_points)
    zs1 = fraction_grid(max(lo, -hi), min(hi, -lo), grid_points)
    z0 = np.repeat(zs0, zs1.size)
    z1 = np.tile(zs1, zs0.size)
    # Near-tied scores go to the least exposure: |z0| + |z1|, then |z1|, |z0|, z1, z0.
    exposure = (np.abs(z0) + np.abs(z1), np.abs(z1), np.abs(z0), z1, z0)

    # Outcome i*n + j follows return y_i in period 0 and y_j in period 1. An
    # outcome whose probability underflows to 0 carries no mass and is left
    # out; the products of renormalised probabilities sum to 1 within rounding.
    n = discrete_y.values.size
    prob = np.outer(discrete_y.probs, discrete_y.probs).ravel()
    keep = prob > 0.0
    y_first = np.repeat(discrete_y.values, n)[keep]
    y_second = np.tile(discrete_y.values, n)[keep]
    prob = prob[keep]
    block = DEMO_BLOCK_ENTRIES // prob.size

    stats = terminal_stats(prefs, discrete_y)
    k_star_terminal = terminal_coefficients(prefs, constraints, stats, t=1).k_star

    cases = []
    for r in (r_low, r_high):
        growth = 1.0 + r
        vals = np.empty(z0.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, z0.size, block):
                b0, b1 = z0[start:start + block, None], z1[start:start + block, None]
                mid_wealth = growth + b0 * y_first  # W_1, W_0 = 1
                outcome = growth * b0 * y_first + b1 * mid_wealth * y_second
                if not np.isfinite(outcome).all():
                    raise NumericalError(f"demo outcome is not finite at rate {r!r}")
                uniq, _, cum, n_uniq = _merge_rows(outcome, prob)
                gain, loss = _cpt_rows(prefs, uniq, cum, n_uniq)
                vals[start:start + block] = gain - loss
        best = _least_exposure(vals, *exposure)
        cases.append(DemoCase(rate=r, precommit_z0=float(z0[best]), precommit_z1=float(z1[best]),
                              value=float(vals[best]), time_consistent_k_star=k_star_terminal))
    return DemoReport(grid_points=grid_points, low=cases[0], high=cases[1])
