"""Backward induction for the optimal per-period investment fractions.

The prospect value of following an optimal fraction policy from period t on is
a_coef * W**alpha for non-negative wealth and -b_coef * (-W)**alpha for
negative wealth. The last period reduces to a corner problem in the prospect
values of unit long/short positions; every earlier period maximizes a plain
expectation over next-period outcomes,

    g(z) = E[ a_next * q**alpha        on {q >= 0}
            - b_next * (-q)**alpha     on {q < 0} ],    q = 1 + r + y*z,

over the admissible fraction interval (and the mirrored objective over the
mirrored interval for negative wealth). Probability distortions act only
through the terminal statistics, so the inner expectations need no Choquet
machinery.

Maximization scans a uniform grid plus 0, then refines by golden section:
the glued power branches make the objective non-concave around the ruin kink,
so a global scan must precede any local polish. Values within the relative
TIE_RTOL of the maximum tie, and the least exposure wins.
Expectations share one fixed node set across all z, keeping the objective
smooth in z. The terminal corner gives A_{T-1} = -B_{T-1} exactly. A next
row with A = -B makes the long and the mirrored objective one function of z;
with symmetric bounds (lo_frac = -hi_frac) they also share a grid, so one scan
gives both optima and the new row again has A = -B. Other rows take two scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .choquet import cpt_scaled_position
from .dist import MAX_NODES, Distribution, RateModel, _sorted_distinct, as_schedule
from .errors import NumericalError
from .prefs import CptPreferences

__all__ = [
    "Constraints",
    "TerminalStats",
    "PolicyCoefficients",
    "PolicyTable",
    "SolverSettings",
    "terminal_stats",
    "terminal_coefficients",
    "recursion_step",
    "backward_induction",
    "optimal_trade",
]

_INVPHI = float((np.sqrt(5.0) - 1.0) / 2.0)  # a float keeps golden points Python floats
# Values this close are equal up to rounding, as f(z) and f(-z) under a symmetric law.
TIE_RTOL = 1e-12

CSV_HEADER = "t,A_t,B_t,kStar,kHatStar"

# Entries of one scan's grid x nodes tensor, the work of a solved period (its
# memory is one row block): 16 times the default 1001 x 64 x 16.
MAX_TENSOR = 16 * 1001 * 64 * 16
# recursion_step builds and reduces the tensor in row blocks of about this
# many entries (64 KB per float block) and at least 4 rows, so no grid x nodes
# array is ever held. Blocks this small also keep a solve's bits independent
# of OPENBLAS_NUM_THREADS: OpenBLAS splits a large matrix-vector product
# between threads, which regroups its sums, but on these blocks 1 and 2
# threads agree up to 256 x 256 nodes.
MIX_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class Constraints:
    """Admissible fraction interval: lo_frac*|W| <= trade <= hi_frac*|W|."""

    lo_frac: float
    hi_frac: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo_frac) and np.isfinite(self.hi_frac)):
            raise ValueError("fraction bounds must be finite")
        if not self.lo_frac <= 0.0 < self.hi_frac:
            raise ValueError(
                f"fraction bounds must satisfy lo_frac <= 0 < hi_frac, "
                f"got [{self.lo_frac}, {self.hi_frac}]"
            )
        if not np.isfinite(self.hi_frac - self.lo_frac):
            raise ValueError(
                f"fraction bounds must span a finite width, got [{self.lo_frac}, {self.hi_frac}]"
            )


@dataclass(frozen=True)
class TerminalStats:
    """Prospect values of unit long and unit short positions in the return."""

    long_value: float
    short_value: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.long_value) and np.isfinite(self.short_value)):
            raise ValueError("terminal statistics must be finite")


@dataclass(frozen=True)
class PolicyCoefficients:
    """One period's value coefficients and optimal fractions.

    a_coef scales W**alpha on non-negative wealth, b_coef scales -(-W)**alpha
    on negative wealth; k_star and k_hat_star are the matching argmax
    fractions.
    """

    t: int
    a_coef: float
    b_coef: float
    k_star: float
    k_hat_star: float

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"period index must be >= 0, got {self.t}")
        vals = (self.a_coef, self.b_coef, self.k_star, self.k_hat_star)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("policy coefficients must be finite")
        if self.a_coef < 0.0:
            raise ValueError(f"a_coef must be >= 0, got {self.a_coef}")
        if self.b_coef > 0.0:
            raise ValueError(f"b_coef must be <= 0, got {self.b_coef}")


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs for the per-period maximizations and expectations."""

    grid_points: int = 1001
    z_tol: float = 1e-6
    y_nodes: int = 64
    r_nodes: int = 16
    cdf_tol: float = 1e-9
    refine: bool = True

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if not 0.0 < self.z_tol < np.inf:
            raise ValueError(f"z_tol must be finite and > 0, got {self.z_tol}")
        for name in ("y_nodes", "r_nodes"):
            if not 1 <= getattr(self, name) <= MAX_NODES:
                raise ValueError(f"{name} must lie in [1, {MAX_NODES}], got {getattr(self, name)}")
        if not 0.0 < self.cdf_tol < np.inf:
            raise ValueError(f"cdf_tol must be finite and > 0, got {self.cdf_tol}")


@dataclass(frozen=True)
class PolicyTable:
    """Coefficients for periods 0..T-1."""

    rows: tuple[PolicyCoefficients, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("policy table must contain at least one row")
        for t, row in enumerate(self.rows):
            if row.t != t:
                raise ValueError(f"rows must cover periods 0..T-1 contiguously, row {t} has t={row.t}")

    @property
    def horizon(self) -> int:
        return len(self.rows)

    def row(self, t: int) -> PolicyCoefficients:
        return self.rows[t]

    def to_csv(self) -> str:
        """The table as text in the fixed schema t,A_t,B_t,kStar,kHatStar."""
        lines = [CSV_HEADER + "\n"]
        for row in self.rows:
            lines.append(
                f"{row.t},{row.a_coef:.17g},{row.b_coef:.17g},"
                f"{row.k_star:.17g},{row.k_hat_star:.17g}\n"
            )
        return "".join(lines)


def terminal_stats(
    prefs: CptPreferences, y_dist: Distribution, tol: float = 1e-9
) -> TerminalStats:
    """Prospect values of the unit long and unit short terminal positions."""
    return TerminalStats(
        cpt_scaled_position(prefs, y_dist, 1.0, tol).value,
        cpt_scaled_position(prefs, y_dist, -1.0, tol).value,
    )


def fraction_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform points on [lo, hi] plus 0, ascending, with 0 written as +0.

    Zero is always admissible (lo <= 0 < hi) and is the tie-break anchor.
    """
    return _sorted_distinct(np.append(np.linspace(lo, hi, n), 0.0)) + 0.0


def _least_exposure(vals: np.ndarray, *keys: np.ndarray) -> int:
    """Index of the optimum: among values within the relative TIE_RTOL of the
    maximum (>= 0: 0 is always a candidate), the smallest keys, first key first."""
    near = np.nonzero(vals >= (1.0 - TIE_RTOL) * vals.max())[0]
    return near[np.lexsort([key[near] for key in reversed(keys)])[0]]


def terminal_coefficients(
    prefs: CptPreferences,
    constraints: Constraints,
    stats: TerminalStats,
    t: int = 0,
) -> PolicyCoefficients:
    """Last-period coefficients by corner enumeration.

    On each side of zero the objective is a monotone power function of the
    fraction, so the maximizer over the admissible interval lies at an
    endpoint or at zero; no search is needed.
    """
    a = prefs.alpha
    lo, hi = constraints.lo_frac, constraints.hi_frac
    k, h = stats.long_value, stats.short_value

    # The mirrored side takes the same corner values at the negated fractions
    # (0.0 - z, which never gives -0.0).
    zs = np.array([0.0, hi, lo])
    zs_hat = 0.0 - zs
    vals = np.array([0.0, hi**a * k, (-lo) ** a * h])
    _finite_max(vals)
    i = _least_exposure(vals, np.abs(zs), zs)
    j = _least_exposure(vals, np.abs(zs_hat), zs_hat)
    return PolicyCoefficients(t, float(vals[i]), -float(vals[j]) + 0.0, float(zs[i]), float(zs_hat[j]))


def _finite_max(vals: np.ndarray) -> None:
    top = vals.max()
    if not np.isfinite(top):
        raise NumericalError(f"objective maximum is not finite ({top}): values overflow float64")


def _grid_then_golden(
    f_batch: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    settings: SolverSettings,
) -> tuple[float, float]:
    """Maximize f over [lo, hi]: the best point of fraction_grid(lo, hi),
    then local golden refinement around it.

    Grid ties go to the least exposure (_least_exposure). Refinement, to
    z_tol in z, is accepted only when it strictly improves.
    """
    zs = fraction_grid(lo, hi, settings.grid_points)
    vals = f_batch(zs)
    _finite_max(vals)
    i = _least_exposure(vals, np.abs(zs), zs)
    z_best, v_best = float(zs[i]), float(vals[i])

    if settings.refine:
        bl = float(zs[max(i - 1, 0)])
        bh = float(zs[min(i + 1, len(zs) - 1)])
        z_ref, v_ref = _golden_max(
            lambda z: float(f_batch(np.array([z]))[0]), bl, bh, settings.z_tol
        )
        if v_ref > v_best:
            z_best, v_best = z_ref, v_ref
    return z_best, v_best


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    if hi - lo <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    # Once c or d rounds onto an end, the bracket is at float resolution and
    # stops shrinking: tol below its spacing would otherwise loop forever.
    while hi - lo > tol and lo < c < d < hi:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def recursion_step(
    prefs: CptPreferences,
    constraints: Constraints,
    nxt: PolicyCoefficients,
    rate_model: RateModel,
    y_dist: Distribution,
    settings: SolverSettings | None = None,
) -> PolicyCoefficients:
    """Roll the value coefficients back one period from the period-(t+1) row.

    The expectation marginalizes jointly over the excess return and, for
    random rate models, the period-t rate, on one fixed tensor node grid
    shared across every candidate fraction z. The ruin region 1 + r + y*z < 0
    enters exactly through the indicator split, with no wealth clipping.
    """
    if nxt.t < 1:
        raise ValueError("next row must belong to period t >= 1")
    settings = settings or SolverSettings()
    t = nxt.t - 1
    a = prefs.alpha

    yv, yw = y_dist.expectation_nodes(settings.y_nodes)
    rv, rw = rate_model.nodes(t, settings.r_nodes)
    if settings.grid_points * yv.size * rv.size > MAX_TENSOR:
        raise ValueError(
            f"period {t}: grid_points x return nodes x rate nodes = {settings.grid_points} x "
            f"{yv.size} x {rv.size} exceeds {MAX_TENSOR}"
        )
    growth = 1.0 + rv[:, None]
    ww = np.outer(rw, yw).ravel()
    a_next, b_next = nxt.a_coef, nxt.b_coef
    lo, hi = constraints.lo_frac, constraints.hi_frac

    # Row blocks of at least 4 and a multiple of 4 rows, so that every block
    # starts at a multiple of 4. OpenBLAS's matrix-vector product sums the
    # outputs in groups of 4 and the last (rows % 4) alone, and numpy sends a
    # one-row matrix to a dot product instead, which sums in another order.
    # Blocks that start on the groups of the full matrix, with a one-row
    # remainder joined to the block before it, give every output the bits of
    # one single-threaded product over the full matrix (plain 8-row blocks
    # changed the last row of every 1001-row grid).
    step = max(4, MIX_BLOCK_ENTRIES // ww.size // 4 * 4)

    def mix_batch(zs: np.ndarray, c_pos: float, c_neg: float) -> np.ndarray:
        # Entries c_pos*max(q, 0)**a + c_neg*max(-q, 0)**a against the node
        # weights, one row block of q at a time with one power per entry.
        # Unless c_neg == c_pos (A = -B), the q < 0 entries take c_neg.
        out = np.empty(zs.size)
        starts = range(0, max(zs.size - 1, 1), step)
        for start, stop in zip(starts, [*starts[1:], zs.size]):
            q = np.add(np.multiply.outer(zs[start:stop], yv)[:, None], growth).reshape(-1, ww.size)
            neg = q < 0.0 if c_neg != c_pos else None
            np.abs(q, out=q)
            q **= a
            q *= c_pos if neg is None else np.where(neg, c_neg, c_pos)
            out[start:stop] = q @ ww
        return out

    # Overflowing powers become inf or nan; _finite_max turns a non-finite
    # maximum into a NumericalError, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        k_star, a_coef = _grid_then_golden(
            lambda zs: mix_batch(zs, a_next, -b_next), lo, hi, settings
        )
        if lo == -hi and a_next == -b_next:
            # The mirrored objective and grid are the long ones.
            k_hat_star, l_max = k_star, a_coef
        else:
            k_hat_star, l_max = _grid_then_golden(
                lambda zs: mix_batch(zs, -b_next, a_next), -hi, -lo, settings
            )
    return PolicyCoefficients(t, a_coef, -l_max + 0.0, k_star, k_hat_star)


def backward_induction(
    prefs: CptPreferences,
    constraints: Constraints,
    rate_model: RateModel,
    y_dist,
    horizon: int,
    settings: SolverSettings | None = None,
) -> PolicyTable:
    """Solve all periods 0..horizon-1, last period first.

    ``y_dist`` is a single distribution (stationary i.i.d. returns) or a
    per-period sequence whose entry t governs the return over [t, t+1).
    The output is deterministic in the inputs: rows depend only on the period
    index and the models, never on the time the table is queried from.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    settings = settings or SolverSettings()
    schedule = as_schedule(y_dist, horizon)

    try:
        stats = terminal_stats(prefs, schedule[-1], settings.cdf_tol)
        rows = [terminal_coefficients(prefs, constraints, stats, t=horizon - 1)]
    except NumericalError as exc:
        raise NumericalError(f"terminal period {horizon - 1}: {exc}") from exc

    for t in range(horizon - 2, -1, -1):
        if rows[-1].a_coef == rows[-1].b_coef == 0.0:
            # Every fraction scores 0: the least exposure, +0, wins on both signs.
            rows.append(PolicyCoefficients(t, 0.0, 0.0, 0.0, 0.0))
            continue
        try:
            rows.append(
                recursion_step(prefs, constraints, rows[-1], rate_model, schedule[t], settings)
            )
        except NumericalError as exc:
            raise NumericalError(f"period {t}: {exc}") from exc

    return PolicyTable(tuple(reversed(rows)))


def optimal_trade(row: PolicyCoefficients, wealth: float) -> float:
    """Dollar trade prescribed by a policy row at the given wealth level."""
    if not np.isfinite(wealth):
        raise ValueError(f"wealth must be finite, got {wealth!r}")
    frac = row.k_star if wealth >= 0.0 else row.k_hat_star
    return frac * wealth
