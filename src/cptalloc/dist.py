"""Excess-return and interest-rate models.

Two return distributions are supported: a normal law and a finite empirical
distribution given by (value, probability) atoms. Both expose CDF, quantile,
sampling, and quadrature-friendly discretization. Rate models cover a constant
per-period rate and a Ho-Lee-style random rate r_t = base + vol*sqrt(t)*Z.

All distribution objects are immutable; RNG streams are owned by their caller.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "Normal",
    "DiscreteEmpirical",
    "Distribution",
    "DeterministicRate",
    "GaussianSqrtTRate",
    "RateModel",
    "discretize",
    "as_schedule",
]

# Rates below -1 would make risk-free compounding ill-defined, so random rate
# draws are clamped here. At realistic parameters the clamp never binds.
MIN_RATE = -1.0 + 1e-9


def _check_finite_scalar(x, name: str) -> float:
    xf = float(x)
    if not np.isfinite(xf):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return xf


def _check_periods(t, size) -> np.ndarray:
    tv = np.asarray(t)
    if (tv < 0).any():
        raise ValueError("period index must be >= 0")
    if tv.ndim and size is not None:
        raise ValueError("size applies to a single period, not an array of periods")
    return tv


@dataclass(frozen=True)
class Normal:
    """Normal distribution with mean mu and standard deviation sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu) or not np.isfinite(self.sigma):
            raise ValueError("Normal parameters must be finite")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def cdf(self, x):
        xv = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xv)):
            raise ValueError("cdf: x must be finite")
        out = ndtr((xv - self.mu) / self.sigma)
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    def quantile(self, p):
        pv = np.asarray(p, dtype=float)
        if not (np.all(pv > 0.0) and np.all(pv < 1.0)):
            raise ValueError("quantile: p must lie in (0, 1)")
        with np.errstate(over="ignore"):  # an infinite quantile is the caller's to reject
            out = self.mu + self.sigma * ndtri(pv)
        return float(out) if np.isscalar(p) or pv.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        return self.mu + self.sigma * rng.standard_normal(size)

    def negate(self) -> "Normal":
        return Normal(-self.mu, self.sigma)

    def expectation_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite nodes and weights for expectations against this law."""
        if n < 1:
            raise ValueError("node count must be >= 1")
        x, w = np.polynomial.hermite.hermgauss(n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite node is the solver's to reject
            nodes = self.mu + self.sigma * np.sqrt(2.0) * x
        return nodes, w / w.sum()


class DiscreteEmpirical:
    """Finite distribution with ascending, duplicate-merged atoms.

    Probabilities must be positive and sum to 1 within 1e-12; they are
    renormalized exactly so the cumulative vector ends at 1.0.
    """

    __slots__ = ("values", "probs", "_cum", "_cum_padded")

    def __init__(self, values, probs) -> None:
        v = np.asarray(values, dtype=float).ravel()
        p = np.asarray(probs, dtype=float).ravel()
        if v.size == 0 or v.size != p.size:
            raise ValueError("atoms require equal, nonzero numbers of values and probabilities")
        if not np.all(np.isfinite(v)):
            raise ValueError("atom values must be finite")
        if not np.all(p > 0.0):
            raise ValueError("atom probabilities must be > 0")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities must sum to 1 within 1e-12, got {total!r}")
        order = np.argsort(v, kind="stable")
        v, p = v[order], p[order]
        uniq, inverse = np.unique(v, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, p)
        merged /= merged.sum()
        cum = np.cumsum(merged)
        cum[-1] = 1.0
        padded = np.concatenate(([0.0], cum))
        for arr in (uniq, merged, cum, padded):
            arr.flags.writeable = False
        self.values = uniq
        self.probs = merged
        self._cum = cum
        self._cum_padded = padded

    def __repr__(self) -> str:
        return f"DiscreteEmpirical(n_atoms={self.values.size})"

    @property
    def cumulative(self) -> np.ndarray:
        """Right-continuous CDF evaluated at each atom."""
        return self._cum

    def cdf(self, x):
        xv = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xv)):
            raise ValueError("cdf: x must be finite")
        idx = np.searchsorted(self.values, xv, side="right")
        out = self._cum_padded[idx]
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    def quantile(self, p):
        pv = np.asarray(p, dtype=float)
        if not (np.all(pv > 0.0) and np.all(pv < 1.0)):
            raise ValueError("quantile: p must lie in (0, 1)")
        idx = np.searchsorted(self._cum, pv, side="left")
        out = self.values[idx]
        return float(out) if np.isscalar(p) or pv.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        idx = rng.choice(self.values.size, size=size, p=self.probs)
        return self.values[idx]

    def negate(self) -> "DiscreteEmpirical":
        return DiscreteEmpirical(-self.values, self.probs)

    def expectation_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact atoms: a finite distribution needs no quadrature."""
        return self.values, self.probs

    @classmethod
    def from_csv(cls, path) -> "DiscreteEmpirical":
        """Load atoms from a two-column CSV with a 'value,probability' header."""
        path = Path(path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ValueError(f"{path}: empty atom file")
        header = [c.strip().lower() for c in rows[0]]
        if header != ["value", "probability"]:
            raise ValueError(f"{path}: expected header 'value,probability', got {rows[0]!r}")
        body = [r for r in rows[1:] if r]
        if not body:
            raise ValueError(f"{path}: no atom rows")
        try:
            values = [float(r[0]) for r in body]
            probs = [float(r[1]) for r in body]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed atom row: {exc}") from exc
        return cls(values, probs)


Distribution = Normal | DiscreteEmpirical


def discretize(d: Distribution, n: int) -> DiscreteEmpirical:
    """Collapse d to n equiprobable atoms at the quantile midpoints (i-0.5)/n.

    A finite distribution that already has at most n atoms is returned
    unchanged; duplicates produced by flat quantile stretches are merged.
    """
    if n < 2:
        raise ValueError(f"atom count must be >= 2, got {n}")
    if isinstance(d, DiscreteEmpirical) and d.values.size <= n:
        return d
    ps = (np.arange(1, n + 1) - 0.5) / n
    atoms = d.quantile(ps)
    return DiscreteEmpirical(atoms, np.full(n, 1.0 / n))


def as_schedule(y_dist, horizon: int) -> list:
    """Normalize a distribution or per-period sequence to one entry per period.

    Entry t governs the return over [t, t+1); a single distribution is the
    stationary i.i.d. case and is repeated.
    """
    if isinstance(y_dist, (Normal, DiscreteEmpirical)):
        return [y_dist] * horizon
    schedule = list(y_dist)
    if len(schedule) != horizon:
        raise ValueError(
            f"return schedule needs one entry per period ({horizon}), got {len(schedule)}"
        )
    for d in schedule:
        if not isinstance(d, (Normal, DiscreteEmpirical)):
            raise ValueError(f"schedule entries must be distributions, got {type(d).__name__}")
    return schedule


@dataclass(frozen=True)
class DeterministicRate:
    """Constant per-period simple rate."""

    r: float

    def __post_init__(self) -> None:
        _check_finite_scalar(self.r, "r")
        if not self.r > -1.0:
            raise ValueError(f"rate must be > -1, got {self.r}")

    def sample(self, t, rng: np.random.Generator, size=None):
        """The rate of period t, or one rate per entry of an array of periods."""
        tv = _check_periods(t, size)
        if tv.ndim:
            return np.full(tv.shape, self.r)
        return self.r if size is None else np.full(size, self.r)

    def nodes(self, t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        if t < 0:
            raise ValueError("period index must be >= 0")
        return np.array([self.r]), np.array([1.0])


@dataclass(frozen=True)
class GaussianSqrtTRate:
    """Random per-period rate base + vol*sqrt(t)*Z with Z standard normal.

    The rate over [0, 1) is the base exactly; dispersion grows with sqrt(t).
    Draws and quadrature nodes are clamped at MIN_RATE.
    """

    base: float
    vol: float

    def __post_init__(self) -> None:
        _check_finite_scalar(self.base, "base")
        if not self.base > -1.0:
            raise ValueError(f"base must be > -1, got {self.base}")
        _check_finite_scalar(self.vol, "vol")
        if not self.vol >= 0.0:
            raise ValueError(f"vol must be >= 0, got {self.vol}")

    def sample(self, t, rng: np.random.Generator, size=None):
        """Draw the rate of period t (size draws of it if size is given).

        An array of periods gives one rate per entry. It draws one normal per
        period with a non-zero scale, in the array's order, so the stream
        yields the same rates as one scalar call per period.
        """
        tv = _check_periods(t, size)
        scale = self.vol * np.sqrt(tv)
        if tv.ndim:
            out = np.full(tv.shape, self.base)
            live = scale != 0.0
            draw = self.base + scale[live] * rng.standard_normal(np.count_nonzero(live))
            out[live] = np.maximum(draw, MIN_RATE)
            return out
        if scale == 0.0:
            return self.base if size is None else np.full(size, self.base)
        draw = self.base + scale * rng.standard_normal(size)
        return float(max(draw, MIN_RATE)) if size is None else np.maximum(draw, MIN_RATE)

    def nodes(self, t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        if t < 0:
            raise ValueError("period index must be >= 0")
        if n < 1:
            raise ValueError("node count must be >= 1")
        scale = self.vol * np.sqrt(t)
        if scale == 0.0:
            return np.array([self.base]), np.array([1.0])
        x, w = np.polynomial.hermite.hermgauss(n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite node is the solver's to reject
            rates = np.maximum(self.base + scale * np.sqrt(2.0) * x, MIN_RATE)
        return rates, w / w.sum()


RateModel = DeterministicRate | GaussianSqrtTRate
