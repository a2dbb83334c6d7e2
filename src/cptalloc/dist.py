"""Excess-return and interest-rate models.

Two return distributions are supported: a normal law and a finite empirical
distribution given by (value, probability) atoms. Both expose CDF, quantile,
sampling, and quadrature-friendly discretization. The rate model is a
Ho-Lee-style random rate r_t = base + vol*sqrt(t)*Z; a constant per-period
rate is its vol = 0 case.

All distribution objects are immutable; RNG streams are owned by their caller.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cptalloc

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

# numpy's hermgauss overflows from 371 nodes; 256 is 4 times the default y_nodes.
MAX_NODES = 256


def _each(f, x):
    """f of each element of x as a Python float: a float for a scalar x,
    else an array of x's shape. Every input kind thus gets f's bits."""
    xv = np.asarray(x, dtype=float)
    out = np.array([f(v) for v in xv.ravel().tolist()], dtype=float).reshape(xv.shape)
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def _check_finite_scalar(x, name: str) -> float:
    xf = float(x)
    if not np.isfinite(xf):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return xf


def _check_periods(t, size) -> np.ndarray:
    tv = np.asarray(t)
    # Python comparisons, not a ufunc: a ufunc on the 0-d array of each
    # nodes() call raised a cold solve's peak resident set by about 0.1 MB.
    if any(p < 0 for p in tv.flat):
        raise ValueError("period index must be >= 0")
    if tv.ndim and size is not None:
        raise ValueError("size applies to a single period, not an array of periods")
    return tv


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: np.unique's sort-based
    rule, without the numpy.ma import that np.unique makes."""
    s = np.sort(x)
    first = np.ones(s.shape, dtype=bool)  # the first of each run of equal values
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


@functools.cache
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's hermgauss(n) abscissae and normalised weights, read-only,
    computed once per process."""
    x, w = np.polynomial.hermite.hermgauss(n)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _hermite_nodes(loc: float, scale: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for expectations against N(loc, scale**2).

    The weights returned are the n-point rule's shared, read-only array.
    """
    n = operator.index(n)  # as hermgauss, reject 4.0 even once the rule for 4 is cached
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must lie in [1, {MAX_NODES}], got {n}")
    x, w = _hermite_rule(n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite node is the solver's to reject
        nodes = loc + scale * np.sqrt(2.0) * x
    return nodes, w


def _merge_rows(values: np.ndarray, probs: np.ndarray):
    """Sort, merge and normalise the atoms of finite distributions, one per row.

    Row i of `values` (rows, k) holds one distribution's finite outcomes and
    `probs` (k,) their probabilities. Returns the ascending distinct values,
    their probabilities and the CDF at them, each (rows, k) with row i padded
    after its first n[i] entries, and the list n. A row's bytes do not depend
    on the other rows, so a distribution merges alike alone or in a batch.
    """
    # Each temporary is freed as soon as it is used: on 10**5 atoms they are
    # 0.8 MB each, and together they set the peak resident set of `value`.
    rows, k = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    v = np.take_along_axis(values, order, axis=1)
    p = probs[order]
    del order
    new = np.ones((rows, k), dtype=bool)  # the first of each run of equal values
    np.not_equal(v[:, 1:], v[:, :-1], out=new[:, 1:])
    flat = np.cumsum(new, axis=1)
    flat -= 1  # each value's column among its row's distinct values
    n = flat[:, -1] + 1
    flat += k * np.arange(rows)[:, None]
    flat = flat.ravel()
    # add.at merges equal values one by one, in sorted order.
    merged = np.zeros(rows * k)
    np.add.at(merged, flat, p.ravel())
    del p
    uniq = np.zeros(rows * k)
    uniq[flat[new.ravel()]] = v[new]
    del flat, v, new
    merged, uniq = merged.reshape(rows, k), uniq.reshape(rows, k)

    # numpy's pairwise sum associates differently from 8 terms on, so a row
    # is summed over its own distinct values, never over the padded width.
    total = np.empty(rows)
    for m in sorted(set(n.tolist())):
        same = n == m
        total[same] = merged[same, :m].sum(axis=1)
    merged /= total[:, None]
    cum = np.cumsum(merged, axis=1)
    # A rare last atom can leave a partial sum above 1 by rounding; the
    # distortion of 1 - cum would then be NaN.
    np.minimum(cum, 1.0, out=cum)
    cum[np.arange(k) >= n[:, None] - 1] = 1.0
    return uniq, merged, cum, n.tolist()


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
        # Python floats keep cdf and quantile in float arithmetic, which
        # returns float and sets no numpy error state.
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))

    def cdf(self, x):
        if type(x) is not float:
            return _each(self.cdf, x)
        # A float is the quadrature integrand's hot path: no numpy round trip.
        if not math.isfinite(x):
            raise ValueError("cdf: x must be finite")
        return cptalloc._ndtr.ndtr((x - self.mu) / self.sigma)

    def quantile(self, p):
        if type(p) is not float:
            return _each(self.quantile, p)
        if not 0.0 < p < 1.0:
            raise ValueError("quantile: p must lie in (0, 1)")
        # An infinite quantile is the caller's to reject.
        return self.mu + self.sigma * cptalloc._ndtr.ndtri(p)

    # The Generator method that draws this law's raw numbers.
    variate = "standard_normal"

    def from_variates(self, z):
        """The law's draws from standard normal variates z."""
        return self.mu + self.sigma * z

    def sample(self, rng: np.random.Generator, size=None):
        return self.from_variates(rng.standard_normal(size))

    def negate(self) -> "Normal":
        return Normal(-self.mu, self.sigma)

    def expectation_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite nodes and weights for expectations against this law."""
        return _hermite_nodes(self.mu, self.sigma, n)


class DiscreteEmpirical:
    """Finite distribution with ascending, duplicate-merged atoms.

    Probabilities must be positive and sum to 1 within 1e-12; they are
    renormalized, and the cumulative vector is clamped at 1 and ends at 1.0.
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
        uniq, merged, cum, n = _merge_rows(v[None], p)
        uniq, merged, cum = uniq[0, :n[0]], merged[0, :n[0]], cum[0, :n[0]]
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

    # The Generator method that draws this law's raw numbers.
    variate = "random"

    def from_variates(self, u):
        """The atoms drawn by uniform variates u in [0, 1): Generator.choice's
        inverse-CDF rule, so sample() equals values[rng.choice(n, size, p=probs)]."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        return self.values[cdf.searchsorted(u, side="right")]

    def sample(self, rng: np.random.Generator, size=None):
        return self.from_variates(rng.random(size))

    def negate(self) -> "DiscreteEmpirical":
        return DiscreteEmpirical(-self.values, self.probs)

    def expectation_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact atoms: a finite distribution needs no quadrature."""
        return self.values, self.probs

    @classmethod
    def from_csv(cls, path) -> "DiscreteEmpirical":
        """Load atoms from a two-column CSV with a 'value,probability' header."""
        path = Path(path)
        with path.open(newline="") as fh, warnings.catch_warnings():
            first = fh.readline()
            if not first:
                raise ValueError(f"{path}: empty atom file")
            header = next(csv.reader([first]))
            if [c.strip().lower() for c in header] != ["value", "probability"]:
                raise ValueError(f"{path}: expected header 'value,probability', got {header!r}")
            # An empty body is reported below; loadtxt's warning would only repeat it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed atom row: {exc}") from exc
        if not rows.size:
            raise ValueError(f"{path}: no atom rows")
        if rows.shape[1] != 2:
            raise ValueError(f"{path}: malformed atom row: {rows.shape[1]} fields, expected 2")
        return cls(rows[:, 0], rows[:, 1])


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

    def variate_mask(self, periods) -> np.ndarray:
        """Which periods consume a standard normal: those of non-zero scale."""
        return self.vol * np.sqrt(periods) != 0.0

    def from_variates(self, periods, z) -> np.ndarray:
        """The rates of the periods from standard normals z, one per masked
        period along z's last axis, for each index of its leading axes."""
        scale = self.vol * np.sqrt(periods)
        live = self.variate_mask(periods)
        out = np.full(np.shape(z)[:-1] + np.shape(periods), float(self.base))
        out[..., live] = np.maximum(self.base + scale[live] * z, MIN_RATE)
        return out

    def sample(self, t, rng: np.random.Generator, size=None):
        """Draw the rate of period t (size draws of it if size is given).

        An array of periods gives one rate per entry. It draws one normal per
        period with a non-zero scale, in the array's order, so the stream
        yields the same rates as one scalar call per period.
        """
        tv = _check_periods(t, size)
        periods = tv if size is None else np.full(size, tv)
        z = rng.standard_normal(np.count_nonzero(self.variate_mask(periods)))
        out = self.from_variates(periods, z)
        return float(out) if size is None and not tv.ndim else out

    def nodes(self, t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        _check_periods(t, None)
        scale = self.vol * np.sqrt(t)
        if scale == 0.0:  # a point mass needs one node
            return np.array([self.base]), np.array([1.0])
        nodes, w = _hermite_nodes(self.base, scale, n)
        return np.maximum(nodes, MIN_RATE), w


@dataclass(frozen=True, init=False, repr=False)
class DeterministicRate(GaussianSqrtTRate):
    """Constant per-period simple rate r: the GaussianSqrtTRate with vol = 0."""

    def __init__(self, r: float) -> None:
        super().__init__(r, 0.0)

    def __post_init__(self) -> None:
        _check_finite_scalar(self.base, "r")
        if not self.base > -1.0:
            raise ValueError(f"rate must be > -1, got {self.base}")

    @property
    def r(self) -> float:
        return self.base

    def __repr__(self) -> str:
        return f"DeterministicRate(r={self.base!r})"

    # perfbench/tracing.py wraps the sample found in each rate class's own namespace.
    sample = GaussianSqrtTRate.sample


# DeterministicRate is the vol = 0 case.
RateModel = GaussianSqrtTRate
