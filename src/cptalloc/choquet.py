"""Prospect-value evaluation via Choquet integrals.

The objective of a CPT investor splits into a gain leg and a loss leg,

    U(X) = integral of T_gain(P(X > x)) du+(x)
         - integral of T_loss(P(X <= -x)) du-(x),    both over x in (0, inf),

with u+(x) = x**alpha and u-(x) = lam * x**alpha. Two evaluation routes are
provided and kept deliberately independent of each other:

* ``cpt_discrete`` computes the exact rank-dependent sums for a finite
  distribution. It is the canonical oracle.
* ``cpt_cdf`` integrates the legs for any CDF-specified distribution. The
  substitution s = x**alpha turns du+ into ds and removes the x**(alpha-1)
  endpoint singularity, leaving a bounded integrand for adaptive quadrature.
  The quadrature route must agree with the oracle, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import cptalloc

from .dist import DiscreteEmpirical, Distribution, _sorted_distinct
from .errors import NumericalError
from .prefs import CptPreferences, _weight

__all__ = ["CptValue", "cpt_discrete", "cpt_cdf", "cpt_scaled_position", "TAIL_MASS"]

# Probability mass ignored in each tail when truncating the quadrature range.
# With alpha < 1 the discarded contribution is far below quadrature tolerance
# for any distribution with normal-like tails.
TAIL_MASS = 1e-10
CDF_TOL = 1e-9  # the default quadrature tolerance, also SolverSettings.cdf_tol's

_QUAD_LIMIT = 400


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK's QAGS, ``cptalloc._quadpack.quad``. ``cpt_cdf`` calls it by
    this module's name, so a wrapper set here sees every quadrature."""
    return cptalloc._quadpack.quad(f, a, b, epsabs, epsrel, limit)


@dataclass(frozen=True)
class CptValue:
    """Prospect value split into its two non-negative Choquet legs."""

    gain_part: float
    loss_part: float

    def __post_init__(self) -> None:
        if self.gain_part < 0.0 or self.loss_part < 0.0:
            raise ValueError("gain_part and loss_part must be non-negative")

    @property
    def value(self) -> float:
        return self.gain_part - self.loss_part


def cpt_discrete(prefs: CptPreferences, d: DiscreteEmpirical) -> CptValue:
    """Exact prospect value of a finite distribution.

    Gains are weighted by increments of the distorted upper-tail probability,
    losses by increments of the distorted lower-tail probability, each atom
    contributing at its value-function level.
    """
    gain, loss = _cpt_rows(prefs, d.values[None], d._cum_padded[None], [d.values.size])
    return CptValue(float(gain[0]), float(loss[0]))


def _cpt_rows(prefs: CptPreferences, values: np.ndarray, lower: np.ndarray, n: list) -> tuple:
    """Gain and loss legs of finite distributions, one per row.

    `values`, `lower` (the CDF below each value, led by a 0) and the list `n`
    are as ``dist._merge_rows`` returns them. Each row takes one BLAS dot
    per leg over contiguous slices, so its legs do not depend on the other
    rows.
    """
    rows = values.shape[0]
    n_neg = (values < 0.0).sum(axis=1).tolist()  # losses come first in a sorted row
    first_gain = (n - (values > 0.0).sum(axis=1)).tolist()
    # lower[:, j] = P(X < x_j). A row's gain dot reads the weights of columns
    # first_gain..n of lower, its loss dot those of 0..n_neg, so each leg
    # weights only the columns some row reads. Each leg's weights are freed
    # once differenced: at most three (rows, k) arrays are alive at a time.
    g0 = min(first_gain)
    w_gain = _weight(1.0 - lower[:, g0:max(n) + 1], prefs.gamma)  # distorted P(X >= x_j)
    d_gain = w_gain[:, :-1] - w_gain[:, 1:]
    del w_gain
    w_loss = _weight(lower[:, :max(n_neg) + 1], prefs.delta)
    d_loss = w_loss[:, 1:] - w_loss[:, :-1]
    del w_loss
    level = np.abs(values)
    level **= prefs.alpha

    gain = np.zeros(rows)
    loss = np.zeros(rows)
    for i, (neg, pos, end) in enumerate(zip(n_neg, first_gain, n)):
        if pos < end:
            gain[i] = np.dot(d_gain[i, pos - g0:end - g0], level[i, pos:end])
        if neg:
            # A Python float product: an overflow gives inf, not numpy's RuntimeWarning.
            loss[i] = prefs.lam * float(np.dot(d_loss[i, :neg], level[i, :neg]))
    if (gain < 0.0).any() or (loss < 0.0).any():
        raise ValueError("gain_part and loss_part must be non-negative")
    return gain, loss


def _quad_leg(integrand, s_hi: float, breaks, tol: float, label: str, p: float) -> float:
    """Integrate one leg over [0, s_hi], s_hi being the leg's p-quantile in s.

    Atom breakpoints split the range into segments, each integrated alone by
    QAGS and summed in order.
    """
    if not np.isfinite(s_hi):
        raise NumericalError(f"{label} leg: the {p!r} quantile of the return overflows float64")
    edges = [0.0, s_hi]
    if breaks is not None:
        inside = _sorted_distinct(breaks[(breaks > 0.0) & (breaks < s_hi)])
        edges = [0.0, *inside.tolist(), s_hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        out = quad(integrand, a, b, 0.1 * tol, 0.1 * tol, _QUAD_LIMIT)
        if len(out) > 3:
            raise NumericalError(f"{label} leg quadrature did not converge: {out[3]}")
        total += out[0]
    return max(total, 0.0)


def cpt_cdf(prefs: CptPreferences, d: Distribution, tol: float = CDF_TOL) -> CptValue:
    """Prospect value by adaptive quadrature on the distorted tail CDFs.

    Each leg is integrated in the transformed variable s = x**alpha over
    [0, q**alpha], where q is the 1 - TAIL_MASS (respectively TAIL_MASS)
    quantile. For finite distributions the range is split at the atom
    positions, which makes the piecewise-constant integrand exact on each
    segment; the result then matches ``cpt_discrete`` to quadrature precision.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    a, lam = prefs.alpha, prefs.lam
    inv_a = 1.0 / a
    gamma, delta = prefs.gamma, prefs.delta
    atoms = d.values if isinstance(d, DiscreteEmpirical) else None

    gain = 0.0
    x_hi = d.quantile(1.0 - TAIL_MASS)
    if x_hi > 0.0:

        def gain_integrand(s: float) -> float:
            return _weight(1.0 - d.cdf(s**inv_a), gamma)

        breaks = atoms[atoms > 0.0] ** a if atoms is not None else None
        gain = _quad_leg(gain_integrand, x_hi**a, breaks, tol, "gain", 1.0 - TAIL_MASS)

    loss = 0.0
    x_lo = d.quantile(TAIL_MASS)
    if x_lo < 0.0:

        def loss_integrand(s: float) -> float:
            return lam * _weight(d.cdf(-(s**inv_a)), delta)

        breaks = (-atoms[atoms < 0.0]) ** a if atoms is not None else None
        loss = _quad_leg(loss_integrand, (-x_lo) ** a, breaks, tol, "loss", TAIL_MASS)

    return CptValue(gain, loss)


def cpt_scaled_position(
    prefs: CptPreferences, d: Distribution, amount: float, tol: float = CDF_TOL
) -> CptValue:
    """Prospect value of holding `amount` dollars of the risky excess return.

    Positive homogeneity reduces the position to |amount|**alpha times the
    unit value of the return (long) or its negation (short). Finite
    distributions are evaluated exactly, others by quadrature.
    """
    if not np.isfinite(amount):
        raise ValueError(f"amount must be finite, got {amount!r}")
    if amount == 0.0:
        return CptValue(0.0, 0.0)
    base = d if amount > 0.0 else d.negate()
    unit = cpt_discrete(prefs, base) if isinstance(base, DiscreteEmpirical) else cpt_cdf(prefs, base, tol)
    scale = abs(amount) ** prefs.alpha
    gain, loss = scale * unit.gain_part, scale * unit.loss_part
    if not np.isfinite(gain - loss):
        raise NumericalError(f"prospect value overflows float64 (gains {gain:g}, losses {loss:g})")
    return CptValue(gain, loss)
