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
from scipy.integrate import quad

from .dist import DiscreteEmpirical, Distribution
from .errors import NumericalError
from .prefs import CptPreferences, _weight

__all__ = ["CptValue", "cpt_discrete", "cpt_cdf", "cpt_scaled_position", "TAIL_MASS"]

# Probability mass ignored in each tail when truncating the quadrature range.
# With alpha < 1 the discarded contribution is far below quadrature tolerance
# for any distribution with normal-like tails.
TAIL_MASS = 1e-10

_QUAD_LIMIT = 400


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
    v = d.values
    cum = d.cumulative
    a, lam = prefs.alpha, prefs.lam
    upper = 1.0 - np.concatenate(([0.0], cum))  # upper[i] = P(X >= x_i), upper[i+1] = P(X > x_i)

    gain = 0.0
    pos = np.nonzero(v > 0.0)[0]
    if pos.size:
        w_hi = _weight(upper[pos], prefs.gamma)  # distorted P(X >= x_i)
        w_lo = _weight(upper[pos + 1], prefs.gamma)  # distorted P(X > x_i)
        gain = float(np.dot(w_hi - w_lo, v[pos] ** a))

    loss = 0.0
    neg = np.nonzero(v < 0.0)[0]
    if neg.size:
        lower = np.concatenate(([0.0], cum))  # lower[i] = P(X < x_i); cum[i] = P(X <= x_i)
        w_hi = _weight(cum[neg], prefs.delta)
        w_lo = _weight(lower[neg], prefs.delta)
        loss = float(lam * np.dot(w_hi - w_lo, (-v[neg]) ** a))

    return CptValue(gain, loss)


def _quad_leg(integrand, s_hi: float, breaks, tol: float, label: str) -> float:
    points = None
    if breaks is not None:
        inside = np.asarray(breaks, dtype=float)
        inside = np.unique(inside[(inside > 0.0) & (inside < s_hi)])
        if inside.size:
            points = inside
    out = quad(
        integrand,
        0.0,
        s_hi,
        epsabs=0.1 * tol,
        epsrel=0.1 * tol,
        limit=_QUAD_LIMIT,
        points=points,
        full_output=1,
    )
    if len(out) > 3:
        raise NumericalError(f"{label} leg quadrature did not converge: {out[3]}")
    return max(float(out[0]), 0.0)


def cpt_cdf(
    prefs: CptPreferences,
    d: Distribution,
    tol: float = 1e-9,
    tail_mass: float = TAIL_MASS,
) -> CptValue:
    """Prospect value by adaptive quadrature on the distorted tail CDFs.

    Each leg is integrated in the transformed variable s = x**alpha over
    [0, q**alpha], where q is the 1 - tail_mass (respectively tail_mass)
    quantile. For finite distributions the atom positions are handed to the
    integrator as breakpoints, which makes the piecewise-constant integrand
    exact; the result then matches ``cpt_discrete`` to quadrature precision.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 0.0 < tail_mass < 0.5:
        raise ValueError(f"tail_mass must lie in (0, 0.5), got {tail_mass}")
    a, lam = prefs.alpha, prefs.lam
    inv_a = 1.0 / a
    gamma, delta = prefs.gamma, prefs.delta
    atoms = d.values if isinstance(d, DiscreteEmpirical) else None

    gain = 0.0
    x_hi = d.quantile(1.0 - tail_mass)
    if x_hi > 0.0:

        def gain_integrand(s: float) -> float:
            return _weight(1.0 - d.cdf(s**inv_a), gamma)

        breaks = atoms[atoms > 0.0] ** a if atoms is not None else None
        gain = _quad_leg(gain_integrand, x_hi**a, breaks, tol, "gain")

    loss = 0.0
    x_lo = d.quantile(tail_mass)
    if x_lo < 0.0:

        def loss_integrand(s: float) -> float:
            return lam * _weight(d.cdf(-(s**inv_a)), delta)

        breaks = (-atoms[atoms < 0.0]) ** a if atoms is not None else None
        loss = _quad_leg(loss_integrand, (-x_lo) ** a, breaks, tol, "loss")

    return CptValue(gain, loss)


def cpt_scaled_position(
    prefs: CptPreferences, d: Distribution, amount: float, tol: float = 1e-9
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
    return CptValue(scale * unit.gain_part, scale * unit.loss_part)
