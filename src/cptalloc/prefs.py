"""CPT preference primitives: power value function and probability distortions.

Parameters are validated once at construction so the evaluation routines stay
branch-light inside inner loops. All preference objects are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CptPreferences",
    "value",
    "distort",
]


@dataclass(frozen=True)
class CptPreferences:
    """Complete CPT preference set: the S-shaped value function's curvature
    alpha and loss aversion lam, and the exponents gamma and delta of the
    gain-side and loss-side probability weighting curves.

    Construction enforces the well-posedness condition alpha < 2*min(gamma,
    delta), without which the gain/loss integrals of the prospect value can
    diverge.
    """

    alpha: float
    lam: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {self.alpha}")
        if not 1.0 < self.lam < np.inf:
            raise ValueError(f"lam must be finite and satisfy lam > 1, got {self.lam}")
        if not 0.28 < self.gamma < 1.0:
            raise ValueError(f"gamma must satisfy 0.28 < gamma < 1, got {self.gamma}")
        if not 0.28 < self.delta < 1.0:
            raise ValueError(f"delta must satisfy 0.28 < delta < 1, got {self.delta}")
        bound = 2.0 * min(self.gamma, self.delta)
        if not self.alpha < bound:
            raise ValueError(
                f"ill-posed preferences: alpha must satisfy "
                f"alpha < 2*min(gamma, delta), got alpha={self.alpha}, bound={bound}"
            )


def value(prefs: CptPreferences, x):
    """Evaluate the value function: x**alpha on gains, -lam*(-x)**alpha on losses.

    Accepts a scalar or an ndarray; rejects non-finite input.
    """
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)):
        raise ValueError("value: x must be finite")
    a = prefs.alpha
    out = np.maximum(xv, 0.0) ** a - prefs.lam * np.maximum(-xv, 0.0) ** a
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def _weight(p, exponent: float):
    """Inverse-S probability weighting curve p**e / (p**e + (1-p)**e)**(1/e),
    of a float p or elementwise of an array p with ndim >= 1."""
    if isinstance(p, float):
        # A scalar p: numpy's array power first, as on a 0-d array (its last
        # bits can differ from libm's pow), then floats and libm's pow.
        num = float(np.asarray(p) ** exponent)
        return num / (num + (1.0 - p) ** exponent) ** (1.0 / exponent)
    pv = np.asarray(p, dtype=float)
    num = pv**exponent
    # The same ufuncs in the same order, in place: one temporary, not three.
    den = 1.0 - pv
    den **= exponent
    np.add(num, den, out=den)
    den **= 1.0 / exponent
    num /= den
    return num


def distort(prefs: CptPreferences, side: str, p):
    """Apply the gain- or loss-side probability distortion to p in [0, 1]."""
    if side not in ("gain", "loss"):
        raise ValueError(f"side must be 'gain' or 'loss', got {side!r}")
    pv = np.asarray(p, dtype=float)
    if not (np.all(pv >= 0.0) and np.all(pv <= 1.0)):
        raise ValueError("distort: p must lie in [0, 1]")
    e = prefs.gamma if side == "gain" else prefs.delta
    return _weight(float(pv) if pv.ndim == 0 else pv, e)
