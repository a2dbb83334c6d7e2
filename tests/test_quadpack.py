"""The QAGS port against scipy.integrate.quad, its reference.

scipy runs the same QUADPACK routines in float64, so the port must return
scipy's value, error estimate and evaluation count bit for bit, and report
failure exactly when scipy attaches a message.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from cptalloc import _quadpack, choquet
from cptalloc._quadpack import MESSAGES, quad
from cptalloc.choquet import cpt_cdf
from cptalloc.dist import Normal
from cptalloc.errors import NumericalError
from cptalloc.prefs import CptPreferences

LIMITS = (1, 2, 3, 400)
# (epsabs, epsrel): scipy's defaults, each side zero, and tolerances too tight to meet.
TOLERANCES = ((1.49e-8, 1.49e-8), (0.0, 1e-10), (1e-12, 0.0), (0.0, 1.2e-14), (1e-300, 0.0))
INTERVALS = ((0.0, 1.0), (0.0, 3.0), (-1.0, 2.0))


def _guard(g):
    """g(x), with 0 where g raises at a singular point."""

    def f(x):
        try:
            return g(x)
        except (ZeroDivisionError, ValueError):
            return 0.0

    return f


INTEGRANDS = {
    "inv_sqrt": _guard(lambda x: 1.0 / math.sqrt(abs(x))),
    "log": _guard(lambda x: math.log(abs(x))),
    "power_-0.9": _guard(lambda x: abs(x) ** -0.9),
    "sin_inv": _guard(lambda x: math.sin(1.0 / x)),
    "step": lambda x: 1.0 if x > 0.3 else 0.0,
    "zero": lambda x: 0.0,
    "log_over_sqrt": _guard(lambda x: math.log(x) / math.sqrt(x)),
    "inv_abs_mid": _guard(lambda x: 1.0 / abs(x - 1.0 / 3.0)),
    "inv_square_mid": _guard(lambda x: 1.0 / (x - 1.0 / 3.0) ** 2),
    # Smooth: at epsabs = 1e-300, epsrel = 0 the first panel already reports roundoff.
    "exp": math.exp,
    # On [0, 3] at epsrel = 1.2e-14 the epsilon table fills to its limit of 50 and shifts.
    "sin_inv_over_x": _guard(lambda x: math.sin(1.0 / x) / x),
    # Its integral over [0, 1] is exactly 0. At epsrel = 1e-10 QAGS reports
    # roundoff with its running area and extrapolated value both 0.0, and
    # returns the sum of the panels.
    "zero_sum_step": lambda x: -2.0 if x < 63.0 / 64.0 else 126.0,
}


def _odd_pole_and_step(x):
    """10*sign(x)*|x|**-0.9 plus a step; each integrates to about 0 over [-1, 1]."""
    pole = 0.0 if x == 0.0 else math.copysign(10.0 * abs(x) ** -0.9, x)
    return pole + (-2.0 if x < -3.0 / 32.0 else 58.0 / 35.0)



def reference(f, a, b, epsabs, epsrel, limit):
    """scipy's QAGS as (value, abserr, neval, has_message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about rounding in some integrands
        out = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    return out[0], out[1], out[2]["neval"], len(out) > 3


def ported(f, a, b, epsabs, epsrel, limit):
    out = quad(f, a, b, epsabs, epsrel, limit)
    assert len(out) in (3, 4) and set(out[2]) == {"neval"}
    if len(out) > 3:
        assert out[3] in MESSAGES.values()
    return out[0], out[1], out[2]["neval"], len(out) > 3


def same_bits(x, y) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_identical(got, want):
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (got, want)
    assert got[2:] == want[2:], (got, want)


def test_rule_constants_are_scipys():
    # On [-1, 1] with limit=1 scipy evaluates exactly +-xgk, and an integrand
    # that is 1 at one node and 0 elsewhere integrates to that node's weight.
    nodes = []
    scipy_quad(lambda x: nodes.append(x) or 0.0, -1.0, 1.0, limit=1, full_output=1)
    centre, pairs = nodes[0], nodes[1:]
    gauss = _quadpack._XGK[1::2]
    kronrod = _quadpack._XGK[0::2]
    assert centre == 0.0
    assert pairs == [s * x for x in gauss + kronrod for s in (-1.0, 1.0)]

    def weight(node):
        return scipy_quad(lambda x: float(x == node), -1.0, 1.0, limit=1, full_output=1)[0]

    assert [weight(x) for x in _quadpack._XGK] == list(_quadpack._WGK)
    assert weight(0.0) == _quadpack._WGK_CENTRE

    # The 10-point Gauss-Legendre weights of the even-numbered nodes, rounded to float64.
    with mp.workdps(40):
        for x, w in zip(gauss, _quadpack._WG):
            root = mp.findroot(lambda t: mp.legendre(10, t), x)
            assert float(root) == x
            assert float(2 / ((1 - root**2) * mp.diff(lambda t: mp.legendre(10, t), root) ** 2)) == w


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_matches_scipy_bit_for_bit(name):
    f = INTEGRANDS[name]
    for a, b in INTERVALS:
        for limit in LIMITS:
            for epsabs, epsrel in TOLERANCES:
                want = reference(f, a, b, epsabs, epsrel, limit)
                assert_identical(ported(f, a, b, epsabs, epsrel, limit), want)


def test_zero_area_at_the_subinterval_limit_matches_scipy():
    """At limit 15 the running area is 0.0 and the extrapolation error is
    below the sum of the panel errors, so QAGS skips its divergence test, a
    branch the grid above does not reach."""
    args = (_odd_pole_and_step, -1.0, 1.0, 1.49e-8, 1.49e-8, 15)
    assert_identical(ported(*args), reference(*args))


def test_cases_reach_every_failure_code():
    codes = {0}
    for f in INTEGRANDS.values():
        for a, b in INTERVALS:
            for epsabs, epsrel in TOLERANCES:
                out = quad(f, a, b, epsabs, epsrel, 400)
                if len(out) > 3:
                    codes.add(next(k for k, v in MESSAGES.items() if v == out[3]))
    assert codes == {0, 1, 2, 3, 4, 5}


def test_rejects_unattainable_tolerance_like_scipy():
    with pytest.raises(ValueError):
        scipy_quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)
    with pytest.raises(ValueError):
        quad(math.exp, 0.0, 1.0, 0.0, 1e-20, 400)


def test_cpt_cdf_legs_match_scipy(monkeypatch):
    """Every leg `cpt_cdf` integrates, over fixed laws, preferences and tolerances."""
    legs = []

    def checked_quad(f, a, b, epsabs, epsrel, limit):
        legs.append(ported(f, a, b, epsabs, epsrel, limit))
        assert_identical(legs[-1], reference(f, a, b, epsabs, epsrel, limit))
        return quad(f, a, b, epsabs, epsrel, limit)

    monkeypatch.setattr(choquet, "quad", checked_quad)
    rng = np.random.default_rng(20161)
    prefs = [CptPreferences(0.88, 2.25, 0.61, 0.69), CptPreferences(0.5, 1.5, 0.9, 0.35)]
    laws = [Normal(0.045, 1.69), Normal(-0.3, 0.05)]
    laws += [Normal(float(m), float(s)) for m, s in zip(rng.normal(0.0, 1.0, 6), rng.uniform(0.01, 3.0, 6))]
    for p in prefs:
        for d in laws:
            for tol in (1e-9, 1e-13, 1e-300):
                try:
                    cpt_cdf(p, d, tol)
                except NumericalError:
                    pass  # the tightest tolerance ends in a roundoff report, which is compared too
    assert {leg[3] for leg in legs} == {False, True}
