"""The Cephes ndtr/ndtri port against scipy.special, its reference.

scipy evaluates the same Cephes routines in float64, so the port must return
scipy's bits on a seeded sample and on both sides of every branch edge, and
`Normal.cdf`/`Normal.quantile` must return them for every input kind.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc

from cptalloc import _ndtr
from cptalloc.choquet import TAIL_MASS
from cptalloc.dist import Normal


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def assert_same_bits(f, ref, xs):
    xs = np.asarray(xs, dtype=float)
    got = np.array([f(x) for x in xs.tolist()])
    with np.errstate(all="ignore"):
        want = ref(xs)
    bad = np.flatnonzero(bits(got) != bits(want))
    assert not bad.size, list(zip(xs[bad][:5], got[bad][:5], want[bad][:5]))


def around(x: float, ulps: int) -> np.ndarray:
    """The floats within `ulps` steps of x > 0."""
    return (np.float64(x).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)


def test_ndtr_sample_matches_scipy():
    rng = np.random.default_rng(20170)
    xs = np.concatenate((
        rng.normal(0.0, 3.0, 60_000),
        rng.uniform(-40.0, 40.0, 40_000),
        np.linspace(-2.0, 2.0, 10_001),
        rng.uniform(-1e-10, 1e-10, 1_000),
    ))
    assert_same_bits(_ndtr.ndtr, sc.ndtr, xs)


def test_ndtri_sample_matches_scipy():
    rng = np.random.default_rng(20171)
    ps = np.concatenate((rng.uniform(0.0, 1.0, 50_000), 10.0 ** rng.uniform(-323.0, 0.0, 50_000)))
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    assert ps.size > 99_000
    assert_same_bits(_ndtr.ndtri, sc.ndtri, ps)


def test_ndtr_branch_edges_match_scipy():
    # Where |x| / sqrt(2) crosses sqrt(1/2) (erf or erfc), 1 (erfc's erf
    # branch) and 8 (erfc's two rational forms), and where exp(-x**2 / 2)
    # would be subnormal.
    edges = {
        1.0: lambda z: z < _ndtr.SQRT1_2,
        math.sqrt(2.0): lambda z: z < 1.0,
        8.0 * math.sqrt(2.0): lambda z: z < 8.0,
        math.sqrt(2.0 * _ndtr.MAXLOG): lambda z: -z * z < -_ndtr.MAXLOG,
    }
    for edge, branch in edges.items():
        xs = around(edge, 8)
        taken = branch(xs * _ndtr.SQRT1_2)
        assert taken.any() and not taken.all(), edge  # the edge is crossed
        assert_same_bits(_ndtr.ndtr, sc.ndtr, np.concatenate((xs, -xs)))
    extremes = [0.0, -0.0, 40.0, -40.0, 1e300, -1e300, math.inf, -math.inf, 5e-324, -5e-324]
    assert_same_bits(_ndtr.ndtr, sc.ndtr, extremes)


def test_ndtri_branch_edges_match_scipy():
    exp_m32 = math.exp(-32.0)
    ys = around(exp_m32, 300)
    x = np.sqrt(-2.0 * np.log(ys))
    assert (x < 8.0).any() and (x >= 8.0).any()  # the P1/P2 switch is crossed
    ps = np.concatenate((
        around(_ndtr.EXP_M2, 8),
        around(1.0 - _ndtr.EXP_M2, 8),
        ys,
        1.0 - ys,
        around(TAIL_MASS, 8),
        around(1.0 - TAIL_MASS, 8),
        [5e-324, 1e-323, 2.0**-1022, 0.5, 1.0 - 2.0**-53],
    ))
    lo, hi = 1.0 - _ndtr.EXP_M2, _ndtr.EXP_M2
    assert (ps > lo).any() and (ps == lo).any() and (ps > hi).any() and (ps == hi).any()
    assert_same_bits(_ndtr.ndtri, sc.ndtri, ps)


LAW = Normal(0.045, 1.69)


@pytest.mark.parametrize("method, ref, point", [
    ("cdf", lambda z: sc.ndtr((z - LAW.mu) / LAW.sigma), -0.7),
    ("quantile", lambda p: LAW.mu + LAW.sigma * sc.ndtri(p), 0.03),
])
def test_every_input_kind_gives_the_same_bits(method, ref, point):
    f = getattr(LAW, method)
    grid = np.linspace(point, point + 0.9, 12).reshape(3, 4)
    want = ref(grid)
    got = f(grid)
    assert isinstance(got, np.ndarray) and got.shape == (3, 4)
    assert (bits(got) == bits(want)).all()
    for i, x in np.ndenumerate(grid):
        for kind in (float(x), np.float64(x), np.array(x)):
            out = f(kind)
            assert type(out) is float and bits(out) == bits(want[i]), (kind, out, want[i])
    assert f(np.array([])).shape == (0,)


@pytest.mark.parametrize("law, method, xs", [
    (Normal(1e300, 1.69), "cdf", [4.5e299, -1e308, 1e308]),
    (Normal(0.0, 1.0), "cdf", [-40.0, 40.0, -1e308, 1e308]),
    (Normal(1e308, 1.0), "cdf", [-1e308]),  # the standardised argument overflows
    (Normal(np.float64(0.0), np.float64(1.0)), "cdf", [1e300, -1e300]),
    (Normal(0.0, 1.0), "quantile", [5e-324, 1.0 - 2.0**-53]),
    (Normal(1e308, 1e308), "quantile", [5e-324, 0.5, 1.0 - 2.0**-53]),  # the quantile overflows
])
def test_extreme_inputs_warn_nothing_and_match_scipy(law, method, xs):
    xs = np.array(xs)
    with np.errstate(all="ignore"):
        if method == "cdf":
            want = sc.ndtr((xs - law.mu) / law.sigma)
        else:
            want = law.mu + law.sigma * sc.ndtri(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(law, method)(xs)
        scalars = [getattr(law, method)(x) for x in xs.tolist()]
    assert (bits(got) == bits(want)).all(), (got, want)
    assert (bits(scalars) == bits(want)).all(), (scalars, want)
    assert all(type(v) is float for v in scalars)


def test_cdf_is_accurate_against_mpmath():
    law = Normal(0.0, 1.0)
    with mp.workdps(40):
        for x in np.linspace(-20.0, 8.0, 561).tolist():
            exact = mp.ncdf(x)
            assert abs(law.cdf(x) - exact) <= 1e-13 * exact, x
