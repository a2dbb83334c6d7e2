import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptalloc import CptPreferences, distort, value
from cptalloc.prefs import _weight

TK = CptPreferences(0.88, 2.20, 0.61, 0.69)


def weight_hp(p, e):
    """Full-precision reference for the weighting curve."""
    p, e = mp.mpf(p), mp.mpf(e)
    if p == 0:
        return mp.mpf(0)
    return p**e / (p**e + (1 - p) ** e) ** (1 / e)


class TestValueFunction:
    def test_zero(self):
        assert value(TK, 0.0) == 0.0

    def test_unit_gain(self):
        assert value(TK, 1.0) == 1.0

    def test_unit_loss(self):
        assert value(TK, -1.0) == pytest.approx(-2.20, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            value(TK, np.nan)
        with pytest.raises(ValueError):
            value(TK, np.inf)

    def test_array_input(self):
        out = value(TK, np.array([0.0, 1.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, -2.2])


class TestDistortion:
    def test_endpoints(self):
        assert distort(TK, "gain", 0.0) == 0.0
        assert distort(TK, "gain", 1.0) == 1.0
        assert distort(TK, "loss", 0.0) == 0.0
        assert distort(TK, "loss", 1.0) == 1.0

    def test_gain_half_matches_high_precision(self):
        expected = float(weight_hp(0.5, 0.61))
        assert distort(TK, "gain", 0.5) == pytest.approx(expected, abs=1e-12)
        assert distort(TK, "gain", 0.5) == pytest.approx(0.4207, abs=5e-4)

    def test_loss_half_matches_high_precision(self):
        expected = float(weight_hp(0.5, 0.69))
        assert distort(TK, "loss", 0.5) == pytest.approx(expected, abs=1e-12)
        assert distort(TK, "loss", 0.5) == pytest.approx(0.4540, abs=5e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            distort(TK, "gain", -0.1)
        with pytest.raises(ValueError):
            distort(TK, "gain", 1.1)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            distort(TK, "up", 0.5)


@pytest.mark.parametrize("e", [0.29, 0.5, 0.61, 0.69, 0.99])
def test_float_weight_equals_zero_d_expression(e):
    # The integrands' float path against the 0-d array expression it
    # replaced, by repr. numpy's array power differs from the C library's pow
    # in some last bits (about 6 % of these draws on x86-64 with SIMD), so a
    # first power taken with Python's ** fails here; on a host where the two
    # powers agree, this test cannot fail.
    draws = np.random.default_rng(20160830).uniform(size=2000).tolist()
    edges = [0.0, 5e-324, 1e-300, 0.3, 0.997209935789211, 1.0 - 2.0**-53, 1.0]
    for p in edges + draws:
        pv = np.asarray(p)
        num = pv**e
        want = num / (num + (1.0 - pv) ** e) ** (1.0 / e)
        assert repr(_weight(p, e)) == repr(float(want)), p


@pytest.mark.parametrize("side", ["gain", "loss"])
def test_distort_gives_each_scalar_kind_the_zero_d_bits(side):
    # distort hands a 0-d p over to _weight as a float. A float, a numpy
    # scalar and a 0-d array must all keep the bits of the 0-d array
    # expression, so a hand-over whose first power is Python's ** fails here.
    e = TK.gamma if side == "gain" else TK.delta
    draws = np.random.default_rng(20160830).uniform(size=2000).tolist()
    edges = [0.0, 5e-324, 1e-300, 0.3, 0.997209935789211, 1.0 - 2.0**-53, 1.0]
    for p in edges + draws:
        pv = np.asarray(p)
        num = pv**e
        want = repr(float(num / (num + (1.0 - pv) ** e) ** (1.0 / e)))
        assert [repr(distort(TK, side, x)) for x in (p, np.float64(p), pv)] == [want] * 3, p


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError, match="0 < alpha < 1"):
            CptPreferences(alpha, 2.2, 0.61, 0.69)

    @pytest.mark.parametrize("lam", [1.0, 0.5, -1.0, np.inf])
    def test_lam_bounds(self, lam):
        with pytest.raises(ValueError, match="lam > 1"):
            CptPreferences(0.88, lam, 0.61, 0.69)

    @pytest.mark.parametrize("g", [0.28, 0.2, 1.0, 1.3])
    def test_distortion_bounds(self, g):
        with pytest.raises(ValueError, match="0.28 < gamma < 1"):
            CptPreferences(0.88, 2.2, g, 0.69)
        with pytest.raises(ValueError, match="0.28 < delta < 1"):
            CptPreferences(0.88, 2.2, 0.61, g)

    def test_wellposedness_enforced(self):
        # alpha = 0.9 >= 2*0.43 fails, just below passes
        with pytest.raises(ValueError):
            CptPreferences(0.9, 2.2, 0.43, 0.95)
        CptPreferences(0.85, 2.2, 0.43, 0.95)


@given(
    x=st.floats(min_value=1e-6, max_value=1e6),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_value_positive_homogeneity(x, c):
    a = TK.alpha
    for s in (x, -x):
        np.testing.assert_allclose(value(TK, c * s), c**a * value(TK, s), rtol=1e-10)


@given(x=st.floats(min_value=1e-9, max_value=1e9))
def test_value_odd_signed(x):
    assert value(TK, x) > 0.0
    assert value(TK, -x) < 0.0


@given(
    lo=st.floats(min_value=1e-4, max_value=0.9999),
    step=st.floats(min_value=1e-6, max_value=0.5),
    e=st.floats(min_value=0.281, max_value=0.999),
)
@settings(max_examples=200)
def test_distortion_strictly_increasing_and_bounded(lo, step, e):
    hi = min(lo + step, 1.0)
    prefs = CptPreferences(min(0.5, 1.9 * e), 2.0, e, e)
    w_lo = distort(prefs, "gain", lo)
    w_hi = distort(prefs, "gain", hi)
    assert 0.0 <= w_lo <= 1.0 and 0.0 <= w_hi <= 1.0
    if hi > lo:
        assert w_hi > w_lo


@given(
    x=st.floats(min_value=1e-6, max_value=1e6),
    y=st.floats(min_value=1e-6, max_value=1e6),
)
def test_value_strictly_increasing_each_side(x, y):
    lo, hi = sorted((x, y))
    if hi > lo:
        assert value(TK, hi) > value(TK, lo)
        assert value(TK, -hi) < value(TK, -lo)
