import mpmath as mp
import numpy as np
import pytest

from cptalloc import (
    CptPreferences,
    CptValue,
    DiscreteEmpirical,
    Normal,
    NumericalError,
    cpt_cdf,
    cpt_discrete,
    cpt_scaled_position,
    discretize,
    distort,
)

TK = CptPreferences(0.88, 2.20, 0.61, 0.69)
COIN = DiscreteEmpirical([-1.0, 1.0], [0.5, 0.5])


def random_discrete(rng, n_atoms=None, spread=3.0):
    n = n_atoms or rng.integers(2, 9)
    vals = rng.uniform(-spread, spread, n)
    probs = rng.dirichlet(np.ones(n))
    return DiscreteEmpirical(vals, probs)


def two_atom_value_hp(prefs, x_gain, x_loss, p_gain):
    """Full-precision rank-dependent sum for a two-atom gamble."""
    mp.mp.dps = 50
    a, lam = mp.mpf(prefs.alpha), mp.mpf(prefs.lam)

    def w(p, e):
        p, e = mp.mpf(p), mp.mpf(e)
        return p**e / (p**e + (1 - p) ** e) ** (1 / e)

    gain = w(p_gain, prefs.gamma) * mp.mpf(x_gain) ** a
    loss = lam * w(1 - p_gain, prefs.delta) * mp.mpf(-x_loss) ** a
    return float(gain - loss)


class TestDiscreteOracle:
    def test_degenerate_zero(self):
        out = cpt_discrete(TK, DiscreteEmpirical([0.0], [1.0]))
        assert out.value == 0.0
        assert out.gain_part == 0.0 and out.loss_part == 0.0

    @pytest.mark.parametrize(
        "prefs",
        [TK, CptPreferences(0.5, 1.5, 0.4, 0.9), CptPreferences(0.3, 3.0, 0.8, 0.3)],
    )
    def test_degenerate_one(self, prefs):
        out = cpt_discrete(prefs, DiscreteEmpirical([1.0], [1.0]))
        assert out.value == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_coin(self):
        out = cpt_discrete(TK, COIN)
        assert out.gain_part == pytest.approx(distort(TK, "gain", 0.5), abs=1e-15)
        assert out.loss_part == pytest.approx(2.20 * distort(TK, "loss", 0.5), abs=1e-15)
        assert out.value == pytest.approx(-0.578, abs=1e-3)
        assert out.value == pytest.approx(two_atom_value_hp(TK, 1.0, -1.0, 0.5), abs=1e-12)

    def test_asymmetric_two_atom_matches_high_precision(self):
        d = DiscreteEmpirical([1.0, -0.2], [0.6, 0.4])
        out = cpt_discrete(TK, d)
        assert out.value == pytest.approx(two_atom_value_hp(TK, 1.0, -0.2, 0.6), abs=1e-12)

    def test_loss_aversion_makes_symmetric_gambles_negative(self):
        prefs = CptPreferences(0.88, 2.2, 0.69, 0.69)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = np.sort(rng.uniform(0.1, 5.0, 3))
            p = rng.dirichlet(np.ones(3)) / 2.0
            d = DiscreteEmpirical(np.concatenate((-x, x)), np.concatenate((p, p)))
            assert cpt_discrete(prefs, d).value < 0.0

    def test_fosd_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            base = np.sort(rng.uniform(-2, 2, n))
            probs = rng.dirichlet(np.ones(n))
            lifts = rng.uniform(0.001, 0.8, n)
            lo = DiscreteEmpirical(base, probs)
            hi = DiscreteEmpirical(base + lifts, probs)
            assert cpt_discrete(TK, hi).value >= cpt_discrete(TK, lo).value


class TestQuadratureRoute:
    def test_matches_oracle_on_step_cdfs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = random_discrete(rng)
            exact = cpt_discrete(TK, d)
            quadr = cpt_cdf(TK, d, 1e-9)
            assert quadr.value == pytest.approx(exact.value, abs=1e-9)
            assert quadr.gain_part == pytest.approx(exact.gain_part, abs=1e-9)
            assert quadr.loss_part == pytest.approx(exact.loss_part, abs=1e-9)

    def test_near_degenerate_normal(self):
        out = cpt_cdf(TK, Normal(1.0, 1e-9), 1e-9)
        assert out.value == pytest.approx(1.0, abs=1e-6)

    def test_matches_fine_discretization_of_normal(self):
        d = Normal(0.045, 1.69)
        quadr = cpt_cdf(TK, d, 1e-9)
        oracle = cpt_discrete(TK, discretize(d, 10**6))
        assert quadr.value == pytest.approx(oracle.value, rel=1e-3)

    def test_one_sided_distributions(self):
        gains_only = DiscreteEmpirical([0.5, 2.0], [0.4, 0.6])
        out = cpt_cdf(TK, gains_only, 1e-10)
        assert out.loss_part == 0.0
        assert out.value == pytest.approx(cpt_discrete(TK, gains_only).value, abs=1e-10)
        losses_only = gains_only.negate()
        out = cpt_cdf(TK, losses_only, 1e-10)
        assert out.gain_part == 0.0
        assert out.value == pytest.approx(cpt_discrete(TK, losses_only).value, abs=1e-10)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            cpt_cdf(TK, COIN, 0.0)

    def test_reports_non_convergence(self):
        class PathologicalCdf:
            # valid enough for truncation bounds, hostile to subdivision
            def cdf(self, x):
                xv = np.asarray(x, dtype=float)
                out = np.clip(xv + 0.01 * np.sign(np.sin(12345.0 * xv)), 0.0, 1.0)
                return float(out) if xv.ndim == 0 else out

            def quantile(self, p):
                pv = np.asarray(p, dtype=float)
                return float(pv) if pv.ndim == 0 else pv

        with pytest.raises(NumericalError, match="did not converge"):
            cpt_cdf(TK, PathologicalCdf(), 1e-12)


class TestHomogeneity:
    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_exact_route(self, c):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = random_discrete(rng)
            scaled = DiscreteEmpirical(c * d.values, d.probs)
            base = cpt_discrete(TK, d).value
            got = cpt_discrete(TK, scaled).value
            want = c**TK.alpha * base
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_quadrature_route(self, c):
        d = Normal(0.045, 1.69)
        scaled = Normal(c * 0.045, c * 1.69)
        tol = 1e-9
        got = cpt_cdf(TK, scaled, tol).value
        want = c**TK.alpha * cpt_cdf(TK, d, tol).value
        assert abs(got - want) <= 2.0 * tol * max(1.0, abs(want))


class TestScaledPosition:
    def test_zero(self):
        out = cpt_scaled_position(TK, COIN, 0.0)
        assert out.value == 0.0

    def test_identity(self):
        assert cpt_scaled_position(TK, COIN, 1.0).value == cpt_discrete(TK, COIN).value

    def test_short_position_matches_reflected_atoms(self):
        d = DiscreteEmpirical([1.0, -0.2], [0.6, 0.4])
        got = cpt_scaled_position(TK, d, -3.0)
        reflected = DiscreteEmpirical(-3.0 * d.values, d.probs)
        want = cpt_discrete(TK, reflected)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.gain_part == pytest.approx(want.gain_part, rel=1e-12)
        assert got.loss_part == pytest.approx(want.loss_part, rel=1e-12)

    def test_homogeneity_ratio(self):
        v1 = cpt_scaled_position(TK, COIN, 1.0).value
        v2 = cpt_scaled_position(TK, COIN, 2.0).value
        assert v2 / v1 == pytest.approx(2.0**TK.alpha, rel=1e-12)

    def test_normal_route(self):
        got = cpt_scaled_position(TK, Normal(0.045, 1.69), 2.0, 1e-9)
        want = 2.0**TK.alpha * cpt_cdf(TK, Normal(0.045, 1.69), 1e-9).value
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cpt_scaled_position(TK, COIN, np.inf)


def test_refinement_stability():
    d = Normal(0.045, 1.69)
    values = [cpt_discrete(TK, discretize(d, n)).value for n in (250, 500, 1000, 2000, 4000)]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-4


def test_cpt_value_invariants():
    v = CptValue(2.0, 0.5)
    assert v.value == 1.5
    with pytest.raises(ValueError):
        CptValue(-0.1, 0.5)
    with pytest.raises(ValueError):
        CptValue(0.1, -0.5)
