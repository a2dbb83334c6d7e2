import math
import tracemalloc

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
import cptalloc.choquet as choquet
from cptalloc.choquet import TAIL_MASS
from cptalloc.prefs import _weight

TK = CptPreferences(0.88, 2.20, 0.61, 0.69)
COIN = DiscreteEmpirical([-1.0, 1.0], [0.5, 0.5])
SQRT = CptPreferences(0.5, 2.20, 0.61, 0.69)
# lam * 1e10**alpha overflows float64 in the loss leg; the gain leg stays finite.
HUGE_LAM = CptPreferences(0.88, 1e300, 0.61, 0.69)
LAM_GAMBLE = DiscreteEmpirical([10.0, -1e10], [0.5, 0.5])


def random_discrete(rng, n_atoms=None, spread=3.0):
    n = n_atoms or rng.integers(2, 9)
    vals = rng.uniform(-spread, spread, n)
    probs = rng.dirichlet(np.ones(n))
    return DiscreteEmpirical(vals, probs)


def two_atom_value_hp(prefs, x_gain, x_loss, p_gain):
    """Full-precision rank-dependent sum for a two-atom gamble."""
    with mp.workdps(50):
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

    def test_high_precision_reference_leaves_the_precision_alone(self):
        with mp.workdps(20):
            two_atom_value_hp(TK, 1.0, -0.2, 0.6)
            assert mp.mp.dps == 20

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

    @pytest.mark.parametrize(
        "prefs, values, n_segments",
        [
            (TK, [-1.0, 2.0], 2),  # no breakpoint inside either leg
            (TK, [-1.0, 0.5, 2.0], 3),  # one inside the gain leg
            # Two atoms whose square roots round to the same float: one break.
            (SQRT, [-2.0, 1.0, math.nextafter(1.0, 2.0), 3.0], 3),
            (TK, [-3.0, -2.0, -1.0, 1.0], 4),  # the loss leg's breaks come descending
            (TK, [-3.0, -2.0, -2.0, 0.0, 1.5, 1.5, 4.0], 4),
        ],
    )
    def test_breakpoints_equal_np_unique(self, monkeypatch, prefs, values, n_segments):
        segments = []
        quad = choquet.quad

        def recording_quad(f, a, b, *args):
            segments.append((a, b))
            return quad(f, a, b, *args)

        monkeypatch.setattr(choquet, "quad", recording_quad)
        d = DiscreteEmpirical(values, np.full(len(values), 1.0 / len(values)))
        cpt_cdf(prefs, d)
        want = []
        a = prefs.alpha
        for s_hi, breaks in [(d.quantile(1.0 - TAIL_MASS) ** a, d.values[d.values > 0.0] ** a),
                             ((-d.quantile(TAIL_MASS)) ** a, (-d.values[d.values < 0.0]) ** a)]:
            edges = [0.0, *np.unique(breaks[(breaks > 0.0) & (breaks < s_hi)]).tolist(), s_hi]
            want += zip(edges[:-1], edges[1:])
        assert len(segments) == n_segments
        assert np.array(segments).tobytes() == np.array(want).tobytes()

    def test_near_degenerate_normal(self):
        out = cpt_cdf(TK, Normal(1.0, 1e-9), 1e-9)
        assert out.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.xfail(raises=AssertionError, reason="QAGS ends after one 21-point panel on a "
                       "near-step Normal law and misses cdf_tol")
    def test_near_step_normal_matches_mpmath_to_cdf_tol(self):
        tol = 1e-9
        for mu, sigma in [(2.0, 1e-4), (1.0, 1e-5), (0.3, 1e-6)]:
            d = Normal(mu, sigma)
            # The gain leg alone (these laws have no loss leg), over cpt_cdf's
            # range in s = x**alpha, split at the step s = mu**alpha.
            with mp.workdps(30):
                a, m, sd, g = (mp.mpf(v) for v in (TK.alpha, mu, sigma, TK.gamma))

                def gain_integrand(s):
                    p = mp.ncdf((m - s ** (1 / a)) / sd)  # P(X > s**(1/alpha))
                    return p**g / (p**g + (1 - p) ** g) ** (1 / g)

                s_hi = mp.mpf(d.quantile(1.0 - TAIL_MASS)) ** a
                want = float(mp.quad(gain_integrand, [0, m**a, s_hi]))
            out = cpt_cdf(TK, d, tol)
            assert out.loss_part == 0.0
            assert out.gain_part == pytest.approx(want, rel=tol), (mu, sigma)

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
        with pytest.raises(ValueError, match="tol must be finite"):
            cpt_cdf(TK, Normal(0.3, 0.5), np.inf)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "prefs, d, amount",
        [
            (TK, DiscreteEmpirical([1e300, -1e300], [0.5, 0.5]), 1e300),  # inf - inf
            (TK, Normal(1e300, 1e-300), 1e300),  # quadrature route
            (HUGE_LAM, LAM_GAMBLE, 1.0),
        ],
        ids=["both_legs", "normal_gain_leg", "loss_leg"],
    )
    def test_overflow_is_numerical_error(self, prefs, d, amount):
        with pytest.raises(NumericalError, match="overflows float64"):
            cpt_scaled_position(prefs, d, amount)

    @pytest.mark.filterwarnings("error")
    def test_oracle_loss_leg_overflows_to_inf_silently(self):
        out = cpt_discrete(HUGE_LAM, LAM_GAMBLE)
        assert out.loss_part == np.inf
        assert np.isfinite(out.gain_part) and out.gain_part > 0.0


def scalar_reference(values, probs):
    """DiscreteEmpirical's merge as a standalone scalar routine: stable sort,
    np.unique, np.add.at, normalise, cumsum ending at 1.0."""
    v = np.asarray(values, dtype=float).ravel()
    p = np.asarray(probs, dtype=float).ravel()
    order = np.argsort(v, kind="stable")
    v, p = v[order], p[order]
    uniq, inverse = np.unique(v, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, p)
    merged /= merged.sum()
    cum = np.cumsum(merged)
    cum[-1] = 1.0
    return uniq, merged, cum


def scalar_reference_value(prefs, v, cum):
    """The rank-dependent sums of cpt_discrete, written for one distribution."""
    a, lam = prefs.alpha, prefs.lam
    upper = 1.0 - np.concatenate(([0.0], cum))
    gain = 0.0
    pos = np.nonzero(v > 0.0)[0]
    if pos.size:
        w_hi = _weight(upper[pos], prefs.gamma)
        w_lo = _weight(upper[pos + 1], prefs.gamma)
        gain = float(np.dot(w_hi - w_lo, v[pos] ** a))
    loss = 0.0
    neg = np.nonzero(v < 0.0)[0]
    if neg.size:
        lower = np.concatenate(([0.0], cum))
        w_hi = _weight(cum[neg], prefs.delta)
        w_lo = _weight(lower[neg], prefs.delta)
        loss = float(lam * np.dot(w_hi - w_lo, (-v[neg]) ** a))
    return CptValue(gain, loss)


def reference_inputs():
    """Seeded finite distributions: duplicates, runs of signed zeros, a single
    atom, all-gain, all-loss and a 10**5-atom draw."""
    rng = np.random.default_rng(29)
    cases = [([2.5], [1.0]), ([-0.0], [1.0]), ([0.0, -0.0, 0.0], [0.2, 0.3, 0.5])]
    for _ in range(40):
        n = int(rng.integers(2, 40))
        cases.append((rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n))))
        cases.append((rng.integers(-3, 4, n) * 0.5, rng.dirichlet(np.ones(n))))
        zeros = rng.choice([-0.0, 0.0, 0.7, -1.3], n)
        cases.append((zeros, rng.dirichlet(np.ones(n))))
        cases.append((rng.uniform(0.1, 3.0, n), rng.dirichlet(np.ones(n))))
        cases.append((-rng.uniform(0.1, 3.0, n), rng.dirichlet(np.ones(n))))
    n = 10**5
    cases.append((rng.standard_normal(n).round(3), rng.dirichlet(np.ones(n))))
    return cases


def test_oracle_matches_scalar_reference():
    for values, probs in reference_inputs():
        d = DiscreteEmpirical(values, probs)
        uniq, merged, cum = scalar_reference(values, probs)
        assert np.array_equal(d.values, uniq)
        assert np.array_equal(d.probs, merged)
        assert np.array_equal(d.cumulative, cum)
        neg_uniq, _, neg_cum = scalar_reference(-uniq, merged)
        for dist, v, c in ((d, uniq, cum), (d.negate(), neg_uniq, neg_cum)):
            want = scalar_reference_value(TK, v, c)
            got = cpt_discrete(TK, dist)
            if np.isnan(want.value):
                assert np.isfinite(got.value)
            else:
                assert repr(got) == repr(want)


def test_rare_top_atom_scores_finite():
    # Rounding leaves the partial sums above 1 before the 1e-20 atom: the
    # scalar reference scores the gain leg NaN, the clamped merge does not.
    values = [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0, 2.0]
    probs = [0.16666666666666666] * 6 + [1e-20]
    d = DiscreteEmpirical(values, probs)
    uniq, merged, cum = scalar_reference(values, probs)
    assert np.array_equal(d.values, uniq) and np.array_equal(d.probs, merged)
    assert (cum > 1.0).any()
    assert np.array_equal(d.cumulative, np.minimum(cum, 1.0))
    with np.errstate(invalid="ignore"):
        assert np.isnan(scalar_reference_value(TK, uniq, cum).gain_part)
    assert np.isfinite(cpt_discrete(TK, d).value)


def test_discrete_value_on_distinct_atoms_peaks_under_three_copies():
    # 10**5 atoms are 0.8 MB a copy. Each leg weights only its own atoms,
    # and its weights are freed once differenced; the value levels come last.
    rng = np.random.default_rng(5)
    n = 10**5
    d = DiscreteEmpirical(0.05 + 0.3 * rng.standard_normal(n), np.full(n, 1.0 / n))
    cpt_discrete(TK, COIN)  # lazy set-up first
    tracemalloc.start()
    try:
        cpt_discrete(TK, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


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
