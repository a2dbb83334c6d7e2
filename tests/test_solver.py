import io

import numpy as np
import pytest

from cptalloc import (
    Constraints,
    CptPreferences,
    DeterministicRate,
    DiscreteEmpirical,
    GaussianSqrtTRate,
    Normal,
    PolicyCoefficients,
    PolicyTable,
    SolverSettings,
    TerminalStats,
    backward_induction,
    cpt_discrete,
    optimal_trade,
    recursion_step,
    terminal_coefficients,
    terminal_stats,
)

TK = CptPreferences(0.88, 2.20, 0.61, 0.69)
BOUNDS = Constraints(-5.0, 5.0)
SKEWED = DiscreteEmpirical([1.0, -0.2], [0.6, 0.4])
ZERO_Y = DiscreteEmpirical([0.0], [1.0])


def brute_force_terminal(prefs, constraints, stats, n=100_000):
    """Independent grid maximization of the last-period objectives."""
    a = prefs.alpha
    k, h = stats.long_value, stats.short_value
    zs = np.linspace(constraints.lo_frac, constraints.hi_frac, n)
    g = np.abs(zs) ** a * np.where(zs >= 0.0, k, h)
    zs_hat = np.linspace(-constraints.hi_frac, -constraints.lo_frac, n)
    l = np.abs(zs_hat) ** a * np.where(zs_hat <= 0.0, k, h)
    return g.max(), l.max(), (zs[1] - zs[0])


class TestTerminalStats:
    def test_zero_return(self):
        st = terminal_stats(TK, ZERO_Y)
        assert st.long_value == 0.0 and st.short_value == 0.0

    def test_deterministic_positive_return(self):
        m = 0.045
        st = terminal_stats(TK, DiscreteEmpirical([m], [1.0]))
        assert st.long_value == pytest.approx(m**0.88, rel=1e-12)
        assert st.long_value == pytest.approx(0.0653, abs=5e-5)
        assert st.short_value == pytest.approx(-2.2 * m**0.88, rel=1e-12)
        assert st.short_value == pytest.approx(-0.1436, abs=5e-5)

    def test_symmetric_coin(self):
        coin = DiscreteEmpirical([-1.0, 1.0], [0.5, 0.5])
        st = terminal_stats(TK, coin)
        assert st.long_value == st.short_value
        assert st.long_value == pytest.approx(cpt_discrete(TK, coin).value, abs=1e-15)

    def test_normal_route(self):
        st = terminal_stats(TK, Normal(0.045, 1.69), tol=1e-9)
        assert st.long_value < 0.0 and st.short_value < 0.0


class TestTerminalCoefficients:
    def test_positive_long_value_goes_to_upper_corner(self):
        row = terminal_coefficients(TK, BOUNDS, TerminalStats(0.1, -0.5))
        assert row.k_star == 5.0
        assert row.a_coef == pytest.approx(5.0**0.88 * 0.1, rel=1e-14)
        assert row.a_coef == pytest.approx(0.4122, abs=5e-5)

    def test_both_negative_stays_out(self):
        row = terminal_coefficients(TK, BOUNDS, TerminalStats(-0.3, -0.7))
        assert row.k_star == 0.0 and row.a_coef == 0.0
        assert row.k_hat_star == 0.0 and row.b_coef == 0.0

    def test_symmetric_stats_symmetric_bounds(self):
        for k in (0.2, -0.2):
            row = terminal_coefficients(TK, BOUNDS, TerminalStats(k, k))
            assert row.a_coef == pytest.approx(5.0**0.88 * max(k, 0.0), abs=1e-14)
            if k < 0:
                assert row.k_star == 0.0

    def test_corner_membership_and_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            gamma, delta = rng.uniform(0.3, 0.99, 2)
            alpha = rng.uniform(0.05, min(0.99, 2 * min(gamma, delta) - 0.02))
            prefs = CptPreferences(alpha, rng.uniform(1.1, 4.0), gamma, delta)
            cons = Constraints(-float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.5, 6.0)))
            stats = TerminalStats(float(rng.normal(0, 1)), float(rng.normal(0, 1)))
            row = terminal_coefficients(prefs, cons, stats)
            assert row.k_star in (cons.lo_frac, 0.0, cons.hi_frac)
            assert row.k_hat_star in (-cons.hi_frac, 0.0, -cons.lo_frac)
            g_max, l_max, dz = brute_force_terminal(prefs, cons, stats)
            slack = dz**alpha * max(abs(stats.long_value), abs(stats.short_value), 1.0)
            assert g_max - 1e-12 <= row.a_coef <= g_max + slack
            assert -l_max - slack <= row.b_coef <= -l_max + 1e-12


class TestRecursionStep:
    def test_zero_return_collapses_to_compounding(self):
        nxt = PolicyCoefficients(1, 1.0, -1.0, 0.0, 0.0)
        row = recursion_step(TK, BOUNDS, nxt, DeterministicRate(0.03), ZERO_Y)
        assert row.t == 0
        assert row.a_coef == pytest.approx(1.03**0.88, rel=1e-14)
        assert row.a_coef == pytest.approx(1.0264, abs=5e-5)
        assert row.b_coef == pytest.approx(-(1.03**0.88), rel=1e-14)
        assert row.k_star == pytest.approx(0.0, abs=1e-12)

    def test_zero_terminal_stats_propagate_zero(self):
        table = backward_induction(TK, BOUNDS, DeterministicRate(0.03), ZERO_Y, 4)
        for row in table.rows:
            assert row.a_coef == 0.0 and row.b_coef == 0.0
            assert row.k_star == pytest.approx(0.0, abs=1e-12)

    def test_sure_gain_maxes_out_every_period(self):
        y = DiscreteEmpirical([0.045], [1.0])
        table = backward_induction(TK, BOUNDS, DeterministicRate(0.03), y, 4)
        for row in table.rows:
            assert row.k_star == 5.0

    def test_random_rate_at_time_zero_equals_fixed_rate(self):
        stats = terminal_stats(TK, SKEWED)
        nxt = terminal_coefficients(TK, BOUNDS, stats, t=1)
        fixed = recursion_step(TK, BOUNDS, nxt, DeterministicRate(0.03), SKEWED)
        random = recursion_step(TK, BOUNDS, nxt, GaussianSqrtTRate(0.03, 0.5), SKEWED)
        assert fixed == random

    def test_requires_later_period_row(self):
        nxt = PolicyCoefficients(0, 1.0, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            recursion_step(TK, BOUNDS, nxt, DeterministicRate(0.03), SKEWED)


def enumerate_policy_sequences(prefs, stats, grid, r, y, horizon):
    """Exhaustive search over constant-fraction sequences on the grid.

    Valid as an oracle when ruin is unreachable, so wealth stays positive and
    the final trade's prospect value splits by the sign of the trade alone.
    """
    a = prefs.alpha
    k, h = stats.long_value, stats.short_value
    yv, yp = y.values, y.probs

    def final_value(v):
        return np.maximum(v, 0.0) ** a * k + np.maximum(-v, 0.0) ** a * h

    if horizon == 1:
        return max(float(final_value(np.array([z]))[0]) for z in grid)
    if horizon == 2:
        best = -np.inf
        for z0 in grid:
            w1 = 1.0 + r + z0 * yv
            for z1 in grid:
                best = max(best, float(np.dot(yp, final_value(z1 * w1))))
        return best
    if horizon == 3:
        w2 = (
            (1.0 + r + np.multiply.outer(grid, yv))[:, None, :, None]
            * (1.0 + r + np.multiply.outer(grid, yv))[None, :, None, :]
        )
        pp = np.multiply.outer(yp, yp)
        best = -np.inf
        for z2 in grid:
            vals = np.einsum("abij,ij->ab", final_value(z2 * w2), pp)
            best = max(best, float(vals.max()))
        return best
    raise NotImplementedError


class TestBackwardInduction:
    def test_single_period_is_terminal_row(self):
        table = backward_induction(TK, BOUNDS, DeterministicRate(0.03), SKEWED, 1)
        assert table.horizon == 1
        stats = terminal_stats(TK, SKEWED)
        assert table.rows[0] == terminal_coefficients(TK, BOUNDS, stats, t=0)

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_matches_exhaustive_enumeration(self, horizon):
        rng = np.random.default_rng(horizon)
        settings = SolverSettings(grid_points=101, z_tol=1e-12, refine=False)
        cons = Constraints(-0.9, 0.9)
        grid = np.linspace(-0.9, 0.9, 101)
        for _ in range(3):
            n = int(rng.integers(2, 6))
            y = DiscreteEmpirical(rng.uniform(-0.5, 0.5, n), rng.dirichlet(np.ones(n)))
            r = float(rng.uniform(0.0, 0.05))
            table = backward_induction(TK, cons, DeterministicRate(r), y, horizon, settings)
            want = enumerate_policy_sequences(TK, terminal_stats(TK, y), grid, r, y, horizon)
            assert table.rows[0].a_coef == pytest.approx(want, abs=1e-9)

    def test_rows_do_not_depend_on_query_time(self):
        settings = SolverSettings(grid_points=301)
        table = backward_induction(TK, BOUNDS, DeterministicRate(0.02), SKEWED, 5, settings)
        stats = terminal_stats(TK, SKEWED, settings.cdf_tol)
        row = terminal_coefficients(TK, BOUNDS, stats, t=4)
        assert row == table.rows[4]
        for t in range(3, -1, -1):
            row = recursion_step(TK, BOUNDS, row, DeterministicRate(0.02), SKEWED, settings)
            assert row == table.rows[t]

    def test_sign_structure(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            gamma, delta = rng.uniform(0.35, 0.99, 2)
            alpha = rng.uniform(0.1, min(0.99, 2 * min(gamma, delta) - 0.05))
            prefs = CptPreferences(alpha, rng.uniform(1.2, 3.5), gamma, delta)
            cons = Constraints(-float(rng.uniform(0, 4)), float(rng.uniform(0.5, 4)))
            n = int(rng.integers(2, 6))
            y = DiscreteEmpirical(rng.uniform(-1.5, 1.5, n), rng.dirichlet(np.ones(n)))
            table = backward_induction(
                prefs, cons, DeterministicRate(0.03), y, 3, SolverSettings(grid_points=201)
            )
            for row in table.rows:
                assert row.a_coef >= 0.0
                assert row.b_coef <= 0.0
                assert cons.lo_frac <= row.k_star <= cons.hi_frac
                assert -cons.hi_frac <= row.k_hat_star <= -cons.lo_frac

    def test_grid_refinement_monotone(self):
        values = []
        for n in (251, 501, 1001):
            table = backward_induction(
                TK, BOUNDS, DeterministicRate(0.03), SKEWED, 3, SolverSettings(grid_points=n)
            )
            values.append(table.rows[0].a_coef)
        for coarse, fine in zip(values, values[1:]):
            assert fine >= coarse - 1e-6 * (1.0 + abs(coarse))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            backward_induction(TK, BOUNDS, DeterministicRate(0.03), SKEWED, 0)

    def test_deterministic_given_settings(self):
        args = (TK, BOUNDS, GaussianSqrtTRate(0.03, 0.003), Normal(0.1, 0.3), 3)
        t1 = backward_induction(*args, SolverSettings(grid_points=201))
        t2 = backward_induction(*args, SolverSettings(grid_points=201))
        assert t1.rows == t2.rows

    def test_stationary_schedule_equals_single_distribution(self):
        settings = SolverSettings(grid_points=101)
        single = backward_induction(TK, BOUNDS, DeterministicRate(0.03), SKEWED, 3, settings)
        sched = backward_induction(
            TK, BOUNDS, DeterministicRate(0.03), [SKEWED] * 3, 3, settings
        )
        assert single.rows == sched.rows

    def test_schedule_maps_entries_to_periods(self):
        # Terminal row comes from the last entry, earlier rows from their own.
        settings = SolverSettings(grid_points=101)
        sure_gain = DiscreteEmpirical([0.045], [1.0])
        table = backward_induction(
            TK, BOUNDS, DeterministicRate(0.03), [SKEWED, sure_gain], 2, settings
        )
        stats = terminal_stats(TK, sure_gain)
        assert table.rows[1] == terminal_coefficients(TK, BOUNDS, stats, t=1)
        assert table.rows[0] == recursion_step(
            TK, BOUNDS, table.rows[1], DeterministicRate(0.03), SKEWED, settings
        )

    def test_rejects_bad_schedule_length(self):
        with pytest.raises(ValueError, match="one entry per period"):
            backward_induction(TK, BOUNDS, DeterministicRate(0.03), [SKEWED] * 2, 3)


class TestOptimalTrade:
    def test_zero_wealth(self):
        row = PolicyCoefficients(0, 1.0, -1.0, 3.0, -2.0)
        assert optimal_trade(row, 0.0) == 0.0

    def test_positive_wealth(self):
        row = PolicyCoefficients(0, 1.0, 0.0, 0.8, 0.0)
        assert optimal_trade(row, 0.8) == pytest.approx(0.64, abs=1e-15)

    def test_negative_wealth_respects_bounds(self):
        rng = np.random.default_rng(7)
        lo, hi = BOUNDS.lo_frac, BOUNDS.hi_frac
        for _ in range(50):
            k_hat = float(rng.uniform(-hi, -lo))
            w = float(-rng.uniform(0.01, 10.0))
            v = optimal_trade(PolicyCoefficients(0, 0.0, 0.0, 0.0, k_hat), w)
            assert lo * abs(w) - 1e-12 <= v <= hi * abs(w) + 1e-12
            if k_hat != 0.0:
                assert np.sign(v) == -np.sign(k_hat)

    def test_scale_invariance(self):
        row = PolicyCoefficients(0, 1.0, -1.0, 1.7, -0.4)
        for w in (0.5, -0.5, 3.0):
            for c in (0.1, 2.0, 1e4):
                np.testing.assert_allclose(
                    optimal_trade(row, c * w), c * optimal_trade(row, w), rtol=1e-12
                )


class TestPolicyTable:
    def test_requires_contiguous_rows(self):
        r0 = PolicyCoefficients(0, 0.0, 0.0, 0.0, 0.0)
        r2 = PolicyCoefficients(2, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PolicyTable((r0, r2))

    def test_csv_schema_roundtrip(self):
        table = backward_induction(
            TK, BOUNDS, DeterministicRate(0.03), SKEWED, 3, SolverSettings(grid_points=101)
        )
        buf = io.StringIO()
        table.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,A_t,B_t,kStar,kHatStar"
        assert len(lines) == 4
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == t
            row = table.rows[t]
            assert float(cells[1]) == row.a_coef
            assert float(cells[2]) == row.b_coef
            assert float(cells[3]) == row.k_star
            assert float(cells[4]) == row.k_hat_star

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            PolicyCoefficients(0, -0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PolicyCoefficients(0, 0.5, 0.2, 0.0, 0.0)
        with pytest.raises(ValueError):
            PolicyCoefficients(-1, 0.5, 0.0, 0.0, 0.0)
