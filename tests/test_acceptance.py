"""End-to-end gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and are not meant to be tuned.
"""

import time
from contextlib import contextmanager
from pathlib import Path

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
    backward_induction,
    benchmarked_wealth,
    cpt_cdf,
    cpt_discrete,
    discretize,
    inconsistency_demo,
    simulate_paths,
    terminal_coefficients,
    terminal_stats,
)

BASE_PREFS = CptPreferences(0.88, 2.20, 0.61, 0.69)
BASE_BOUNDS = Constraints(-5.0, 5.0)
BASE_RETURN = Normal(0.045, 1.69)
BASE_RATE = GaussianSqrtTRate(0.03, 0.003)
BASE_HORIZON = 10
CDF_TOL = 1e-9
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS")


@pytest.fixture(scope="module")
def discrete_fixtures():
    rng = np.random.default_rng(20260810)
    out = []
    for _ in range(50):
        n = int(rng.integers(2, 51))
        out.append(DiscreteEmpirical(rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n))))
    return out


def test_criterion_1_choquet_oracle_equivalence(discrete_fixtures):
    with criterion(1, "Choquet oracle equivalence"):
        start = time.perf_counter()
        for d in discrete_fixtures:
            exact = cpt_discrete(BASE_PREFS, d)
            quadr = cpt_cdf(BASE_PREFS, d, CDF_TOL)
            assert abs(quadr.value - exact.value) <= 1e-6
        quadr = cpt_cdf(BASE_PREFS, BASE_RETURN, CDF_TOL)
        oracle = cpt_discrete(BASE_PREFS, discretize(BASE_RETURN, 10**6))
        assert abs(quadr.value - oracle.value) <= 1e-3 * abs(oracle.value)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_homogeneity(discrete_fixtures):
    with criterion(2, "positive homogeneity"):
        a = BASE_PREFS.alpha
        for d in discrete_fixtures:
            base = cpt_discrete(BASE_PREFS, d).value
            for c in (0.5, 2.0, 10.0):
                got = cpt_discrete(BASE_PREFS, DiscreteEmpirical(c * d.values, d.probs)).value
                want = c**a * base
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
        for mu, sigma in ((0.045, 1.69), (-0.5, 0.8), (0.2, 2.5)):
            base = cpt_cdf(BASE_PREFS, Normal(mu, sigma), CDF_TOL).value
            for c in (0.5, 2.0, 10.0):
                got = cpt_cdf(BASE_PREFS, Normal(c * mu, c * sigma), CDF_TOL).value
                want = c**a * base
                assert abs(got - want) <= 2.0 * CDF_TOL * max(1.0, abs(want))


def test_criterion_3_fosd_monotonicity():
    with criterion(3, "first-order stochastic dominance"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            base = np.sort(rng.uniform(-2.0, 2.0, n))
            probs = rng.dirichlet(np.ones(n))
            lifts = rng.uniform(0.001, 1.0, n)
            lo = DiscreteEmpirical(base, probs)
            hi = DiscreteEmpirical(base + lifts, probs)
            assert cpt_discrete(BASE_PREFS, hi).value >= cpt_discrete(BASE_PREFS, lo).value


def test_criterion_4_terminal_corner_property():
    with criterion(4, "terminal corner property"):
        rng = np.random.default_rng(4)
        zs_cache = {}
        for _ in range(100):
            gamma, delta = rng.uniform(0.3, 0.99, 2)
            alpha = float(rng.uniform(0.05, min(0.99, 2.0 * min(gamma, delta) - 0.02)))
            prefs = CptPreferences(alpha, float(rng.uniform(1.1, 4.0)), gamma, delta)
            cons = Constraints(-float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.5, 6.0)))
            n = int(rng.integers(2, 9))
            y = DiscreteEmpirical(rng.uniform(-2.0, 2.0, n), rng.dirichlet(np.ones(n)))
            stats = terminal_stats(prefs, y)
            row = terminal_coefficients(prefs, cons, stats)
            assert row.k_star in (cons.lo_frac, 0.0, cons.hi_frac)
            assert row.k_hat_star in (-cons.hi_frac, 0.0, -cons.lo_frac)

            key = (cons.lo_frac, cons.hi_frac)
            if key not in zs_cache:
                zs_cache[key] = (
                    np.linspace(cons.lo_frac, cons.hi_frac, 100_000),
                    np.linspace(-cons.hi_frac, -cons.lo_frac, 100_000),
                )
            zs, zs_hat = zs_cache[key]
            k, h = stats.long_value, stats.short_value
            g_max = float((np.abs(zs) ** alpha * np.where(zs >= 0.0, k, h)).max())
            l_max = float((np.abs(zs_hat) ** alpha * np.where(zs_hat <= 0.0, k, h)).max())
            dz = zs[1] - zs[0]
            slack = dz**alpha * max(abs(k), abs(h), 1.0)
            assert g_max - 1e-12 <= row.a_coef <= g_max + slack
            assert -l_max - slack <= row.b_coef <= -l_max + 1e-12


def test_criterion_5_recursion_sign_invariants():
    with criterion(5, "recursion sign invariants"):
        tables = [
            backward_induction(BASE_PREFS, BASE_BOUNDS, BASE_RATE, BASE_RETURN, BASE_HORIZON)
        ]
        rng = np.random.default_rng(5)
        fast = SolverSettings(grid_points=201, y_nodes=32, r_nodes=8)
        for i in range(20):
            gamma, delta = rng.uniform(0.35, 0.99, 2)
            alpha = float(rng.uniform(0.1, min(0.99, 2.0 * min(gamma, delta) - 0.05)))
            prefs = CptPreferences(alpha, float(rng.uniform(1.2, 3.5)), gamma, delta)
            cons = Constraints(-float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.4, 4.0)))
            if i % 2 == 0:
                n = int(rng.integers(2, 7))
                y = DiscreteEmpirical(rng.uniform(-1.5, 1.5, n), rng.dirichlet(np.ones(n)))
            else:
                y = Normal(float(rng.normal(0.0, 0.3)), float(rng.uniform(0.1, 2.0)))
            rate = DeterministicRate(0.03) if i % 3 else GaussianSqrtTRate(0.03, 0.01)
            horizon = int(rng.integers(2, 5))
            tables.append(backward_induction(prefs, cons, rate, y, horizon, fast))
        for table in tables:
            for row in table.rows:
                assert row.a_coef >= 0.0, f"A_{row.t} = {row.a_coef}"
                assert row.b_coef <= 0.0, f"B_{row.t} = {row.b_coef}"


def _enumerate_sequences(prefs, stats, grid, r, y, horizon):
    """Exhaustive constant-fraction policy search; instances avoid ruin."""
    a = prefs.alpha
    k, h = stats.long_value, stats.short_value
    yv, yp = y.values, y.probs

    def final_value(v):
        return np.maximum(v, 0.0) ** a * k + np.maximum(-v, 0.0) ** a * h

    if horizon == 1:
        return float(final_value(grid).max())
    if horizon == 2:
        growth = 1.0 + r + np.multiply.outer(grid, yv)  # (z0, y1)
        best = -np.inf
        for z1 in grid:
            vals = final_value(z1 * growth) @ yp
            best = max(best, float(vals.max()))
        return best
    if horizon == 3:
        growth = 1.0 + r + np.multiply.outer(grid, yv)
        w2 = growth[:, None, :, None] * growth[None, :, None, :]  # (z0, z1, y1, y2)
        pp = np.multiply.outer(yp, yp)
        best = -np.inf
        for z2 in grid:
            vals = np.einsum("abij,ij->ab", final_value(z2 * w2), pp)
            best = max(best, float(vals.max()))
        return best
    raise NotImplementedError


def test_criterion_6_small_instance_dp_oracle():
    with criterion(6, "small-instance dynamic-programming oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        cons = Constraints(-0.9, 0.9)
        grid = np.linspace(-0.9, 0.9, 101)
        settings = SolverSettings(grid_points=101, z_tol=1e-12, refine=False)
        for horizon in (1, 2, 3):
            for _ in range(4):
                n = int(rng.integers(2, 6))
                y = DiscreteEmpirical(rng.uniform(-0.5, 0.5, n), rng.dirichlet(np.ones(n)))
                r = float(rng.uniform(0.0, 0.05))
                table = backward_induction(
                    BASE_PREFS, cons, DeterministicRate(r), y, horizon, settings
                )
                want = _enumerate_sequences(
                    BASE_PREFS, terminal_stats(BASE_PREFS, y), grid, r, y, horizon
                )
                assert abs(table.rows[0].a_coef - want) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def _first_period_fraction(prefs=BASE_PREFS, y=BASE_RETURN, rate=BASE_RATE):
    table = backward_induction(prefs, BASE_BOUNDS, rate, y, BASE_HORIZON)
    return table.rows[0].k_star, table


def test_criterion_7_baseline_trends():
    with criterion(7, "baseline qualitative trends"):
        start = time.perf_counter()

        k_alpha = []
        for alpha in (0.5, 0.6, 0.7, 0.8, 0.88):
            prefs = CptPreferences(alpha, 2.20, 0.61, 0.69)
            k_alpha.append(_first_period_fraction(prefs=prefs)[0])
        assert all(b >= a for a, b in zip(k_alpha, k_alpha[1:])), k_alpha

        k_sigma = [
            _first_period_fraction(y=Normal(0.045, s))[0] for s in (1.0, 1.69, 2.5)
        ]
        assert all(b <= a for a, b in zip(k_sigma, k_sigma[1:])), k_sigma

        k_mu = [
            _first_period_fraction(y=Normal(m, 1.69))[0] for m in (0.02, 0.045, 0.08)
        ]
        assert all(b >= a for a, b in zip(k_mu, k_mu[1:])), k_mu

        k0, table = _first_period_fraction()
        ks = [row.k_star for row in table.rows]
        assert all(ks[t + 1] <= ks[t] + 1e-3 for t in range(len(ks) - 1)), ks

        k_fixed, _ = _first_period_fraction(rate=DeterministicRate(0.03))
        assert k0 >= k_fixed - 1e-3, (k0, k_fixed)

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_8_inconsistency_demo():
    with criterion(8, "time-inconsistency demo"):
        fixture = DiscreteEmpirical.from_csv(CONFIG_DIR / "demo_gamble.csv")
        assert fixture.values.size == 2
        first = inconsistency_demo(BASE_PREFS, BASE_BOUNDS, fixture, 0.0, 0.5, 21)
        second = inconsistency_demo(BASE_PREFS, BASE_BOUNDS, fixture, 0.0, 0.5, 21)
        assert first.to_text() == second.to_text()
        assert first.low.time_consistent_k_star == first.high.time_consistent_k_star
        assert first.low.time_consistent_k_star in (-5.0, 0.0, 5.0)
        print(
            f"\n  reported gaps: cross-rate {first.cross_rate_gap:.6g}, "
            f"vs time-consistent {first.low.gap_vs_time_consistent:.6g} (r_low) / "
            f"{first.high.gap_vs_time_consistent:.6g} (r_high)"
        )


def test_criterion_9_simulation_integrity():
    with criterion(9, "simulation integrity"):
        start = time.perf_counter()
        table = backward_induction(BASE_PREFS, BASE_BOUNDS, BASE_RATE, BASE_RETURN, BASE_HORIZON)
        paths, _ = simulate_paths(table, BASE_RATE, BASE_RETURN, 0.8, 10_000, seed=20260810)
        lo, hi = BASE_BOUNDS.lo_frac, BASE_BOUNDS.hi_frac
        benchmarked_wealth(paths, 0)  # validates self-financing and the identity
        caps = np.abs(paths.wealth[:, :-1])
        assert np.all(paths.trades >= lo * caps - 1e-12)
        assert np.all(paths.trades <= hi * caps + 1e-12)

        zero_rows = tuple(PolicyCoefficients(t, 0.0, 0.0, 0.0, 0.0) for t in range(BASE_HORIZON))
        flat = PolicyTable(zero_rows)
        flat_paths, _ = simulate_paths(
            flat, DeterministicRate(0.03), BASE_RETURN, 0.8, 100, seed=7
        )
        expected = 0.8
        for _ in range(BASE_HORIZON):
            expected = (1.0 + 0.03) * expected
        assert np.all(flat_paths.wealth[:, -1] == expected)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
