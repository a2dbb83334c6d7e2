import tracemalloc

import numpy as np
import pytest

from cptalloc import (
    Constraints,
    CptPreferences,
    DeterministicRate,
    DiscreteEmpirical,
    GaussianSqrtTRate,
    Normal,
    PathEnsemble,
    PolicyCoefficients,
    PolicyTable,
    SolverSettings,
    as_schedule,
    backward_induction,
    benchmarked_wealth,
    cpt_discrete,
    inconsistency_demo,
    optimal_trade,
    simulate_paths,
    step_wealth,
    terminal_coefficients,
    terminal_stats,
)
import cptalloc.simulate as simulate
from cptalloc.simulate import DemoCase, DemoReport, paths_to_csv, summary_to_csv
from cptalloc.solver import TIE_RTOL, fraction_grid

TK = CptPreferences(0.88, 2.20, 0.61, 0.69)
BOUNDS = Constraints(-5.0, 5.0)
SKEWED = DiscreteEmpirical([1.0, -0.2], [0.6, 0.4])


def path_arrays(w0, trades, rates, ys):
    """One self-financing path as (1, T+1) and (1, T) arrays."""
    wealth = [w0]
    for v, r, y in zip(trades, rates, ys):
        wealth.append(step_wealth(wealth[-1], v, r, y))
    return [np.array([row], dtype=float) for row in (wealth, trades, rates, ys)]


def build_path(w0, trades, rates, ys):
    return PathEnsemble(*path_arrays(w0, trades, rates, ys))


class TestStepWealth:
    def test_example(self):
        assert step_wealth(1.0, 0.5, 0.03, 0.05) == pytest.approx(1.055, abs=1e-15)

    def test_risk_free_only(self):
        assert step_wealth(2.0, 0.0, 0.04, -3.0) == pytest.approx(2.08, abs=1e-15)

    def test_absorbing_zero(self):
        assert step_wealth(0.0, 0.0, 0.03, 0.5) == 0.0

    def test_rejects_rate_at_minus_one(self):
        with pytest.raises(ValueError):
            step_wealth(1.0, 0.0, -1.0, 0.0)


class TestBenchmarkedWealth:
    def test_hand_example(self):
        path = build_path(1.0, [1.0, 1.0], [0.03, 0.03], [0.1, 0.1])
        rep = benchmarked_wealth(path, 0)
        assert rep.full_benchmark == pytest.approx(0.203, abs=1e-12)
        assert rep.last_period_benchmark == pytest.approx(0.1, abs=1e-15)

    def test_last_period_start_collapses(self):
        path = build_path(1.0, [1.0, 2.0], [0.03, 0.05], [0.1, -0.2])
        rep = benchmarked_wealth(path, 1)
        assert rep.full_benchmark == rep.last_period_benchmark == pytest.approx(-0.4)

    def test_no_exposure_is_zero(self):
        path = build_path(3.0, [0.0, 0.0, 0.0], [0.03, 0.01, 0.02], [0.5, -0.5, 0.1])
        rep = benchmarked_wealth(path, 0)
        assert rep.full_benchmark == 0.0
        assert rep.last_period_benchmark == 0.0

    def test_identity_on_random_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = int(rng.integers(1, 9))
            path = build_path(
                float(rng.normal(1.0, 2.0)),
                rng.normal(0, 2, T),
                rng.uniform(-0.05, 0.1, T),
                rng.normal(0, 0.5, T),
            )
            w, rates = path.wealth[0], path.rates[0]
            for t in range(T):
                rep = benchmarked_wealth(path, t)
                rollup = np.prod(1.0 + rates[t:]) * w[t]
                assert rep.full_benchmark[0] == pytest.approx(
                    w[T] - rollup, abs=1e-12 * max(1.0, abs(w[T]))
                )

    def test_rejects_tampered_path(self):
        arrays = path_arrays(1.0, [1.0, 1.0], [0.03, 0.03], [0.1, 0.1])
        arrays[0][0, 1] += 1e-6
        with pytest.raises(ValueError, match="self-financing"):
            benchmarked_wealth(PathEnsemble(*arrays), 0)

    def test_rejects_mismatched_shapes(self):
        wealth, trades, rates, ys = path_arrays(1.0, [1.0, 1.0], [0.03, 0.03], [0.1, 0.1])
        with pytest.raises(ValueError, match=r"need \(n, T\+1\) wealth"):
            PathEnsemble(wealth[:, :-1], trades, rates, ys)

    def test_rejects_bad_initial_time(self):
        path = build_path(1.0, [1.0], [0.03], [0.1])
        with pytest.raises(ValueError):
            benchmarked_wealth(path, 1)


def scalar_benchmark(trades, rates, ys, t):
    """Per-path definition: each trade's excess gain, from period t on, grown
    at the risk-free rate to T; and the last trade's excess gain."""
    T = len(trades)
    full = 0.0
    for j in range(t, T):
        growth = 1.0
        for i in range(T - 1, j, -1):
            growth *= 1.0 + rates[i]
        full += growth * trades[j] * ys[j]
    return full, trades[T - 1] * ys[T - 1]


class TestBenchmarkedEnsemble:
    @pytest.fixture
    def arrays(self):
        rng = np.random.default_rng(8)
        rows = [path_arrays(float(rng.normal(1.0, 2.0)), rng.normal(0, 2, 9),
                            rng.uniform(-0.05, 0.1, 9), rng.normal(0, 0.5, 9)) for _ in range(6)]
        return [np.concatenate(col) for col in zip(*rows)]

    @pytest.mark.parametrize("t", [0, 3, 8])
    def test_rows_equal_scalar_reference(self, arrays, t):
        rep = benchmarked_wealth(PathEnsemble(*arrays), t)
        want = np.array([scalar_benchmark(*(a[i].tolist() for a in arrays[1:]), t)
                         for i in range(6)])
        assert rep.full_benchmark.shape == rep.last_period_benchmark.shape == (6,)
        np.testing.assert_array_equal(rep.full_benchmark, want[:, 0])
        np.testing.assert_array_equal(rep.last_period_benchmark, want[:, 1])

    def test_cancelling_gains_pass_the_identity(self):
        # At leverage 5 on SKEWED, wealth climbs by orders of magnitude and
        # falls back, so W_T is far smaller than the gains summed to reach it.
        lever = PolicyTable(tuple(PolicyCoefficients(t, 1.0, -1.0, 5.0, -5.0) for t in range(10)))
        paths, _ = simulate_paths(lever, DeterministicRate(0.03), SKEWED, 0.8, 1000, seed=7)
        rep = benchmarked_wealth(paths, 0)
        swing = paths.wealth.max(axis=1) / np.abs(paths.wealth[:, -1])
        assert swing.max() > 1e5
        rollup = 1.03**10 * 0.8
        np.testing.assert_allclose(rep.full_benchmark, paths.wealth[:, -1] - rollup,
                                   rtol=0, atol=1e-6)

    def test_tampered_row_names_its_period(self, arrays):
        arrays[0][4, 6] += 1e-9
        with pytest.raises(ValueError, match="self-financing violated at period 5$"):
            benchmarked_wealth(PathEnsemble(*arrays), 0)


@pytest.fixture(scope="module")
def flat_policy():
    # Fair symmetric gamble, so the solved policy never trades.
    coin = DiscreteEmpirical([-1.0, 1.0], [0.5, 0.5])
    return backward_induction(
        TK, BOUNDS, DeterministicRate(0.03), coin, 10, SolverSettings(grid_points=101)
    )


class TestSimulatePaths:
    def test_no_trading_compounds_risk_free(self, flat_policy):
        paths, _ = simulate_paths(
            flat_policy, DeterministicRate(0.03), Normal(0.045, 1.69), 0.8, 16, seed=1
        )
        expected = 0.8
        for _ in range(10):
            expected = (1.0 + 0.03) * expected
        assert expected == pytest.approx(0.8 * 1.03**10, rel=1e-12)
        assert np.all(paths.wealth[:, -1] == expected)
        assert np.all(paths.trades == 0.0)

    def test_seeded_determinism(self, flat_policy):
        a, _ = simulate_paths(flat_policy, GaussianSqrtTRate(0.03, 0.003), Normal(0.045, 1.69), 0.8, 7, seed=99)
        b, _ = simulate_paths(flat_policy, GaussianSqrtTRate(0.03, 0.003), Normal(0.045, 1.69), 0.8, 7, seed=99)
        np.testing.assert_array_equal(a.wealth, b.wealth)
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.excess_returns, b.excess_returns)

    def test_degenerate_return_matches_recurrence(self):
        y = DiscreteEmpirical([0.045], [1.0])
        table = backward_induction(
            TK, BOUNDS, DeterministicRate(0.03), y, 5, SolverSettings(grid_points=101)
        )
        paths, _ = simulate_paths(table, DeterministicRate(0.03), y, 0.8, 1, seed=3)
        w = 0.8
        for t in range(5):
            w = (1.0 + 0.03) * w + table.rows[t].k_star * w * 0.045
        assert paths.wealth[0, -1] == w

    def test_invariants_hold_on_ensemble(self):
        table = backward_induction(
            TK, BOUNDS, DeterministicRate(0.03), SKEWED, 6, SolverSettings(grid_points=101)
        )
        paths, summary = simulate_paths(
            table, GaussianSqrtTRate(0.03, 0.003), SKEWED, 0.8, 64, seed=11
        )
        benchmarked_wealth(paths, 0)  # validates self-financing and the identity
        caps = np.abs(paths.wealth[:, :-1])
        assert np.all(paths.trades >= BOUNDS.lo_frac * caps - 1e-12)
        assert np.all(paths.trades <= BOUNDS.hi_frac * caps + 1e-12)
        assert summary.wealth_mean.shape == (7,)
        assert summary.fraction_mean.shape == (6,)

    def test_ensemble_rows_are_read_only_paths(self, flat_policy):
        ens, _ = simulate_paths(flat_policy, DeterministicRate(0.03), SKEWED, 0.8, 3, seed=1)
        with pytest.raises(ValueError):
            ens.wealth[0, 0] = 1.0

    def test_rejects_bad_args(self, flat_policy):
        with pytest.raises(ValueError):
            simulate_paths(flat_policy, DeterministicRate(0.03), SKEWED, 0.8, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(flat_policy, DeterministicRate(0.03), SKEWED, np.inf, 1, seed=1)

    def test_schedule_entries_drive_their_own_period(self):
        y0 = DiscreteEmpirical([0.1], [1.0])
        y1 = DiscreteEmpirical([0.2], [1.0])
        table = backward_induction(
            TK, BOUNDS, DeterministicRate(0.03), [y0, y1], 2, SolverSettings(grid_points=101)
        )
        paths, _ = simulate_paths(table, DeterministicRate(0.03), [y0, y1], 1.0, 2, seed=4)
        np.testing.assert_array_equal(paths.excess_returns, [[0.1, 0.2]] * 2)


# Trades on both wealth signs (k_star = 5, k_hat_star = -2), so paths that
# fall below zero take the other branch.
CROSSING = PolicyTable(tuple(PolicyCoefficients(t, 1.0, -1.0, 5.0, -2.0) for t in range(4)))
MIXED = [
    Normal(0.1, 0.4),
    DiscreteEmpirical([0.5, -0.3], [0.6, 0.4]),
    Normal(-0.05, 0.2),
    DiscreteEmpirical([0.2, -0.1, 0.05], [0.2, 0.3, 0.5]),
]


def reference_ensemble(policy, rate_model, y_dist, w0, n_paths, seed):
    """The per-path, per-period scalar loop that fixes the draw order: per
    path, its own spawned stream; rates first, then returns, t ascending."""
    T = policy.horizon
    schedule = as_schedule(y_dist, T)
    paths = []
    for stream in np.random.SeedSequence(seed).spawn(n_paths):
        rng = np.random.default_rng(stream)
        rates = [rate_model.sample(t, rng) for t in range(T)]
        ys = [schedule[t].sample(rng) for t in range(T)]
        wealth, trades = [w0], []
        for t in range(T):
            trades.append(optimal_trade(policy.row(t), wealth[t]))
            wealth.append(step_wealth(wealth[t], trades[t], rates[t], ys[t]))
        paths.append((wealth, trades, rates, ys))
    return [np.array(col, dtype=float) for col in zip(*paths)]


@pytest.mark.parametrize(
    "rate_model, y_dist",
    [
        (GaussianSqrtTRate(0.03, 0.02), Normal(0.05, 0.4)),
        (DeterministicRate(0.03), DiscreteEmpirical([0.5, -0.3], [0.6, 0.4])),
        (GaussianSqrtTRate(0.03, 0.0), MIXED),
        (GaussianSqrtTRate(0.03, 0.02), MIXED),
        # Rate normals, then uniforms for the atoms: two generator calls a path.
        (GaussianSqrtTRate(0.03, 0.02), DiscreteEmpirical([0.5, -0.3], [0.6, 0.4])),
        # No rate draws at all.
        (DeterministicRate(0.03), Normal(0.05, 0.4)),
    ],
    ids=["normal_sqrt_t", "atoms_fixed", "mixed_vol_0", "mixed_vol", "atoms_sqrt_t",
         "normal_fixed"],
)
def test_ensemble_matches_scalar_reference(rate_model, y_dist):
    want = reference_ensemble(CROSSING, rate_model, y_dist, 0.8, 25, seed=2024)
    assert np.any(want[0] < 0.0) and np.any(want[0] > 0.0)  # both branches bind
    paths, _ = simulate_paths(CROSSING, rate_model, y_dist, 0.8, 25, seed=2024)
    for name, ref in zip(("wealth", "trades", "rates", "excess_returns"), want):
        np.testing.assert_array_equal(getattr(paths, name), ref)


# Seeds of one to seven uint32 words. 2**128 + 1 (five) and 2**200 + 12345
# (seven) hold more than the pool's four, so the number of hash-constant steps
# before the spawn key depends on their width.
ORACLE_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 1, 2**200 + 12345]


@pytest.mark.parametrize("n", [1, 2, 257, 4000])
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_stream_states_equal_numpy_spawned_children(seed, n):
    want = [np.random.PCG64(child).state["state"]
            for child in np.random.SeedSequence(seed).spawn(n)]
    got = [{"state": state, "inc": inc} for state, inc in simulate._stream_states(seed, n)]
    assert got == want


@pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 1])
def test_wide_seeds_draw_the_reference_ensemble(seed):
    rate_model = GaussianSqrtTRate(0.03, 0.02)
    want = reference_ensemble(CROSSING, rate_model, MIXED, 0.8, 257, seed)
    paths, _ = simulate_paths(CROSSING, rate_model, MIXED, 0.8, 257, seed)
    for name, ref in zip(("wealth", "trades", "rates", "excess_returns"), want):
        np.testing.assert_array_equal(getattr(paths, name), ref)


def test_stream_states_reject_spawn_keys_wider_than_one_word():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        simulate._stream_states(0, 2**32 + 1)


def test_simulate_paths_derives_streams_without_per_path_generators(monkeypatch):
    want = reference_ensemble(CROSSING, GaussianSqrtTRate(0.03, 0.02), MIXED, 0.8, 25, seed=7)

    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("SeedSequence.spawn called")

    def no_default_rng(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    monkeypatch.setattr(np.random, "default_rng", no_default_rng)
    paths, _ = simulate_paths(CROSSING, GaussianSqrtTRate(0.03, 0.02), MIXED, 0.8, 25, seed=7)
    for name, ref in zip(("wealth", "trades", "rates", "excess_returns"), want):
        np.testing.assert_array_equal(getattr(paths, name), ref)


@pytest.mark.parametrize("seed", [np.int64(2024), np.uint64(2024)])
def test_numpy_integer_seed_draws_like_the_int(seed):
    want, _ = simulate_paths(CROSSING, DeterministicRate(0.03), SKEWED, 0.8, 5, seed=2024)
    got, _ = simulate_paths(CROSSING, DeterministicRate(0.03), SKEWED, 0.8, 5, seed=seed)
    np.testing.assert_array_equal(got.wealth, want.wealth)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_simulate_paths_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        simulate_paths(CROSSING, DeterministicRate(0.03), SKEWED, 0.8, 5, seed=seed)


class TestCsvEmission:
    def test_paths_csv_shape(self, flat_policy):
        paths, summary = simulate_paths(
            flat_policy, DeterministicRate(0.03), Normal(0.045, 1.69), 0.8, 3, seed=2
        )
        lines = paths_to_csv(paths).strip().splitlines()
        assert lines[0] == "path,t,W,v,r,y"
        assert len(lines) == 1 + 3 * 11
        assert lines[11].endswith(",,,")  # terminal row carries wealth only

        lines = summary_to_csv(summary).strip().splitlines()
        assert lines[0].startswith("t,wealth_mean,wealth_q05")
        assert len(lines) == 12

    @pytest.mark.parametrize("block", [1, 3, 7, simulate.CSV_BLOCK_PATHS])
    def test_paths_csv_blocks_keep_the_bytes(self, monkeypatch, block):
        table = backward_induction(TK, BOUNDS, DeterministicRate(0.03), SKEWED, 4,
                                   SolverSettings(grid_points=101))
        paths, _ = simulate_paths(table, GaussianSqrtTRate(0.03, 0.003), SKEWED, 0.8, 7, seed=5)
        want = ["path,t,W,v,r,y\n"]
        for i in range(7):
            for t in range(4):
                cells = (paths.wealth[i, t], paths.trades[i, t], paths.rates[i, t],
                         paths.excess_returns[i, t])
                want.append(f"{i},{t}," + ",".join(f"{float(c):.17g}" for c in cells) + "\n")
            want.append(f"{i},4,{float(paths.wealth[i, 4]):.17g},,,\n")
        monkeypatch.setattr(simulate, "CSV_BLOCK_PATHS", block)
        assert paths_to_csv(paths) == "".join(want)

    def test_paths_csv_memory_is_bounded_by_its_block(self):
        # Unblocked, the Python floats of all 4000 x 21 fields take about 1.5
        # times the text on top of the text's list and its join.
        rng = np.random.default_rng(3)
        paths = PathEnsemble(rng.standard_normal((4000, 6)),
                             *rng.standard_normal((3, 4000, 5)))
        paths_to_csv(paths)
        tracemalloc.start()
        try:
            text = paths_to_csv(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * len(text)


class TestInconsistencyDemo:
    def test_equal_rates_coincide(self):
        report = inconsistency_demo(TK, BOUNDS, SKEWED, 0.2, 0.2, 9)
        assert report.low.precommit_z0 == report.high.precommit_z0
        assert report.low.precommit_z1 == report.high.precommit_z1
        assert report.cross_rate_gap == 0.0

    def test_degenerate_return_all_zero(self):
        zero = DiscreteEmpirical([0.0], [1.0])
        report = inconsistency_demo(TK, BOUNDS, zero, 0.0, 0.5, 9)
        for case in (report.low, report.high):
            assert case.precommit_z0 == 0.0
            assert case.precommit_z1 == 0.0
            assert case.value == 0.0
            assert case.time_consistent_k_star == 0.0

    def test_asymmetric_fixture_reports_gaps(self):
        report = inconsistency_demo(TK, BOUNDS, SKEWED, 0.0, 0.5, 11)
        stats = terminal_stats(TK, SKEWED)
        want = terminal_coefficients(TK, BOUNDS, stats, t=1).k_star
        assert report.low.time_consistent_k_star == want
        assert report.high.time_consistent_k_star == want
        text = report.to_text()
        assert "cross_rate_gap" in text
        assert "low.gap_vs_time_consistent" in text
        # deterministic: rebuilding the report reproduces the same text
        again = inconsistency_demo(TK, BOUNDS, SKEWED, 0.0, 0.5, 11)
        assert again.to_text() == text

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            inconsistency_demo(TK, BOUNDS, SKEWED, 0.0, 0.5, 2)

    def test_rejects_too_many_atoms(self):
        big = DiscreteEmpirical(np.linspace(-1, 1, 25), np.full(25, 0.04))
        with pytest.raises(ValueError):
            inconsistency_demo(TK, BOUNDS, big, 0.0, 0.5, 5)


FOUR_ATOMS = DiscreteEmpirical([0.6, 0.15, -0.1, -0.35], [0.25, 0.35, 0.25, 0.15])
TWENTY_ATOMS = DiscreteEmpirical(np.linspace(-0.5, 0.9, 20), np.arange(1, 21) / 210)
# A rare atom below rounding: the cumulative sum passes 1 before the last
# atom for some pairs, which scored NaN before the sum was clamped at 1.
RARE_ATOM = DiscreteEmpirical([0.52, -0.06, 0.68, -0.33, 0.18, 0.45, -3.0], [1 / 6] * 6 + [1e-18])


def reference_demo(prefs, constraints, y, r_low, r_high, grid_points):
    """The per-pair loop the batched demo replaced: one DiscreteEmpirical and
    one cpt_discrete per fraction pair. All pairs are scored first; the report
    takes the first pair in least-exposure order whose value is within
    TIE_RTOL of the best. Returns, per rate, each pair's value keyed by the
    bytes of its outcome row, and the report."""
    lo, hi = constraints.lo_frac, constraints.hi_frac
    zs0 = fraction_grid(lo, hi, grid_points)
    zs1 = fraction_grid(max(lo, -hi), min(hi, -lo), grid_points)
    pairs = [(z0, z1) for z0 in zs0 for z1 in zs1]
    yv, prob = y.values, np.outer(y.probs, y.probs).ravel()
    k_star = terminal_coefficients(prefs, constraints, terminal_stats(prefs, y), t=1).k_star
    values, cases = [], []
    for r in (r_low, r_high):
        growth = 1.0 + r
        scores, by_outcome = {}, {}
        for z0, z1 in pairs:
            mid_wealth = growth + z0 * yv
            outcome = (growth * z0 * yv[:, None] + z1 * mid_wealth[:, None] * yv[None, :]).ravel()
            val = cpt_discrete(prefs, DiscreteEmpirical(outcome, prob)).value
            scores[z0, z1] = by_outcome[outcome.tobytes()] = val
        top = max(scores.values())
        z0, z1 = min((p for p in pairs if scores[p] >= top - TIE_RTOL * top),
                     key=lambda p: (abs(p[0]) + abs(p[1]), abs(p[1]), abs(p[0]), p[1], p[0]))
        values.append(by_outcome)
        cases.append(DemoCase(r, float(z0), float(z1), scores[z0, z1], k_star))
    return values, DemoReport(grid_points, *cases)


@pytest.mark.parametrize(
    "y, bounds, grid, r_low, r_high, block_entries",
    [
        (SKEWED, BOUNDS, 11, 0.0, 0.5, None),
        (DiscreteEmpirical([0.3, -0.25], [0.7, 0.3]), BOUNDS, 31, 0.0, 0.5, None),
        (FOUR_ATOMS, BOUNDS, 21, 0.0, 0.5, None),
        (FOUR_ATOMS, Constraints(-1.0, 3.0), 21, -0.5, 0.5, 1000),
        (TWENTY_ATOMS, BOUNDS, 9, -0.5, 0.0, None),
        (TWENTY_ATOMS, Constraints(-1.0, 3.0), 11, 0.0, 0.5, 1000),
        (RARE_ATOM, BOUNDS, 5, 0.0, 0.5, None),
    ],
    ids=["skewed", "shipped", "four_atoms", "four_atoms_asymmetric_blocks", "twenty_atoms",
         "twenty_atoms_asymmetric_blocks", "nan_pairs"],
)
def test_batched_demo_equals_per_pair_loop(monkeypatch, y, bounds, grid, r_low, r_high,
                                           block_entries):
    # Every grid holds 0, so rows with z0 = 0 (n-fold duplicate outcomes) or
    # z1 = 0 (each first-period outcome n times) are among the pairs. Small
    # blocks split the pairs into many blocks and a shorter last one.
    if block_entries:
        monkeypatch.setattr(simulate, "DEMO_BLOCK_ENTRIES", block_entries)
    outcomes, scored = [], []
    merge_rows, score_rows = simulate._merge_rows, simulate._cpt_rows

    def merging(outcome, prob):
        outcomes.append(outcome.copy())
        return merge_rows(outcome, prob)

    def scoring(prefs, values, cum, n):
        gain, loss = score_rows(prefs, values, cum, n)
        scored.append(gain - loss)
        return gain, loss

    monkeypatch.setattr(simulate, "_merge_rows", merging)
    monkeypatch.setattr(simulate, "_cpt_rows", scoring)
    report = inconsistency_demo(TK, bounds, y, r_low, r_high, grid)
    want_values, want_report = reference_demo(TK, bounds, y, r_low, r_high, grid)
    got = np.concatenate(scored)
    assert not np.isnan(got).any()
    # Each rate scores every pair, in whatever order; the outcome row names the pair.
    for want, rows, vals in zip(want_values, np.split(np.concatenate(outcomes), 2), np.split(got, 2)):
        keys = [row.tobytes() for row in rows]
        assert set(keys) == set(want)
        assert [want[key] for key in keys] == vals.tolist()
    assert report == want_report
    assert report.to_text() == want_report.to_text()


def test_demo_memory_is_bounded_by_its_block():
    # Unblocked, the 10201 pairs of 400 outcomes take 33 MB per array.
    inconsistency_demo(TK, BOUNDS, TWENTY_ATOMS, 0.0, 0.5, 5)  # lazy set-up off the books
    tracemalloc.start()
    try:
        inconsistency_demo(TK, BOUNDS, TWENTY_ATOMS, 0.0, 0.5, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_column_quantiles_equal_np_quantile():
    rng = np.random.default_rng(37)
    arrays = [np.array([[2.5, -0.0]]), rng.standard_normal((4000, 6))]
    for i in range(200):
        n, cols = int(rng.integers(1, 80)), int(rng.integers(1, 5))
        # Signed zeros tie with each other, so their order after a partition shows.
        pool = [rng.standard_normal(n * cols), rng.choice([-0.0, 0.0, -1.0, 1.0], n * cols),
                rng.choice([1e308, -1e308, -0.0, 0.0, 5e-324], n * cols)][i % 3]
        arrays.append(pool.reshape(n, cols))
    for a in arrays:
        for q in (*simulate._QUANTS, 0.0, 1.0):
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.quantile(a, q, axis=0)
                got = simulate._column_quantile(a, q)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (a, q)
