import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cptalloc import (
    Constraints,
    CptPreferences,
    DeterministicRate,
    DiscreteEmpirical,
    GaussianSqrtTRate,
    Normal,
    NumericalError,
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
import cptalloc.solver as solver
from cptalloc.solver import _grid_then_golden, _least_exposure, fraction_grid

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

    def test_overflowing_corner_is_a_numerical_error(self):
        # Finite stats and bounds whose corner value hi**alpha * long_value overflows.
        prefs = CptPreferences(0.99, 2.2, 0.61, 0.69)
        wide = Constraints(-8e307, 8e307)
        with pytest.raises(NumericalError, match="not finite"):
            terminal_coefficients(prefs, wide, TerminalStats(1e300, -1.0))
        huge = DiscreteEmpirical([1e300], [1.0])
        with pytest.raises(NumericalError, match="^terminal period 0: "):
            backward_induction(prefs, wide, DeterministicRate(0.03), huge, 1)


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


def two_power(q, a, c_pos, c_neg):
    """c_pos*max(q, 0)**a + c_neg*max(-q, 0)**a, two powers per entry."""
    return c_pos * np.maximum(q, 0.0) ** a + c_neg * np.maximum(-q, 0.0) ** a


def one_power_in_place(q, a, c_pos, c_neg):
    """The same entries from one power each, computed in place in q: the
    kernel as it was before the two scans shared one tensor."""
    c = np.where(q >= 0.0, c_pos, c_neg)
    np.abs(q, out=q)
    q **= a
    q *= c
    return q


def two_scan_step(kernel, prefs, constraints, nxt, rate_model, y_dist, settings):
    """Reference recursion step: the long and the short grid scan each build
    their own (len(zs), nodes) tensor of kernel entries, then take one
    product with the node weights."""
    a = prefs.alpha
    yv, yw = y_dist.expectation_nodes(settings.y_nodes)
    rv, rw = rate_model.nodes(nxt.t - 1, settings.r_nodes)
    rr = np.repeat(rv, yv.size)
    yy = np.tile(yv, rv.size)
    ww = np.outer(rw, yw).ravel()

    def mix_batch(zs, c_pos, c_neg):
        q = np.outer(zs, yy)
        q += 1.0 + rr
        return kernel(q, a, c_pos, c_neg) @ ww

    a_next, b_next = nxt.a_coef, nxt.b_coef
    lo, hi = constraints.lo_frac, constraints.hi_frac
    k_star, a_coef = _grid_then_golden(
        lambda zs: mix_batch(zs, a_next, -b_next), lo, hi, settings
    )
    k_hat_star, l_max = _grid_then_golden(
        lambda zs: mix_batch(zs, -b_next, a_next), -hi, -lo, settings
    )
    return PolicyCoefficients(nxt.t - 1, a_coef, -l_max + 0.0, k_star, k_hat_star)


ACTIVE_NEXT = PolicyCoefficients(2, 2.0, -7.0, 0.0, 0.0)
# A = -B, as every row of a symmetric-bounds solve has: one scan serves both signs.
MIRROR_NEXT = PolicyCoefficients(2, 2.0, -2.0, 0.0, 0.0)
ZERO_NEXT = PolicyCoefficients(2, 0.0, 0.0, 0.0, 0.0)
SQRT_T = GaussianSqrtTRate(0.03, 0.003)
ATOMS_56 = DiscreteEmpirical(np.linspace(-0.6, 1.2, 56), np.full(56, 1 / 56))


@pytest.mark.parametrize(
    "constraints, nxt, rate_model, y_dist, grid_points",
    [
        (BOUNDS, ACTIVE_NEXT, SQRT_T, Normal(0.3, 0.5), 201),
        (BOUNDS, ACTIVE_NEXT, DeterministicRate(0.03), SKEWED, 201),
        # q = 1 + z changes sign at z = -1, and q = 1 - 0.2*z is exactly 0 at z = 5.
        (BOUNDS, PolicyCoefficients(1, 0.3, -0.1, 0.0, 0.0), DeterministicRate(0.0), SKEWED, 201),
        (Constraints(-0.5, 3.0), ACTIVE_NEXT, SQRT_T, Normal(0.1, 2.0), 201),
        # 0 is not a point of a 1000-point uniform grid on [-5, 5]; the scan adds it.
        (BOUNDS, ZERO_NEXT, SQRT_T, Normal(0.045, 1.69), 1000),
        (Constraints(0.0, 5.0), ZERO_NEXT, SQRT_T, Normal(0.045, 1.69), 1000),
        (Constraints(0.0, 2.0), ZERO_NEXT, DeterministicRate(0.03), SKEWED, 101),
        (BOUNDS, MIRROR_NEXT, SQRT_T, Normal(0.3, 0.5), 201),
        (BOUNDS, MIRROR_NEXT, DeterministicRate(0.03), SKEWED, 201),
        # A = -B, but the mirrored interval is another one: two scans.
        (Constraints(-0.5, 3.0), MIRROR_NEXT, SQRT_T, Normal(0.1, 2.0), 201),
        # One coefficient for both signs of q, which is exactly 0 at z = 5.
        (BOUNDS, MIRROR_NEXT, DeterministicRate(0.0), SKEWED, 201),
        # B = -0.0, which == calls equal to 0.0 (ZERO_NEXT has B = +0.0).
        (BOUNDS, PolicyCoefficients(2, 0.0, -0.0, 0.0, 0.0), SQRT_T, Normal(0.3, 0.5), 201),
        (BOUNDS, PolicyCoefficients(2, 2.0, -0.0, 0.0, 0.0), DeterministicRate(0.0), SKEWED, 201),
        # lo = 0 puts 0 on the grid, so both scans have grid_points rows: every
        # residue mod 8, from row blocks that divide evenly to a one-row
        # remainder, and a grid of one 9-row block. The reference's full matrix
        # stays below the size at which OpenBLAS splits a product between
        # threads, so its bits do not depend on the thread count either.
        *[(Constraints(0.0, 3.0), ACTIVE_NEXT, SQRT_T, Normal(0.1, 2.0), n) for n in range(200, 208)],
        (Constraints(0.0, 3.0), MIRROR_NEXT, SQRT_T, Normal(0.3, 0.5), 9),
        # 56 atoms x 16 rate nodes = 896 nodes: blocks of 8 rows, not
        # MIX_BLOCK_ENTRIES // 896 = 9, so that each starts at a multiple of 4.
        (BOUNDS, ACTIVE_NEXT, SQRT_T, ATOMS_56, 201),
        (BOUNDS, MIRROR_NEXT, SQRT_T, ATOMS_56, 202),
    ],
    ids=["normal_sqrt_t", "atoms_fixed", "q_crosses_zero", "asymmetric_bounds",
         "zero_row_off_grid", "zero_row_lo_0", "zero_row_atoms_lo_0",
         "mirror_normal_sqrt_t", "mirror_atoms_fixed", "mirror_asymmetric_bounds",
         "mirror_q_crosses_zero", "zero_row_signed_b", "signed_zero_b",
         *[f"rows_{n}" for n in range(200, 208)], "mirror_rows_9",
         "atoms_56_sqrt_t", "mirror_atoms_56_sqrt_t"],
)
def test_recursion_step_equals_two_power_reference(
    monkeypatch, constraints, nxt, rate_model, y_dist, grid_points
):
    # The reference takes one product over the full (len(zs), nodes) matrix;
    # the kernel reduces it block by block to the same bits, at every point
    # each scan evaluates, not only at the optimum it picks.
    values = []
    maximize = _grid_then_golden

    def recording(f_batch, *args):
        def f(zs):
            values.append(f_batch(zs))
            return values[-1]

        return maximize(f, *args)

    monkeypatch.setattr(solver, "_grid_then_golden", recording)
    monkeypatch.setitem(globals(), "_grid_then_golden", recording)
    settings = SolverSettings(grid_points=grid_points)
    got = recursion_step(TK, constraints, nxt, rate_model, y_dist, settings)
    got_values = [v.tobytes() for v in values]
    values.clear()
    want = two_scan_step(two_power, TK, constraints, nxt, rate_model, y_dist, settings)
    assert got == want
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0, which policy.csv prints
    # A mirrored row takes the first of the reference's two scans alone.
    assert got_values == [v.tobytes() for v in values[:len(got_values)]]
    if nxt.a_coef == nxt.b_coef == 0.0:
        # A flat objective picks the least exposure, exactly +0, on every grid.
        assert repr((got.k_star, got.k_hat_star)) == "(0.0, 0.0)"


@pytest.mark.parametrize(
    "rate_model, y_dist",
    [(SQRT_T, Normal(0.3, 0.5)), (DeterministicRate(0.03), SKEWED), (SQRT_T, SKEWED)],
    ids=["normal_sqrt_t", "atoms_fixed", "atoms_sqrt_t"],
)
def test_symmetric_step_equals_two_scan_reference(rate_model, y_dist):
    # Symmetric bounds with A != -B: two scans on one grid, against the
    # in-place one-power kernel.
    settings = SolverSettings(grid_points=201)
    got = recursion_step(TK, BOUNDS, ACTIVE_NEXT, rate_model, y_dist, settings)
    want = two_scan_step(one_power_in_place, TK, BOUNDS, ACTIVE_NEXT, rate_model, y_dist, settings)
    assert got == want
    assert repr(got) == repr(want)


def traced_peak(step, *args):
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The default 1001-point grid on 64 x 16 nodes. A full (len(zs), nodes) matrix
# is 8.2 MB; the kernel holds two 32-row chunk buffers of it, one per thread
# (256 KB each, about 0.5 MB), and traces about 0.9 MB in all.
PEAK_BOUND = 1e6


def test_symmetric_step_peaks_no_higher_than_two_scans():
    # Two scans, A != -B: a mask per chunk buffer on top.
    args = (TK, BOUNDS, ACTIVE_NEXT, SQRT_T, Normal(0.3, 0.5), SolverSettings())
    recursion_step(*args)  # lazy imports and caches first
    assert traced_peak(recursion_step, *args) < PEAK_BOUND


def test_mirror_step_peaks_at_one_scan():
    # With A = -B on symmetric bounds one scan serves both signs.
    args = (TK, BOUNDS, MIRROR_NEXT, SQRT_T, Normal(0.3, 0.5), SolverSettings())
    recursion_step(*args)  # lazy imports and caches first
    assert traced_peak(recursion_step, *args) < PEAK_BOUND


def kernel_run(monkeypatch, threads, *args):
    """recursion_step(*args) with the kernel on at most `threads` threads: the
    row, the bytes of every batch that its scans evaluated, the sizes of those
    batches and the number of threads that filled chunks."""
    batches, fillers = [], set()
    maximize, fill = solver._grid_then_golden, solver._mix_chunks

    def recording(f_batch, *rest):
        def f(zs):
            batches.append(f_batch(zs))
            return batches[-1]

        return maximize(f, *rest)

    def filling(*fill_args):
        fillers.add(threading.get_ident())
        fill(*fill_args)

    with monkeypatch.context() as m:
        m.setattr(solver, "_KERNEL_THREADS", threads)
        m.setattr(solver, "_grid_then_golden", recording)
        m.setattr(solver, "_mix_chunks", filling)
        row = recursion_step(*args)
    return row, [b.tobytes() for b in batches], [b.size for b in batches], len(fillers)


@pytest.mark.parametrize(
    "constraints, nxt, grid_points",
    [
        (BOUNDS, MIRROR_NEXT, 1001),
        # A != -B on bounds that are not symmetric: two scans, each through the mask.
        (Constraints(-0.5, 3.0), ACTIVE_NEXT, 1001),
        # lo = 0 puts 0 on the grid: 1025 rows, whose last 8-row block takes the
        # one-row remainder, in the last chunk, which is the helper's.
        (Constraints(0.0, 3.0), ACTIVE_NEXT, 1025),
    ],
    ids=["mirror_default_grid", "asymmetric_mask", "remainder_block"],
)
def test_two_thread_scans_equal_one_thread_scans(monkeypatch, constraints, nxt, grid_points):
    args = (TK, constraints, nxt, SQRT_T, Normal(0.3, 0.5), SolverSettings(grid_points=grid_points))
    row_1, bytes_1, sizes_1, fillers_1 = kernel_run(monkeypatch, 1, *args)
    row_2, bytes_2, sizes_2, fillers_2 = kernel_run(monkeypatch, 2, *args)
    assert (fillers_1, fillers_2) == (1, 2)
    assert row_1 == row_2
    assert repr(row_1) == repr(row_2)
    # Every batch each scan evaluated, from the grids to the single golden points.
    assert sizes_1 == sizes_2
    assert max(sizes_1) >= grid_points and min(sizes_1) == 1
    assert bytes_1 == bytes_2


def test_overflowing_next_row_is_a_numerical_error_without_a_warning(monkeypatch):
    # Every entry 1e308 * |q|**alpha with |q|**alpha > 1.8 overflows, on both threads.
    monkeypatch.setattr(solver, "_KERNEL_THREADS", 2)
    nxt = PolicyCoefficients(2, 1e308, -1e308, 0.0, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="not finite"):
            recursion_step(TK, BOUNDS, nxt, SQRT_T, Normal(0.3, 0.5), SolverSettings())
    assert caught == []


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_a_failing_thread_reaches_the_caller_and_outlives_no_scan(monkeypatch, failing):
    monkeypatch.setattr(solver, "_KERNEL_THREADS", 2)
    caller, fill = threading.get_ident(), solver._mix_chunks

    def failing_fill(*args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise RuntimeError(f"{failing} failed")
        fill(*args)

    monkeypatch.setattr(solver, "_mix_chunks", failing_fill)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
        recursion_step(TK, BOUNDS, MIRROR_NEXT, SQRT_T, Normal(0.3, 0.5), SolverSettings())
    assert threading.active_count() == before


def structure_solve(prefs=TK, constraints=BOUNDS):
    """The mu = 0.3, sigma = 0.5, horizon = 5 run at the default settings."""
    return backward_induction(prefs, constraints, SQRT_T, Normal(0.3, 0.5), 5).rows


def test_symmetric_rows_mirror_and_scale_with_the_terminal_corner():
    rows = structure_solve()
    assert rows[-1].a_coef > 0.0  # an active policy, not the all-zero one
    for row in rows:
        assert row.a_coef == -row.b_coef
    for row in rows[:-1]:
        assert row.k_hat_star == row.k_star
    # lam, gamma and delta reach the rows only through A_{T-1}: every earlier
    # optimum stays, and every A_t scales with A_{T-1}.
    for changed in (
        CptPreferences(0.88, 1.5, 0.61, 0.69),
        CptPreferences(0.88, 2.2, 0.45, 0.69),
        CptPreferences(0.88, 2.2, 0.61, 0.9),
    ):
        other = structure_solve(changed)
        assert other[-1].a_coef != rows[-1].a_coef
        for row, moved in zip(rows[:-1], other[:-1]):
            assert (moved.k_star, moved.k_hat_star) == (row.k_star, row.k_hat_star)
            assert moved.a_coef / other[-1].a_coef == pytest.approx(
                row.a_coef / rows[-1].a_coef, rel=1e-12
            )


RETURN_LAWS = st.one_of(
    st.builds(Normal, st.floats(0.1, 0.5), st.floats(0.2, 0.8)),
    st.builds(lambda up, down, p: DiscreteEmpirical([up, down], [p, 1.0 - p]),
              st.floats(0.1, 1.0), st.floats(-0.5, -0.05), st.floats(0.3, 0.7)),
)
MILD = CptPreferences(0.88, 1.05, 0.9, 0.9)  # long at the end on most RETURN_LAWS
# The grid picks alone; golden refinement moves them within z_tol.
SCALE_FREE = SolverSettings(grid_points=41, refine=False)
INTERIOR = DiscreteEmpirical([0.48, -0.24], [0.35, 0.65])  # rows trade 0.95 of 1


def symmetric_rows(prefs, y, hi, solver_settings=SCALE_FREE):
    return backward_induction(prefs, Constraints(-hi, hi), SQRT_T, y, 3, solver_settings).rows


@settings(derandomize=True, max_examples=30, deadline=None)
@given(lam=st.floats(1.05, 2.5), gamma=st.floats(0.45, 0.99), delta=st.floats(0.45, 0.99),
       y=RETURN_LAWS,
       bounds=st.sampled_from([(-1.0, 1.0), (-2.0, 2.0), (-5.0, 5.0), (-0.5, 3.0), (-2.0, 1.0), (0.0, 2.0)]))
@example(lam=1.25, gamma=0.5, delta=0.5, y=INTERIOR, bounds=(-1.0, 1.0))
@example(lam=1.25, gamma=0.5, delta=0.5, y=DiscreteEmpirical([0.18, -0.35], [0.67, 0.33]),
         bounds=(-1.0, 1.0))
@example(lam=1.25, gamma=0.5, delta=0.5, y=INTERIOR, bounds=(-0.5, 3.0))
def test_symmetric_rows_depend_on_lam_gamma_delta_only_through_the_terminal_corner(
    lam, gamma, delta, y, bounds
):
    # Asymmetric bounds take two scans per row and give B_t != -A_t, but
    # both coefficients still scale with A_{T-1}.
    constraints = Constraints(*bounds)
    ref, rows = (backward_induction(prefs, constraints, SQRT_T, y, 4, SCALE_FREE).rows
                 for prefs in (MILD, CptPreferences(0.88, lam, gamma, delta)))
    for table in (ref, rows):
        assert table[-1].a_coef == -table[-1].b_coef
        assert table[-1].k_hat_star == 0.0 - table[-1].k_star  # the terminal corners mirror
        if bounds[0] == -bounds[1]:
            assert all(row.a_coef == -row.b_coef for row in table)
            assert all(row.k_hat_star == row.k_star for row in table[:-1])
    assume(ref[-1].a_coef > 0.0)
    if rows[-1].a_coef == 0.0:  # staying out at the end stays out throughout
        assert all(row.a_coef == row.b_coef == row.k_star == row.k_hat_star == 0.0 for row in rows)
        return
    for row, moved in zip(ref[:-1], rows[:-1]):
        assert moved.k_star == pytest.approx(row.k_star, rel=1e-12)
        assert moved.k_hat_star == pytest.approx(row.k_hat_star, rel=1e-12)
        assert moved.a_coef / rows[-1].a_coef == pytest.approx(row.a_coef / ref[-1].a_coef, rel=1e-12)
        assert moved.b_coef / rows[-1].a_coef == pytest.approx(row.b_coef / ref[-1].a_coef, rel=1e-12)


def test_default_settings_keep_interior_rows_free_of_the_terminal_scale():
    # The rows' values are about 8e-4 here; an absolute 1e-6 tie slack picked
    # 0.5 under MILD and 0.85 under the other preferences.
    moved = CptPreferences(0.88, 1.25, 0.5, 0.5)
    grid = SolverSettings(grid_points=41, refine=False)
    ref, rows = (symmetric_rows(prefs, INTERIOR, 1.0, grid) for prefs in (MILD, moved))
    assert [row.k_star for row in rows[:-1]] == [row.k_star for row in ref[:-1]]
    assert [row.k_star for row in ref[:-1]] == pytest.approx([0.95, 0.95], abs=1e-12)
    refined = SolverSettings(grid_points=41)
    ref, rows = (symmetric_rows(prefs, INTERIOR, 1.0, refined) for prefs in (MILD, moved))
    for row, moved_row in zip(ref[:-1], rows[:-1]):
        assert abs(moved_row.k_star - row.k_star) <= refined.z_tol


def test_refined_rows_hold_python_floats():
    prefs = CptPreferences(0.88, 1.25, 0.5, 0.5)
    rows = symmetric_rows(prefs, INTERIOR, 1.0, SolverSettings(grid_points=41))
    grid = fraction_grid(-1.0, 1.0, 41)
    assert not {rows[0].k_star, rows[1].k_star} & set(grid)  # refinement accepted in both
    for row in rows:
        assert type(row.t) is int
        for value in (row.a_coef, row.b_coef, row.k_star, row.k_hat_star):
            assert type(value) is float


def test_symmetric_law_keeps_its_short_corner_in_every_row():
    # f(2) and f(-2) differ only in their last bits here; exact ties would
    # send row 2 long.
    prefs = CptPreferences(0.88, 1.05, 0.45, 0.99)
    rows = backward_induction(prefs, Constraints(-2.0, 2.0), DeterministicRate(0.0),
                              Normal(0.0, 0.5), 4, SolverSettings(grid_points=101)).rows
    assert [(row.k_star, row.k_hat_star) for row in rows] == [(-2.0, -2.0)] * 4


def test_least_exposure_is_scale_free():
    zs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    vals = np.array([0.9, 1.0 - 1e-13, 0.0, 1.0, 1.0 - 1e-7])
    # -0.5 and 0.5 tie up to rounding at every scale; the smaller z wins.
    for scale in (1e-9, 1.0, 1e9):
        assert _least_exposure(scale * vals, np.abs(zs), zs) == 1
    assert _least_exposure(np.array([0.0, np.inf, 1.0]), np.abs(zs[:3]), zs[:3]) == 1
    # A relative gap of 1e-11 exceeds TIE_RTOL: the larger value beats the smaller exposure.
    for scale in (1e-9, 1.0, 1e9):
        assert _least_exposure(scale * np.array([1.0 - 1e-11, 1.0]), np.abs(zs[3:]), zs[3:]) == 1


def test_least_exposure_compares_the_first_key_first():
    zs = np.array([-1.0, 1.0, 0.5, -0.5])
    vals = np.ones(4)
    assert _least_exposure(vals, np.abs(zs), zs) == 3
    assert _least_exposure(vals, zs, np.abs(zs)) == 0
    # Pairs tied in value and total exposure |z0| + |z1| go to the smaller |z1|.
    z0, z1 = np.array([0.5, 1.0, 0.0]), np.array([0.5, 0.0, -1.0])
    assert _least_exposure(np.zeros(3), np.abs(z0) + np.abs(z1), np.abs(z1), np.abs(z0), z1, z0) == 1


def test_asymmetric_rows_stop_mirroring_after_the_terminal_corner():
    rows = structure_solve(constraints=Constraints(-1.0, 3.0))
    assert rows[-1].a_coef == -rows[-1].b_coef
    for row in rows[:-1]:
        assert row.a_coef != -row.b_coef


@pytest.mark.parametrize(
    "lo, hi, n, size", [(-5.0, 5.0, 1001, 1001), (-5.0, 1.0, 401, 402), (0.0, 2.0, 11, 11),
                        (-2.0, -0.0, 11, 11), (-0.0, 1.0, 2, 2)],
)
def test_fraction_grid_adds_0_once_as_positive_zero(lo, hi, n, size):
    zs = fraction_grid(lo, hi, n)
    assert zs.size == size
    assert np.all(np.diff(zs) > 0.0)
    assert [repr(float(z)) for z in zs if z == 0.0] == ["0.0"]
    assert set(np.linspace(lo, hi, n)) <= set(zs)


def test_fraction_grid_equals_np_unique():
    rng = np.random.default_rng(23)
    cases = [(-5.0, 5.0, 1001), (-1.0, 1.0, 2), (-3.0, 1.0, 5), (-2.0, 2.0, 2),
             (0.0, 2.0, 11), (-2.0, -0.0, 11), (-0.0, 1.0, 2), (-1e-300, 1e-300, 3)]
    for i in range(300):
        hi = float(rng.uniform(1e-3, 10.0))
        lo = [-hi, -float(rng.uniform(0.0, 10.0)), -hi * int(rng.integers(1, 5)), 0.0][i % 4]
        cases.append((lo, hi, int(rng.integers(2, 200))))
    for lo, hi, n in cases:
        want = np.unique(np.append(np.linspace(lo, hi, n), 0.0)) + 0.0
        assert fraction_grid(lo, hi, n).tobytes() == want.tobytes(), (lo, hi, n)


class TestBackwardInduction:
    def test_single_period_is_terminal_row(self):
        table = backward_induction(TK, BOUNDS, DeterministicRate(0.03), SKEWED, 1)
        assert table.horizon == 1
        stats = terminal_stats(TK, SKEWED)
        assert table.rows[0] == terminal_coefficients(TK, BOUNDS, stats, t=0)

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

    @pytest.mark.parametrize("constraints, grid_points", [(BOUNDS, 1000), (Constraints(-5.0, 1.0), 401)],
                             ids=["symmetric", "asymmetric"])
    def test_zero_policy_fills_its_rows_without_the_kernel(self, monkeypatch, constraints, grid_points):
        # The baseline law makes the terminal row zero. Neither grid holds 0,
        # so the kernel's rows below come from its scan, which adds it.
        settings = SolverSettings(grid_points=grid_points)
        y = Normal(0.045, 1.69)
        steps = []
        monkeypatch.setattr(solver, "recursion_step", lambda *args: steps.append(args) or recursion_step(*args))
        table = backward_induction(TK, constraints, SQRT_T, y, 4, settings)
        assert steps == []
        rows = [table.rows[-1]]
        assert rows[0].a_coef == rows[0].b_coef == 0.0
        for _ in range(3):
            rows.append(recursion_step(TK, constraints, rows[-1], SQRT_T, y, settings))
        assert table.to_csv() == PolicyTable(tuple(reversed(rows))).to_csv()

    def test_rejects_bad_schedule_length(self):
        with pytest.raises(ValueError, match="one entry per period"):
            backward_induction(TK, BOUNDS, DeterministicRate(0.03), [SKEWED] * 2, 3)

    @pytest.mark.xfail(raises=AssertionError, reason="Gauss-Hermite nodes cannot resolve the kink "
                       "of |q|**alpha at q = 0, so flat objectives get wrong fractions")
    def test_flat_objectives_pick_the_exact_fraction(self):
        # With symmetric bounds and a zero rate, rows 0 and 1 maximize
        # E|1 + y*z|**alpha over z in [-1, 1]. Each pinned argmax is an mpmath
        # findroot (35 digits) of its z-derivative, E[alpha*|q|**(alpha-1)*sign(q)*y]
        # with q = 1 + y*z, the Normal integral split at mu, mu +- 12 sigma and
        # the kink y = -1/z. Computing it here would take about a minute.
        for alpha, y, want in [(0.5, Normal(-0.1, 0.55), -0.594574120794413),
                               (0.3, Normal(-0.15, 0.5), -0.78139315573081)]:
            prefs = CptPreferences(alpha, 1.05, 0.9, 0.9)
            table = backward_induction(prefs, Constraints(-1.0, 1.0), DeterministicRate(0.0), y, 3)
            for row in table.rows[:2]:
                assert row.k_star == pytest.approx(want, abs=1e-5), alpha


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Constraints(np.nan, 1.0), "fraction bounds must be finite"),
        (lambda: TerminalStats(np.nan, 0.0), "terminal statistics must be finite"),
        (lambda: PolicyCoefficients(0, 1.0, -1.0, np.nan, 0.0), "policy coefficients must be finite"),
        (lambda: PolicyTable(()), "at least one row"),
        (lambda: SolverSettings(z_tol=np.inf), "z_tol must be finite"),
        (lambda: SolverSettings(cdf_tol=np.inf), "cdf_tol must be finite"),
        (lambda: optimal_trade(PolicyCoefficients(0, 1.0, -1.0, 0.5, 0.5), np.inf),
         "wealth must be finite"),
    ],
    ids=["bounds_nan", "terminal_stats_nan", "fraction_nan", "no_rows", "z_tol_inf",
         "cdf_tol_inf", "wealth_inf"],
)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bracket_within_z_tol_is_refined_by_its_midpoint_alone():
    calls = []

    def f_batch(zs):
        calls.append(zs.tolist())
        return 1.0 - (zs - 0.33) ** 2

    _grid_then_golden(f_batch, -1.0, 1.0, SolverSettings(grid_points=21, z_tol=1.0))
    # The grid, then one point: the midpoint of the best point's neighbours.
    grid = fraction_grid(-1.0, 1.0, 21)
    i = int(np.argmin(np.abs(grid - 0.33)))
    assert calls[1:] == [[0.5 * (grid[i - 1] + grid[i + 1])]]


@pytest.mark.parametrize(
    "f, lo, hi, tol, want",
    [("lambda z: z", 8e11, 1e12, 1e-6, 1e12),
     ("lambda z: -(z - 0.3) ** 2", 0.2, 0.4, 1e-300, 0.3)],
    ids=["tol_below_spacing_of_a_wide_bracket", "tol_1e-300"],
)
def test_golden_refinement_stops_at_float_resolution(f, lo, hi, tol, want):
    # Below the bracket's float spacing, c and d round onto its ends and the
    # bracket stops shrinking. A fresh interpreter with a timeout turns a loop
    # that never ends into a failure.
    code = f"from cptalloc.solver import _golden_max; print(_golden_max({f}, {lo!r}, {hi!r}, {tol!r})[0])"
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).resolve().parent.parent)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert (res.returncode, res.stderr) == (0, "")
    assert abs(float(res.stdout) - want) <= 2 * np.spacing(want)


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
        lines = table.to_csv().strip().splitlines()
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
