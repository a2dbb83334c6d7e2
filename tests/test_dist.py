import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

import cptalloc.cli as cli
import cptalloc.dist as dist
from cptalloc import (
    CptPreferences,
    DeterministicRate,
    DiscreteEmpirical,
    GaussianSqrtTRate,
    Normal,
    as_schedule,
    cpt_discrete,
    discretize,
)

COIN = DiscreteEmpirical([-1.0, 1.0], [0.5, 0.5])


class TestNormal:
    def test_cdf_at_mean(self):
        assert Normal(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert Normal(0.045, 1.69).cdf(0.045) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_median_and_tail(self):
        n = Normal(0.0, 1.0)
        assert n.quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        q = n.quantile(0.975)
        assert q == pytest.approx(1.959963984540054, abs=1e-12)
        assert n.cdf(q) == pytest.approx(0.975, abs=1e-13)

    def test_quantile_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                Normal(0.0, 1.0).quantile(p)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)

    def test_cdf_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Normal(0.0, 1.0).cdf(np.nan)

    def test_expectation_nodes_match_moments(self):
        n = Normal(0.3, 2.0)
        x, w = n.expectation_nodes(32)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.dot(w, x) == pytest.approx(0.3, abs=1e-12)
        assert np.dot(w, (x - 0.3) ** 2) == pytest.approx(4.0, rel=1e-12)


class TestDiscreteEmpirical:
    def test_cdf_examples(self):
        assert COIN.cdf(0.0) == 0.5
        assert COIN.cdf(-1.0) == 0.5
        assert COIN.cdf(1.0) == 1.0
        assert COIN.cdf(-2.0) == 0.0
        assert COIN.cdf(2.0) == 1.0

    def test_quantile_generalized_inverse(self):
        assert COIN.quantile(0.25) == -1.0
        assert COIN.quantile(0.5) == -1.0
        assert COIN.quantile(0.75) == 1.0

    def test_merges_duplicates(self):
        d = DiscreteEmpirical([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        np.testing.assert_array_equal(d.values, [1.0, 2.0])
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_sorted_ascending(self):
        d = DiscreteEmpirical([3.0, -1.0, 0.5], [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(d.values, [-1.0, 0.5, 3.0])
        np.testing.assert_allclose(d.probs, [0.3, 0.5, 0.2])

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            DiscreteEmpirical([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            DiscreteEmpirical([1.0, 2.0], [1.1, -0.1])

    def test_sample_reproducible(self):
        a = COIN.sample(np.random.default_rng(7), 100)
        b = COIN.sample(np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("size", [None, 0, 1, 5, (3, 4)])
    def test_sample_is_generator_choice(self, size):
        # 200 laws: single atoms, merged duplicates and tiny probabilities.
        laws = np.random.default_rng(11)
        for i in range(200):
            n = 1 if i % 10 == 0 else int(laws.integers(2, 30))
            values = laws.integers(-5, 6, n) * 0.1 if i % 3 == 0 else laws.normal(size=n)
            probs = laws.dirichlet(np.ones(n))
            if i % 4 == 1 and n > 1:
                probs[laws.integers(n)] = 10.0 ** -float(laws.integers(10, 300))
            d = DiscreteEmpirical(values, probs / probs.sum())
            a, b = np.random.default_rng(i), np.random.default_rng(i)
            got = d.sample(a, size)
            want = d.values[b.choice(d.values.size, size, p=d.probs)]
            assert type(got) is type(want)
            np.testing.assert_array_equal(got, want, strict=True)
            assert a.random() == b.random()  # both consumed the same draws

    def test_negate(self):
        d = DiscreteEmpirical([-0.2, 1.0], [0.4, 0.6]).negate()
        np.testing.assert_array_equal(d.values, [-1.0, 0.2])
        np.testing.assert_allclose(d.probs, [0.6, 0.4])


class TestFromCsv:
    def test_loads(self, tmp_path):
        f = tmp_path / "atoms.csv"
        f.write_text("value,probability\n1.0,0.6\n-0.2,0.4\n")
        d = DiscreteEmpirical.from_csv(f)
        np.testing.assert_array_equal(d.values, [-0.2, 1.0])
        np.testing.assert_allclose(d.probs, [0.4, 0.6])

    def test_requires_header(self, tmp_path):
        f = tmp_path / "atoms.csv"
        f.write_text("1.0,0.6\n-0.2,0.4\n")
        with pytest.raises(ValueError, match="header"):
            DiscreteEmpirical.from_csv(f)

    @pytest.mark.parametrize("text", [
        "value,probability\r\n1.0,0.6\r\n-0.2,0.4\r\n",
        '"value","probability"\n"1.0","0.6"\n-0.2,"0.4"\n',
        "value,probability\n\n1.0,0.6\n\n-0.2,0.4\n\n",
    ], ids=["crlf", "quoted", "blank_lines"])
    def test_loads_dialects(self, tmp_path, text):
        f = tmp_path / "atoms.csv"
        f.write_bytes(text.encode())
        d = DiscreteEmpirical.from_csv(f)
        np.testing.assert_array_equal(d.values, [-0.2, 1.0])
        np.testing.assert_allclose(d.probs, [0.4, 0.6])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("", "empty atom file"),
        ("value,probability\n", "no atom rows"),
        ("value,probability\n\n\n", "no atom rows"),
    ])
    def test_rejects_files_without_atoms_silently(self, tmp_path, text, message):
        f = tmp_path / "atoms.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            DiscreteEmpirical.from_csv(f)

    def test_rejects_malformed_row(self, tmp_path):
        f = tmp_path / "atoms.csv"
        # Rows of 1 or 3 fields, alone or mixed with rows of 2; `1_0` passes
        # float() but is no number to numpy's parser.
        for body in ("1.0,abc\n", "1.0\n", "1.0\n-0.2\n", "0.3,0.7,junk\n-0.25,0.3\n",
                     "0.3,0.7,0.1\n-0.25,0.3,0.1\n", "0.3,0.7\n-0.25,0.3,0.1\n", "1.0,\n",
                     "1_0,0.5\n-0.2,0.5\n"):
            f.write_text("value,probability\n" + body)
            with pytest.raises(ValueError, match="malformed atom row"):
                DiscreteEmpirical.from_csv(f)


class TestDiscretize:
    def test_two_atom_normal(self):
        d = discretize(Normal(0.0, 1.0), 2)
        np.testing.assert_allclose(
            d.values, [-0.6744897501960817, 0.6744897501960817], atol=1e-12
        )
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_small_discrete_passthrough(self):
        single = DiscreteEmpirical([0.0], [1.0])
        assert discretize(single, 10) is single

    def test_large_discrete_is_reduced(self):
        d = DiscreteEmpirical(np.linspace(-1, 1, 50), np.full(50, 0.02))
        out = discretize(d, 10)
        assert out.values.size <= 10

    @pytest.mark.parametrize("mu,sigma,n", [(0.0, 1.0, 100), (0.045, 1.69, 400), (-2.0, 0.5, 50)])
    def test_mean_recovery(self, mu, sigma, n):
        atoms = discretize(Normal(mu, sigma), n)
        assert np.dot(atoms.values, atoms.probs) == pytest.approx(mu, abs=sigma / np.sqrt(n))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            discretize(Normal(0.0, 1.0), 1)

    def test_preserves_first_order_dominance(self):
        hi, lo = Normal(0.5, 1.0), Normal(0.0, 1.0)
        for n in (5, 64, 257):
            a = discretize(hi, n)
            b = discretize(lo, n)
            assert np.all(a.values >= b.values)

    @pytest.mark.parametrize("n", [10, 100])
    def test_cdf_sup_distance(self, n):
        d = Normal(0.0, 1.0)
        atoms = discretize(d, n)
        xs = np.linspace(-3.0, 3.0, 4001)
        gap = np.max(np.abs(atoms.cdf(xs) - d.cdf(xs)))
        assert gap <= 1.0 / n


class TestRateModels:
    def test_deterministic_constant(self):
        m = DeterministicRate(0.03)
        rng = np.random.default_rng(0)
        assert m.sample(7, rng) == 0.03
        v, w = m.nodes(3, 16)
        np.testing.assert_array_equal(v, [0.03])
        np.testing.assert_array_equal(w, [1.0])

    def test_deterministic_is_the_zero_vol_model(self):
        m = DeterministicRate(0.03)
        assert isinstance(m, GaussianSqrtTRate) and (m.r, m.base, m.vol) == (0.03, 0.03, 0.0)
        assert repr(m) == "DeterministicRate(r=0.03)"
        assert m == DeterministicRate(0.03) and hash(m) == hash(DeterministicRate(0.03))
        assert m != GaussianSqrtTRate(0.03, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.base = 0.04

    def test_deterministic_rejects_low_rate(self):
        with pytest.raises(ValueError):
            DeterministicRate(-1.0)

    def test_sqrt_t_time_zero_is_exact(self):
        m = GaussianSqrtTRate(0.03, 0.003)
        rng = np.random.default_rng(0)
        assert m.sample(0, rng) == 0.03
        v, w = m.nodes(0, 16)
        np.testing.assert_array_equal(v, [0.03])

    def test_sqrt_t_monte_carlo_moments(self):
        m = GaussianSqrtTRate(0.03, 0.003)
        draws = m.sample(4, np.random.default_rng(2024), 10**6)
        assert draws.mean() == pytest.approx(0.03, abs=5e-5)
        assert draws.std() == pytest.approx(0.006, abs=5e-5)

    def test_sqrt_t_nodes_match_moments(self):
        m = GaussianSqrtTRate(0.03, 0.003)
        v, w = m.nodes(4, 16)
        assert np.dot(w, v) == pytest.approx(0.03, abs=1e-14)
        assert np.dot(w, (v - 0.03) ** 2) == pytest.approx(0.006**2, rel=1e-10)

    def test_sqrt_t_truncation(self):
        m = GaussianSqrtTRate(0.0, 10.0)
        draws = m.sample(100, np.random.default_rng(5), 1000)
        assert np.all(draws > -1.0)

    def test_rejects_negative_period(self):
        with pytest.raises(ValueError):
            GaussianSqrtTRate(0.03, 0.003).sample(-1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GaussianSqrtTRate(0.03, 0.003).sample(np.array([0, -1]), np.random.default_rng(0))

    @pytest.mark.parametrize("model", [GaussianSqrtTRate(0.03, 0.02), DeterministicRate(0.03)])
    def test_period_array_equals_scalar_calls(self, model):
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        want = [model.sample(t, a) for t in range(6)]
        np.testing.assert_array_equal(model.sample(np.arange(6), b), want)
        assert a.random() == b.random()  # both consumed the same draws

    def test_rejects_negative_vol(self):
        with pytest.raises(ValueError):
            GaussianSqrtTRate(0.03, -0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Normal(np.nan, 1.0), "Normal parameters must be finite"),
        (lambda: DeterministicRate(np.nan), "r must be finite"),
        (lambda: GaussianSqrtTRate(0.03, np.inf), "vol must be finite"),
        (lambda: DiscreteEmpirical([], []), "nonzero numbers"),
        (lambda: DiscreteEmpirical([np.inf], [1.0]), "atom values must be finite"),
        (lambda: COIN.cdf(np.nan), "x must be finite"),
        (lambda: COIN.quantile(0.0), r"p must lie in \(0, 1\)"),
        (lambda: GaussianSqrtTRate(0.03, 0.02).sample(np.arange(3), np.random.default_rng(0), 5),
         "size applies to a single period"),
        (lambda: Normal(0.0, 1.0).expectation_nodes(0), r"node count must lie in \[1, 256\]"),
        (lambda: Normal(0.0, 1.0).expectation_nodes(257), r"node count must lie in \[1, 256\]"),
    ],
    ids=["normal_nan_mu", "fixed_rate_nan", "rate_vol_inf", "no_atoms", "atom_inf",
         "atom_cdf_nan", "atom_quantile_0", "sample_periods_and_size", "nodes_0", "nodes_257"],
)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestAsSchedule:
    def test_single_distribution_repeats(self):
        n = Normal(0.0, 1.0)
        sched = as_schedule(n, 4)
        assert len(sched) == 4 and all(d is n for d in sched)

    def test_sequence_passthrough(self):
        seq = [Normal(0.0, 1.0), Normal(0.1, 2.0)]
        assert as_schedule(seq, 2) == seq

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="one entry per period"):
            as_schedule([Normal(0.0, 1.0)], 3)

    def test_rejects_non_distribution_entries(self):
        with pytest.raises(ValueError, match="distributions"):
            as_schedule([Normal(0.0, 1.0), 0.5], 2)


def test_quantile_cdf_roundtrip_continuous():
    n = Normal(0.045, 1.69)
    ps = np.linspace(0.001, 0.999, 97)
    np.testing.assert_allclose(n.cdf(n.quantile(ps)), ps, atol=1e-12)


def test_discrete_cdf_quantile_generalized_inverse():
    d = DiscreteEmpirical([-2.0, 0.0, 1.5], [0.2, 0.3, 0.5])
    ps = np.linspace(0.01, 0.99, 53)
    assert np.all(d.cdf(d.quantile(ps)) >= ps - 1e-15)


def old_hermite_nodes(loc, scale, n):
    """_hermite_nodes as written before its rules were cached: the reference."""
    x, w = np.polynomial.hermite.hermgauss(n)
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = loc + scale * np.sqrt(2.0) * x
    return nodes, w / w.sum()


def test_sweep_computes_each_hermite_rule_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    hermgauss = np.polynomial.hermite.hermgauss

    def counted(n):
        calls[n] += 1
        return hermgauss(n)

    dist._hermite_rule.cache_clear()  # as in a fresh process
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
    (tmp_path / "run.cfg").write_text("horizon = 5\ngrid_points = 101\nrate_model = sqrt_t\n")
    argv = ["sweep", "--config", str(tmp_path / "run.cfg"), "--param", "mu", "--grid", "1.0,1.5",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    # Both values give active policies, so every period is a recursion step.
    # Without the cache: one y_nodes rule per recursion step and one r_nodes
    # rule per random-rate step, each sweep value: 2 * (4 + 3) calls.
    assert calls == {cli.RunConfig.y_nodes: 1, cli.RunConfig.r_nodes: 1}


@pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 256])
def test_cached_hermite_nodes_equal_the_uncached_rule(n):
    for mu, sigma in [(0.3, 2.0), (-1e-3, 1e-9), (0.045, 1.69)]:
        got = Normal(mu, sigma).expectation_nodes(n)
        want = old_hermite_nodes(mu, sigma, n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for base, vol, t in [(0.03, 0.003, 4), (0.0, 10.0, 100)]:  # the second clamps at MIN_RATE
        nodes, w = old_hermite_nodes(base, vol * np.sqrt(t), n)
        want = np.maximum(nodes, dist.MIN_RATE), w
        got = GaussianSqrtTRate(base, vol).nodes(t, n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_caller_cannot_change_a_later_hermite_rule():
    want = [a.tobytes() for a in old_hermite_nodes(0.3, 2.0, 32)]
    x, w = Normal(0.3, 2.0).expectation_nodes(32)
    rx, rw = GaussianSqrtTRate(0.3, 2.0).nodes(1, 32)
    for weights in (w, rw):
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1.0
    x[:] = 0.0  # the nodes are a new array on every call
    rx[:] = 0.0
    assert [a.tobytes() for a in Normal(0.3, 2.0).expectation_nodes(32)] == want


def test_a_float_node_count_is_rejected_even_when_its_rule_is_cached():
    Normal(0.0, 1.0).expectation_nodes(4)
    with pytest.raises(TypeError):
        Normal(0.0, 1.0).expectation_nodes(4.0)
    with pytest.raises(TypeError):
        GaussianSqrtTRate(0.03, 0.01).nodes(1, 4.0)


def merge_rows_with_unique(values, probs):
    """_merge_rows as written with np.unique, the reference for its replacement."""
    rows, k = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    v = np.take_along_axis(values, order, axis=1)
    new = np.ones((rows, k), dtype=bool)
    np.not_equal(v[:, 1:], v[:, :-1], out=new[:, 1:])
    col = np.cumsum(new, axis=1) - 1
    n = col[:, -1] + 1
    flat = (col + k * np.arange(rows)[:, None]).ravel()
    merged = np.zeros(rows * k)
    np.add.at(merged, flat, probs[order].ravel())
    uniq = np.zeros(rows * k)
    uniq[flat[new.ravel()]] = v[new]
    merged, uniq = merged.reshape(rows, k), uniq.reshape(rows, k)
    total = np.empty(rows)
    for m in np.unique(n):
        same = n == m
        total[same] = merged[same, :m].sum(axis=1)
    merged /= total[:, None]
    cum = np.cumsum(merged, axis=1)
    np.minimum(cum, 1.0, out=cum)
    cum[np.arange(k) >= n[:, None] - 1] = 1.0
    lower = np.concatenate((np.zeros((rows, 1)), cum), axis=1)  # P(X < each value)
    return uniq, merged, lower, n.tolist()


def test_merge_rows_equals_the_np_unique_reference():
    rng = np.random.default_rng(41)
    k = 12
    probs = rng.dirichlet(np.ones(k))
    # Rows of 1, 3, 8, 9 and 12 distinct values, each count twice, shuffled:
    # numpy's pairwise sum changes its association from 8 terms on.
    rows = []
    for distinct in (1, 3, 8, 9, 12) * 2:
        row = rng.uniform(-2.0, 2.0, distinct)[np.arange(k) % distinct]
        rows.append(rng.permutation(row))
    values = np.array(rows)[rng.permutation(len(rows))]
    got = dist._merge_rows(values, probs)
    want = merge_rows_with_unique(values, probs)
    assert sorted(set(got[3])) == [1, 3, 8, 9, 12]
    assert got[3] == want[3]
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]


def test_merge_rows_keeps_tied_values_in_input_order_at_large_k():
    # Long runs of equal values, signed zeros among them, and distinct
    # probabilities: add.at sums a run in its order, so any other order of
    # equal values changes the merged bits, and uniq takes the sign of a
    # run's first zero.
    rng = np.random.default_rng(43)
    rows, k = 6, 1500
    values = rng.integers(-40, 41, (rows, k)) / 16.0
    values[0] = 0.0
    values[1] = rng.normal(size=k)  # distinct values beside tied rows
    values[rng.random((rows, k)) < 0.5] *= -1.0
    probs = rng.dirichlet(np.ones(k))
    got = dist._merge_rows(values, probs)
    want = merge_rows_with_unique(values, probs)
    assert got[3] == want[3]
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]


def tied_atoms():
    """10**5 atoms rounded to 3 decimals, 1959 distinct, of unequal probability."""
    rng = np.random.default_rng(29)
    values = np.round(0.05 + 0.3 * rng.standard_normal(10**5), 3)
    probs = rng.uniform(0.5, 1.5, values.size)
    return values, probs / probs.sum()


def test_tied_large_discrete_equals_the_stable_reference():
    values, probs = tied_atoms()
    d = DiscreteEmpirical(values, probs)
    uniq, merged, lower, (n,) = merge_rows_with_unique(values[None], probs)
    assert d.values.size == n == 1959
    for got, want in ((d.values, uniq), (d.probs, merged), (d.cumulative, lower[:, 1:])):
        assert got.tobytes() == want[0, :n].tobytes()
    # The value before equal atoms were merged without a stable sort.
    out = cpt_discrete(CptPreferences(0.88, 2.20, 0.61, 0.69), d)
    assert (out.gain_part, out.loss_part) == (0.19719648429459805, 0.3203390263595522)


def test_cumulative_is_a_view_of_the_padded_cdf():
    values, probs = tied_atoms()
    d = DiscreteEmpirical(values, probs)
    assert np.shares_memory(d.cumulative, d._cum_padded)
    assert not d.cumulative.flags.writeable
    assert d.cdf(d.values).tobytes() == d.cumulative.tobytes()
    assert d.quantile(d.cumulative[:-1]).tobytes() == d.values[:-1].tobytes()


def test_discrete_on_distinct_atoms_peaks_at_three_copies():
    # 10**5 atoms are 0.8 MB a copy: the sort order, the sorted values and
    # the probabilities, then the padded CDF once the order is freed.
    rng = np.random.default_rng(5)
    n = 10**5
    values, probs = 0.05 + 0.3 * rng.standard_normal(n), np.full(n, 1.0 / n)
    DiscreteEmpirical(values[:10], np.full(10, 0.1))  # lazy set-up first
    tracemalloc.start()
    try:
        DiscreteEmpirical(values, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
