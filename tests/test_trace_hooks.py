"""The benchmark's trace hooks still find the cptalloc names they patch.

perfbench/tracing.py wraps functions, methods and module attributes of
cptalloc by name; renaming one of them must fail here, not only in a traced
benchmark run.
"""

from pathlib import Path

import numpy as np

import cptalloc._quadpack
import cptalloc.cli as cli
import cptalloc.dist as dist

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HORIZON, N_PATHS = 3, 5
TINY = (f"mu = 0.3\nsigma = 0.5\nhorizon = {HORIZON}\nn_paths = {N_PATHS}\n"
        "grid_points = 11\ny_nodes = 4\nr_nodes = 4\n")


def test_traced_solve_and_simulate_count_their_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # Under the tracer's wrapper, the port itself counts its evaluations
    # and the abscissae it hands the integrands.
    port = cptalloc._quadpack.quad
    seen = {"neval": 0, "points": 0}

    def counted_port(f, *args):
        def counted_f(xs):
            seen["points"] += len(xs)
            return f(xs)

        out = port(counted_f, *args)
        seen["neval"] += out[2]["neval"]
        return out

    monkeypatch.setattr(cptalloc._quadpack, "quad", counted_port)
    cfg = cli.parse_config(TINY)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        cli.run_solve(cfg, str(tmp_path / "solve"))
        assert tracer.calls["solver.recursion_step"] == HORIZON - 1
        cli.run_simulate(cfg, str(tmp_path / "simulate"))
        # simulate transforms raw variates and calls no sample(); the hook
        # must still bind on each of the four classes.
        rng = np.random.default_rng(0)
        dist.Normal(0.0, 1.0).sample(rng)
        dist.DiscreteEmpirical([0.0], [1.0]).sample(rng)
        dist.DeterministicRate(0.03).sample(1, rng)
        dist.GaussianSqrtTRate(0.03, 0.02).sample(1, rng)
    assert tracer.calls["solver.recursion_step"] == 2 * (HORIZON - 1)
    assert tracer.calls["cli.run_solve"] == tracer.calls["cli.run_simulate"] == 1
    assert tracer.calls["simulate.simulate_paths"] == 1
    assert tracer.calls["dist.sample"] == 4
    assert seen["neval"] > 0
    assert tracer.counters["choquet.quad_neval"] == seen["neval"] == seen["points"]
    metrics = tracing.layer_metrics(tracer, cli.worker_count())
    assert metrics["simulate.path_steps"] == (N_PATHS * HORIZON, "count")


def test_traced_demo_scores_its_pairs_in_one_batch(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = cli.parse_config(f"atom_file = {PERFBENCH / 'fixtures' / 'four_atoms.csv'}\n")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        cli.run_demo(cfg, 0.0, 0.5, 11, str(tmp_path))
    assert tracer.calls["simulate.inconsistency_demo"] == 1
    # The atom load and the two terminal legs only: no construction per pair.
    assert tracer.calls["dist.discrete_new"] <= 3
    assert tracer.calls["choquet.cpt_discrete"] <= 3


def test_benchmark_checks_pass_on_demo_and_value(tmp_path, monkeypatch, capsys):
    # The benchmark recomputes the demo's reported values and value's legs
    # with cpt_discrete and counts a mismatch as a failed operation.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    import cptalloc

    cfg_file = tmp_path / "four_atoms.cfg"
    cfg_file.write_text(f"atom_file = {PERFBENCH / 'fixtures' / 'four_atoms.csv'}\n")
    cfg = cli.load_config(cfg_file)
    assert cli.main(["demo", "--config", str(cfg_file), "--demo-grid", "11",
                     "--out", str(tmp_path)]) == 0
    failures = checks.check_demo(tmp_path / "demo_report.txt", cfg, cptalloc.cpt_discrete,
                                 cptalloc.DiscreteEmpirical, 11)
    for amount in (1.0, -2.5):
        capsys.readouterr()
        assert cli.main(["value", "--config", str(cfg_file), "--amount", str(amount)]) == 0
        stdout = tmp_path / "stdout.txt"
        stdout.write_text(capsys.readouterr().out)
        failures += checks.check_value(stdout, cfg, amount, cptalloc)
    assert failures == []
