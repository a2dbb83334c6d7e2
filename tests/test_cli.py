import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cptalloc.cli as cli
from cptalloc import (
    ConfigError,
    DiscreteEmpirical,
    NumericalError,
    PathEnsemble,
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
    terminal_coefficients,
    terminal_stats,
)
from cptalloc.simulate import paths_to_csv, simulate_paths, summary_to_csv
from test_simulate import reference_ensemble

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_atoms(tmp_path, name="atoms.csv"):
    f = tmp_path / name
    f.write_text("value,probability\n1.0,0.6\n-0.2,0.4\n")
    return f


# The keys that take a float (or, for mu and sigma, a schedule), in schema order.
FLOAT_KEYS = ("alpha", "lambda", "gamma", "delta", "lo_frac", "hi_frac", "mu", "sigma",
              "rate", "rate_base", "rate_vol", "w0", "z_tol", "cdf_tol")

# A config that sets every key, in its canonical text: schema order, shortest
# float reprs.
EVERY_KEY = """\
alpha = 0.5
lambda = 2.25
gamma = 0.6
delta = 0.7
lo_frac = -1.0
hi_frac = 2.0
mu = 0.1,0.2,0.3
sigma = 0.5,0.25,1.0
atom_file = atoms.csv
rate_model = fixed
rate = 0.04
rate_base = 0.025
rate_vol = 0.002
horizon = 3
w0 = 1.5
grid_points = 101
z_tol = 1e-07
y_nodes = 32
r_nodes = 8
cdf_tol = 1e-10
n_paths = 12
seed = 7
out_dir = runs
"""


class TestParseConfig:
    def test_empty_text_gives_baseline(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert (cfg.alpha, cfg.lam, cfg.gamma, cfg.delta) == (0.88, 2.20, 0.61, 0.69)
        assert (cfg.lo_frac, cfg.hi_frac) == (-5.0, 5.0)
        assert (cfg.mu, cfg.sigma) == (0.045, 1.69)
        assert (cfg.horizon, cfg.w0) == (10, 0.8)
        assert cfg.rate_model == "sqrt_t"

    def test_shipped_default_config_is_baseline(self):
        cfg = load_config(CONFIG_DIR / "default.cfg")
        assert cfg == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# hello\n\nalpha = 0.5  # inline\n")
        assert cfg.alpha == 0.5

    def test_rejects_alpha_out_of_bounds(self):
        with pytest.raises(ConfigError, match=r"0 < alpha < 1"):
            parse_config("alpha = 1.5")

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key: alpa"):
            parse_config("alpa = 0.5")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("alpha = 0.5\nalpha = 0.6")

    def test_rejects_bad_syntax(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("alpha 0.5")

    def test_rejects_bad_number(self):
        with pytest.raises(ConfigError, match="invalid value for alpha"):
            parse_config("alpha = zero")

    def test_rejects_non_finite_values(self):
        with pytest.raises(ConfigError, match="mu must be finite"):
            parse_config("mu = inf")
        with pytest.raises(ConfigError, match="hi_frac must be finite"):
            parse_config("hi_frac = inf")

    def test_rejects_illposed_combination(self):
        with pytest.raises(ConfigError, match=r"2\*min\(gamma, delta\)"):
            parse_config("alpha = 0.9\ngamma = 0.43\ndelta = 0.95")

    def test_fixed_rate_model_requires_rate(self):
        with pytest.raises(ConfigError, match="missing required key: rate"):
            parse_config("rate_model = fixed")
        cfg = parse_config("rate_model = fixed\nrate = 0.03")
        assert cfg.rate == 0.03

    def test_roundtrip_is_idempotent(self):
        for text in ("lambda = 2.2", "", "alpha = 0.5\nsigma = 0.25\nrate_model = fixed\nrate = 0.01",
                     EVERY_KEY):
            once = serialize_config(parse_config(text))
            twice = serialize_config(parse_config(once))
            assert once == twice
        assert serialize_config(parse_config(EVERY_KEY)) == EVERY_KEY

    def test_load_resolves_relative_atom_file(self, tmp_path):
        write_atoms(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("atom_file = atoms.csv\n")
        cfg = load_config(cfg_file)
        assert Path(cfg.atom_file).is_absolute()
        y = cfg.y_distribution()
        assert isinstance(y, DiscreteEmpirical)
        np.testing.assert_array_equal(y.values, [-0.2, 1.0])

    def test_atom_file_takes_precedence_over_mu_sigma(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg = parse_config(f"atom_file = {f}\nmu = 0.1\nsigma = 0.2\n")
        assert isinstance(cfg.y_distribution(), DiscreteEmpirical)

    def test_missing_atom_file_is_config_error(self):
        cfg = parse_config("atom_file = /nonexistent/atoms.csv")
        with pytest.raises(ConfigError, match="atom_file"):
            cfg.y_distribution()

    def test_mu_sigma_schedules(self):
        cfg = parse_config("horizon = 3\nmu = 0.01,0.02,0.03\nsigma = 0.5")
        assert cfg.mu == (0.01, 0.02, 0.03)
        sched = cfg.y_schedule()
        assert [d.mu for d in sched] == [0.01, 0.02, 0.03]
        assert all(d.sigma == 0.5 for d in sched)
        once = serialize_config(cfg)
        assert "mu = 0.01,0.02,0.03" in once
        assert serialize_config(parse_config(once)) == once

    def test_schedule_length_must_match_horizon(self):
        with pytest.raises(ConfigError, match="one value per period"):
            parse_config("horizon = 3\nsigma = 0.5,0.6")

    def test_stationary_schedule_solves_identically(self, tmp_path):
        scalar = parse_config(f"horizon = 2\nsigma = 0.3\nout_dir = {tmp_path}/a")
        sched = parse_config(
            f"horizon = 2\nmu = 0.045,0.045\nsigma = 0.3,0.3\nout_dir = {tmp_path}/b"
        )
        a = cli.run_solve(scalar).read_text().splitlines()[1:]
        b = cli.run_solve(sched).read_text().splitlines()[1:]
        assert a == b  # provenance hash differs, policy rows identical


class TestRunSolve:
    def test_single_period_matches_terminal_row(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg = parse_config(
            f"atom_file = {f}\nhorizon = 1\nrate_model = fixed\nrate = 0.03\nout_dir = {tmp_path}/out"
        )
        target = cli.run_solve(cfg)
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("# config_sha256 = ")
        assert lines[1] == "t,A_t,B_t,kStar,kHatStar"
        assert len(lines) == 3
        stats = terminal_stats(cfg.preferences(), cfg.y_distribution(), cfg.cdf_tol)
        want = terminal_coefficients(cfg.preferences(), cfg.constraints(), stats, t=0)
        cells = lines[2].split(",")
        assert float(cells[1]) == want.a_coef
        assert float(cells[3]) == want.k_star

    def test_baseline_policy_stays_in_bounds(self, tmp_path):
        cfg = parse_config(f"out_dir = {tmp_path}/out")
        target = cli.run_solve(cfg)
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 2 + 10
        for line in lines[2:]:
            cells = line.split(",")
            assert -5.0 <= float(cells[3]) <= 5.0
            assert -5.0 <= float(cells[4]) <= 5.0

    def test_repeated_runs_byte_identical(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg = parse_config(f"atom_file = {f}\nhorizon = 3\nout_dir = {tmp_path}/out")
        first = cli.run_solve(cfg).read_bytes()
        second = cli.run_solve(cfg).read_bytes()
        assert first == second


class TestRunSweep:
    def test_params_are_the_float_keys_and_rate_mode(self):
        assert cli.SWEEP_PARAMS == (*FLOAT_KEYS, "rate-mode")

    # lambda is the key whose RunConfig field has another name (lam).
    GRIDS = {
        "alpha": ["0.5", "0.88"],
        "lambda": ["1.5", "3"],
        "gamma": ["0.5", "0.9"],
        "lo_frac": ["-2", "0"],
        "hi_frac": ["0.5", "3"],
    }

    @pytest.mark.parametrize("param", GRIDS)
    def test_single_point_matches_solve(self, tmp_path, param):
        """Each grid value's block equals a solve of that one variant, in grid order."""
        grid = self.GRIDS[param]
        f = write_atoms(tmp_path)
        base = f"atom_file = {f}\nhorizon = 2\nout_dir = {tmp_path}/out"
        cfg = parse_config(base)
        sweep_path = cli.run_sweep(cfg, param, grid)
        sweep_rows = [ln.split(",") for ln in sweep_path.read_text().strip().splitlines()[1:]]
        assert len(sweep_rows) == 2 * len(grid)
        for i, value in enumerate(grid):
            solve_path = cli.run_solve(parse_config(f"{base}\n{param} = {value}"))
            solve_rows = [ln.split(",") for ln in solve_path.read_text().strip().splitlines()[2:]]
            assert len(solve_rows) == 2
            for srow, prow in zip(sweep_rows[2 * i:2 * i + 2], solve_rows):
                assert srow[0] == value
                assert srow[1] == prow[0]  # t
                assert srow[2] == prow[3]  # kStar
                assert srow[3] == prow[4]  # kHatStar
                assert srow[4] == prow[1]  # A_t
                assert srow[5] == prow[2]  # B_t

    def test_invalid_grid_point_aborts_before_writing(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg = parse_config(f"atom_file = {f}\nhorizon = 2\nout_dir = {tmp_path}/out")
        with pytest.raises(ConfigError):
            cli.run_sweep(cfg, "alpha", ["0.5", "1.7"])
        assert not (tmp_path / "out" / "sweep_alpha.csv").exists()

    def test_grid_items_are_single_values(self, tmp_path):
        # A grid item is one number, for mu too, whose config value may be a schedule.
        cfg = parse_config(f"horizon = 2\ngrid_points = 11\nout_dir = {tmp_path}/out")
        with pytest.raises(ConfigError, match="grid"):
            cli.run_sweep(cfg, "mu", ["0.1,0.2"])
        lines = cli.run_sweep(cfg, "mu", [0.1, 0.2]).read_text().splitlines()[1:]
        labels = ["0.10000000000000001"] * 2 + ["0.20000000000000001"] * 2
        assert [ln.split(",")[0] for ln in lines] == labels

    def test_rejects_unknown_param(self, tmp_path):
        cfg = parse_config(f"out_dir = {tmp_path}/out")
        with pytest.raises(ConfigError, match="sweep param"):
            cli.run_sweep(cfg, "beta", ["0.5"])

    @pytest.mark.parametrize("param", ["mu", "sigma"])
    def test_rejects_param_that_atom_file_overrides(self, tmp_path, param):
        f = write_atoms(tmp_path)
        cfg = parse_config(f"atom_file = {f}\nhorizon = 2\nout_dir = {tmp_path}/out")
        with pytest.raises(ConfigError, match=f"cannot sweep {param}: atom_file overrides"):
            cli.run_sweep(cfg, param, ["0.1", "0.2"])
        assert not (tmp_path / "out").exists()

    def test_rate_mode_grid(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg = parse_config(f"atom_file = {f}\nhorizon = 2\nout_dir = {tmp_path}/out")
        path = cli.run_sweep(cfg, "rate-mode", ["fixed", "sqrt_t"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "param_value,t,kStar,kHatStar,A_t,B_t"
        assert len(lines) == 1 + 2 * 2
        assert {ln.split(",")[0] for ln in lines[1:]} == {"fixed", "sqrt_t"}


class TestRunValue:
    def test_amounts(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg = parse_config(f"atom_file = {f}")
        assert cli.run_value(cfg, 0.0).value == 0.0
        v1 = cli.run_value(cfg, 1.0)
        v2 = cli.run_value(cfg, 2.0)
        assert v2.value / v1.value == pytest.approx(2.0**0.88, rel=1e-12)

    def test_fair_coin_report(self, tmp_path):
        f = tmp_path / "coin.csv"
        f.write_text("value,probability\n-1.0,0.5\n1.0,0.5\n")
        cfg = parse_config(f"atom_file = {f}")
        assert cli.run_value(cfg, 1.0).value == pytest.approx(-0.578, abs=1e-3)


class TestRunDemo:
    def test_writes_report(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "demo.cfg")
        target = cli.run_demo(cfg, 0.0, 0.5, 9, out_dir=str(tmp_path / "out"))
        text = target.read_text()
        assert "cross_rate_gap" in text
        assert "low.precommit_z1" in text

    def test_requires_discrete_return(self, tmp_path):
        cfg = parse_config(f"out_dir = {tmp_path}/out")
        with pytest.raises(ConfigError, match="atom_file"):
            cli.run_demo(cfg, 0.0, 0.5, 9)

    def test_rejects_tiny_grid(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "demo.cfg")
        with pytest.raises(ValueError, match="grid"):
            cli.run_demo(cfg, 0.0, 0.5, 2, out_dir=str(tmp_path / "out"))


class TestMainExitCodes:
    def test_solve_success(self, tmp_path, capsys):
        f = write_atoms(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"atom_file = {f.name}\nhorizon = 2\n")
        code = cli.main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "policy.csv").exists()

    def test_config_error_is_exit_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("alpha = 1.5\n")
        assert cli.main(["solve", "--config", str(cfg_file)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag_is_exit_1(self, capsys):
        assert cli.main(["solve", "--bogus"]) == 1

    def test_missing_config_file_is_exit_1(self, capsys):
        assert cli.main(["solve", "--config", "/nonexistent.cfg"]) == 1

    def test_numerical_failure_is_exit_2(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalError("forced")

        monkeypatch.setattr(cli, "backward_induction", boom)
        f = write_atoms(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"atom_file = {f.name}\nhorizon = 2\n")
        code = cli.main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_path_step_bound_binds_only_simulate(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "long.cfg"
        cfg_file.write_text("horizon = 300\n")  # 300 periods x the default 10000 paths
        for argv in (["solve"], ["value"], ["sweep", "--param", "alpha", "--grid", "0.5"]):
            assert cli.main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()

        def solve_called(*args, **kwargs):
            raise AssertionError("the bound must hold before anything is solved")

        monkeypatch.setattr(cli, "backward_induction", solve_called)
        out = tmp_path / "simulated"
        assert cli.main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: n_paths * horizon must be <= 2000000, got 3000000\n"
        assert not out.exists()

        cfg_file.write_text("horizon = 1001\nn_paths = 1\n")
        assert cli.main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: horizon must be in [1, 1000]\n"
        assert not out.exists()

    def test_demo_grid_too_small_is_exit_1(self, tmp_path, capsys):
        code = cli.main(
            ["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "2",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1

    def test_value_prints_report(self, tmp_path, capsys):
        f = write_atoms(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"atom_file = {f.name}\n")
        assert cli.main(["value", "--config", str(cfg_file), "--amount", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "value = " in out and "gain_part = " in out and "loss_part = " in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--param", "mu", "--grid=-0.1,0.2"],
            ["sweep", "--param", "mu", "--grid=-.1"],
            ["sweep", "--param", "lo_frac", "--gr=-0.5,-0.2"],
            ["value", "--amount=-1e-3"],
            ["value", "--amount=-.5"],
            ["value", "--am=-1e-3"],
            ["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "5",
             "--r-low=-0.1", "--r-high=-5e-2"],
            ["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "5",
             "--r-l=-0.1", "--r-h=-5e-2"],
            ["value", "--config=-1.cfg"],
        ],
        ids=["grid_first_negative", "grid_leading_dot", "grid_prefix", "amount_exponent",
             "amount_leading_dot", "amount_prefix", "demo_rates", "demo_rate_prefixes",
             "config_path"],
    )
    def test_negative_values_read_like_the_equals_form(self, tmp_path, monkeypatch, capsys, argv):
        # argparse alone takes the spaced values for options and exits with
        # "expected one argument"; --flag=value, or a prefix of the flag, always worked.
        monkeypatch.chdir(tmp_path)  # config_path names -1.cfg relative to it
        (tmp_path / "-1.cfg").write_text("horizon = 2\ngrid_points = 11\ny_nodes = 4\nr_nodes = 4\n")
        if not any(arg.startswith("--config") for arg in argv):
            argv = [*argv, "--config", str(tmp_path / "-1.cfg")]
        spaced = [part for arg in argv for part in arg.split("=")]
        out = tmp_path / "out"  # value writes no file
        runs = []
        for args in (spaced, argv):
            assert cli.main([*args, "--out", str(out)]) == 0
            files = sorted(out.iterdir()) if out.exists() else []
            runs.append((capsys.readouterr(), [(f.name, f.read_bytes()) for f in files]))
        assert runs[0] == runs[1]
        assert runs[0][0].err == ""

    def test_a_dash_before_a_letter_still_reads_as_an_option(self, capsys):
        assert cli.main(["value", "--amount", "-x"]) == 1
        assert capsys.readouterr().err == "config error: argument --amount: expected one argument\n"

    def test_a_prefix_of_two_signed_options_is_left_ambiguous(self, capsys):
        assert cli.main(["demo", "--r", "-0.1"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: ambiguous option: --r could match --r-low, --r-high\n"

    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, capsys):
        # The exit hook freezes the heap only when the interpreter exits.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"atom_file = {write_atoms(tmp_path).name}\n")
        state = gc.get_freeze_count(), gc.isenabled()
        assert cli.main(["value", "--config", str(cfg_file)]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == state

    def test_simulate_writes_ensemble(self, tmp_path):
        f = write_atoms(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"atom_file = {f.name}\nhorizon = 3\nn_paths = 8\ngrid_points = 101\n"
        )
        code = cli.main(
            ["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out"), "--seed", "5"]
        )
        assert code == 0
        for name in ("policy.csv", "paths.csv", "summary.csv"):
            assert (tmp_path / "out" / name).exists()
        paths_lines = (tmp_path / "out" / "paths.csv").read_text().strip().splitlines()
        assert len(paths_lines) == 1 + 8 * 4

    @staticmethod
    def count_atom_reads(monkeypatch):
        reads = []
        from_csv = DiscreteEmpirical.from_csv.__func__

        def counting(cls, path):
            reads.append(path)
            return from_csv(cls, path)

        monkeypatch.setattr(DiscreteEmpirical, "from_csv", classmethod(counting))
        return reads

    def test_simulate_reads_the_atom_file_once(self, tmp_path, monkeypatch):
        # The policy and the paths must come from one read of the law.
        f = write_atoms(tmp_path)
        reads = self.count_atom_reads(monkeypatch)
        cfg = parse_config(f"atom_file = {f}\nhorizon = 3\nn_paths = 8\ngrid_points = 101\n")
        cli.run_simulate(cfg, str(tmp_path / "out"))
        assert reads == [str(f)]

    def test_sweep_reads_the_atom_file_once(self, tmp_path, monkeypatch):
        # An atom_file rules out the mu and sigma sweeps, the only ones that
        # change the laws, so every grid value solves on one read of it.
        f = write_atoms(tmp_path)
        reads = self.count_atom_reads(monkeypatch)
        cfg = parse_config(f"atom_file = {f}\nhorizon = 3\ngrid_points = 101\n")
        cli.run_sweep(cfg, "alpha", ["0.5", "0.6", "0.7", "0.88"], str(tmp_path / "out"))
        assert reads == [str(f)]

    def test_simulate_artifacts_are_pinned(self, tmp_path):
        # The cold `simulate_atoms` case of PINNED_COMMANDS, run in-process.
        text, argv, artifacts = PINNED_COMMANDS["simulate_atoms"]
        (tmp_path / "atoms.csv").write_text(ACTIVE_ATOMS)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", str(cfg_file), "--out", str(out)]) == 0
        digests = {f"simulate_atoms/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in artifacts}
        assert digests == {key: PINNED_DIGESTS[key] for key in digests}


SRC_DIR = Path(cli.__file__).resolve().parent.parent


def main_one_blas_thread(tmp_path, text, *argv, threads=1, timeout=None):
    """Run main() on the config text in a fresh interpreter, which must exit 0
    and write nothing to stderr; return the out dir and the bytes written to
    stdout.

    The last digits of `value` on a large atom set depend on the summation
    order of a BLAS dot product, hence on its thread count: pin it to one,
    unless `threads` asks for more. A `timeout` turns a hang into a failure.
    """
    (tmp_path / "run.cfg").write_text(text)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(SRC_DIR)}
    res = subprocess.run(
        [sys.executable, "-m", "cptalloc", *argv, "--config", "run.cfg", "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, timeout=timeout,
    )
    assert (res.returncode, res.stderr.decode()) == (0, "")
    return tmp_path / "out", res.stdout


ACTIVE_NORMAL = "mu = 0.3\nsigma = 0.5\nhorizon = 5\n"
ACTIVE_ATOMS = "value,probability\n0.5,0.6\n-0.2,0.4\n"
GAMBLE = f"atom_file = {CONFIG_DIR / 'demo_gamble.csv'}\n"

# Each pinned command: its config text, its arguments and the artifacts it
# writes ("stdout" is what it prints). ACTIVE_ATOMS is written beside each config.
PINNED_COMMANDS = {
    # The active 0.5/-0.2 atom fixture (k_star = 5 each period) at 50 paths.
    "simulate_atoms": ("atom_file = atoms.csv\nhorizon = 5\nn_paths = 50\n",
                       ("simulate", "--seed", "42"), ("paths.csv", "summary.csv")),
    # sqrt_t rates: every draw of a path is a standard normal, rates first, then returns.
    "simulate_normal": (ACTIVE_NORMAL + "n_paths = 50\n", ("simulate", "--seed", "42"),
                        ("paths.csv", "summary.csv")),
    "solve_active": (ACTIVE_NORMAL, ("solve",), ("policy.csv",)),
    "solve_zero_policy": ("horizon = 5\n", ("solve",), ("policy.csv",)),
    # Bounds that are not symmetric give the long and short scans different grids.
    "solve_asymmetric": (ACTIVE_NORMAL + "lo_frac = -2\nhi_frac = 4\n", ("solve",), ("policy.csv",)),
    "demo_report": (GAMBLE, ("demo", "--demo-grid", "11"), ("demo_report.txt",)),
    "value_atoms": (GAMBLE, ("value",), ("stdout",)),
    "value_normal": ("", ("value",), ("stdout",)),
}

# Every artifact digest that tier-1 pins. Any change to the draws, the
# stepping, the solver or the formatting moves some of them; a rotation
# rewrites this one block.
PINNED_DIGESTS = {
    "simulate_atoms/paths.csv": "c5fcf07ce1c32ea2d45c5817f59e92829a2580cceeed2fe7eafe0ca0d4e8e568",
    "simulate_atoms/summary.csv": "5fca70bc98193063bf4f5a01a950134ff39d63acc09e604d4cd2fbaa21bc6a81",
    "simulate_normal/paths.csv": "2848e57a81a4be04af2080ab7f0a26c5db1299156d9ec41fe2921b761951cad5",
    "simulate_normal/summary.csv": "a52dd6d2f33a960bb7482b0a347b3d388608c7f2abbcc50f6097971020b05ab3",
    "solve_active/policy.csv": "8758608423e7ee28d61aca4aad5fa7b8e0504ce2353a9ea0bf20be66ccd5df7b",
    "solve_zero_policy/policy.csv": "beb9ce355cdf0d6e4b65996cbee6b086694911e8a4d85009aa886c00b0b8acf2",
    "solve_asymmetric/policy.csv": "7756c2146ba13e113603775425ac34e9c0a3c1cc6316ad7c283b5db8f6494dc7",
    "demo_report/demo_report.txt": "37838e049ee173424a0580bb877fba8fbc1c7b1d4131cde33d6e4a80b3af57d7",
    "value_atoms/stdout": "10df5e96abe6e1ee7b9216d3057c1bb2327dd445453cd1347df5584e28d9dcef",
    "value_normal/stdout": "8d54430f60e3ddcb2e5e70d3ad148f4eb0b7a6e916ef19d4c928c0968723cbb1",
}


@pytest.fixture(scope="module")
def case_digests(tmp_path_factory):
    """Return a function that runs a case of PINNED_COMMANDS as a cold process
    and gives its {case/artifact: digest}; each case runs once per module."""
    done = {}

    def run(case):
        if case not in done:
            text, argv, artifacts = PINNED_COMMANDS[case]
            case_dir = tmp_path_factory.mktemp(case)
            (case_dir / "atoms.csv").write_text(ACTIVE_ATOMS)
            out, stdout = main_one_blas_thread(case_dir, text, *argv)
            done[case] = {
                f"{case}/{artifact}": hashlib.sha256(
                    stdout if artifact == "stdout" else (out / artifact).read_bytes()).hexdigest()
                for artifact in artifacts
            }
        return done[case]

    return run


def test_artifacts_are_pinned(case_digests):
    # The whole dict at once, so a rotation sees every digest that moved.
    digests = {}
    for case in PINNED_COMMANDS:
        digests.update(case_digests(case))
    assert digests == PINNED_DIGESTS


def assert_case_pinned(case_digests, case):
    digests = case_digests(case)
    assert digests == {key: PINNED_DIGESTS[key] for key in digests}


@pytest.mark.parametrize(
    "case", ["solve_active", "solve_zero_policy", "solve_asymmetric"],
    ids=["active", "zero_policy", "active_asymmetric_bounds"],
)
def test_solve_artifacts_are_pinned(case_digests, case):
    assert_case_pinned(case_digests, case)


def test_simulate_normal_artifacts_are_pinned(case_digests):
    assert_case_pinned(case_digests, "simulate_normal")


@pytest.mark.parametrize("case", ["demo_report", "value_atoms", "value_normal"])
def test_demo_and_value_outputs_are_pinned(case_digests, case):
    assert_case_pinned(case_digests, case)


@pytest.mark.parametrize(
    "argv, artifact",
    [(("solve",), "policy.csv"),
     (("sweep", "--param", "rate-mode", "--grid", "fixed,sqrt_t"), "sweep_rate_mode.csv")],
    ids=["solve", "sweep_rate_mode"],
)
def test_solved_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, argv, artifact):
    # The default 1001-point grid on 64 x 16 nodes: one product over a whole
    # scan's matrix would be split between two threads, which regroups its sums.
    written = []
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        out, _ = main_one_blas_thread(tmp_path / str(threads), ACTIVE_NORMAL, *argv, threads=threads)
        written.append((out / artifact).read_bytes())
    assert written[0] == written[1]


@pytest.mark.xfail(raises=AssertionError, reason="config_sha256 hashes the atom_file path as "
                   "named from the working directory, not the file's content")
def test_policy_does_not_depend_on_the_directory_a_config_is_named_from(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    write_atoms(sub)
    (sub / "run.cfg").write_text("atom_file = atoms.csv\nhorizon = 2\ngrid_points = 101\n")
    written = []
    for cwd, config in [(sub, "run.cfg"), (tmp_path, "sub/run.cfg")]:
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out{len(written)}"
        assert cli.main(["solve", "--config", config, "--out", str(out)]) == 0
        written.append((out / "policy.csv").read_bytes())
    assert written[0] == written[1]


def test_simulate_seed_wider_than_64_bits_draws_the_spawned_streams(tmp_path):
    # 2**64 + 1 is three uint32 words of entropy; the pinned digests use 42.
    (tmp_path / "atoms.csv").write_text(ACTIVE_ATOMS)
    text = "atom_file = atoms.csv\nhorizon = 3\nn_paths = 5\ngrid_points = 101\n"
    seed = 2**64 + 1
    out, _ = main_one_blas_thread(tmp_path, text, "simulate", "--seed", str(seed))
    cfg = load_config(tmp_path / "run.cfg")
    schedule = cfg.y_schedule()
    want = reference_ensemble(cli._solve_table(cfg, schedule), cfg.rate_model_obj(), schedule,
                              cfg.w0, cfg.n_paths, seed)
    assert (out / "paths.csv").read_text() == paths_to_csv(PathEnsemble(*want))


def test_artifact_files_hold_their_writers_text(tmp_path):
    # 600 paths: the CLI streams paths.csv in blocks of 256 paths, 256 and 88.
    cfg = parse_config(f"atom_file = {write_atoms(tmp_path)}\nhorizon = 3\nn_paths = 600\n"
                       "grid_points = 101\n")
    schedule = cfg.y_schedule()
    table = cli._solve_table(cfg, schedule)
    paths, summary = simulate_paths(table, cfg.rate_model_obj(), schedule, cfg.w0, cfg.n_paths,
                                    cfg.seed)
    texts = {
        "policy.csv": f"# config_sha256 = {cli.config_hash(cfg)}\n" + table.to_csv(),
        "paths.csv": paths_to_csv(paths),
        "summary.csv": summary_to_csv(summary),
    }
    assert all(isinstance(text, str) for text in texts.values())
    solve_out, simulate_out = tmp_path / "solve", tmp_path / "simulate"
    assert cli.run_solve(cfg, str(solve_out)) == solve_out / "policy.csv"
    assert (solve_out / "policy.csv").read_text() == texts["policy.csv"]
    written = cli.run_simulate(cfg, str(simulate_out))
    assert written == [simulate_out / name for name in texts]
    for path in written:
        assert path.read_text() == texts[path.name]


def test_a_failing_chunk_leaves_neither_the_artifact_nor_its_temporary_file(tmp_path):
    # paths.csv is formatted while it is written, so an error can come from
    # the chunks themselves, after the temporary file has been opened.
    def chunks():
        yield "path,t,W,v,r,y\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._write_atomic(tmp_path / "paths.csv", chunks())
    assert list(tmp_path.iterdir()) == []


def test_demo_accepts_an_atom_whose_squared_probability_underflows(tmp_path):
    # 1e-170**2 underflows to 0: that two-period outcome has no representable
    # mass, and value already accepts the same file.
    (tmp_path / "rare.csv").write_text("value,probability\n-0.5,1e-170\n0.3,1.0\n")
    text = f"atom_file = {tmp_path / 'rare.csv'}\n"
    main_one_blas_thread(tmp_path, text, "value")
    out, _ = main_one_blas_thread(tmp_path, text, "demo")
    assert "low.value = " in (out / "demo_report.txt").read_text()


RARE_TOP_ATOM = "value,probability\n" + "".join(
    f"{v},0.16666666666666666\n" for v in (-1, -0.6, -0.2, 0.2, 0.6, 1)) + "2,1e-20\n"


@pytest.mark.parametrize("command", ["value", "demo"])
def test_rare_top_atom_scores_finite(tmp_path, command):
    # The cumulative sum passes 1 before the 1e-20 atom; unclamped, the gain
    # leg was NaN with a RuntimeWarning, and demo failed on its terminal stats.
    (tmp_path / "rare_top.csv").write_text(RARE_TOP_ATOM)
    out, stdout = main_one_blas_thread(tmp_path, "atom_file = rare_top.csv\n", command)
    if command == "value":
        assert stdout.decode().splitlines()[0] == "value = -0.40862129490807053"
    else:
        assert "nan" not in (out / "demo_report.txt").read_text()


@pytest.mark.parametrize(
    "settings",
    ["z_tol = 1e-16\n", "lo_frac = 0\nhi_frac = 1e11\n"],
    ids=["z_tol_below_spacing", "bounds_past_z_tol_spacing"],
)
def test_solve_ends_when_refinement_reaches_float_resolution(tmp_path, settings):
    # z_tol lies below the float spacing of the refined bracket. A fresh
    # interpreter with a timeout turns a loop that never ends into a failure.
    text = "mu = 0.3\nsigma = 0.5\nhorizon = 2\ngrid_points = 11\ny_nodes = 4\nr_nodes = 2\n"
    out, _ = main_one_blas_thread(tmp_path, text + settings, "solve", timeout=30)
    assert len(policy_rows(out)) == 2


def policy_rows(out):
    lines = (out / "policy.csv").read_text().splitlines()
    assert lines[1] == "t,A_t,B_t,kStar,kHatStar"
    return [line.split(",") for line in lines[2:]]


def test_zero_rows_trade_nothing_when_0_is_off_the_uniform_grid(tmp_path):
    # 401 uniform points on [-5, 1] miss 0; a zero row holds exactly +0, not
    # the grid point nearest 0.
    text = "lo_frac = -5\nhi_frac = 1\ngrid_points = 401\nhorizon = 3\nn_paths = 20\n"
    out, _ = main_one_blas_thread(tmp_path, text, "simulate", "--seed", "42")
    assert [row[1:] for row in policy_rows(out)] == [["0", "0", "0", "0"]] * 3
    trades = [line.split(",")[3] for line in (out / "paths.csv").read_text().splitlines()[1:]]
    assert len(trades) == 20 * 4
    assert set(trades) == {"0", ""}  # the terminal row of a path has no trade


def test_policy_has_no_negative_zero_when_lo_frac_is_0(tmp_path):
    out, _ = main_one_blas_thread(tmp_path, "lo_frac = 0.0\nhorizon = 2\ngrid_points = 11\n", "solve")
    assert policy_rows(out) == [["0", "0", "0", "0", "0"], ["1", "0", "0", "0", "0"]]


# One bad config per parameter rule. Each must end in exit 1 and a single
# stderr line that names the offending key as the user wrote it.
BAD_CONFIGS = [
    *((f"{key} = inf", key) for key in FLOAT_KEYS),
    ("horizon = 2\nmu = 0.1,nan", "mu"),
    ("mu = ,", "mu"),
    ("alpha = 0", "alpha"),
    ("alpha = 1.5", "alpha"),
    ("lambda = 0.5", "lambda"),
    ("gamma = 1.0", "gamma"),
    ("alpha = 0.5\ndelta = 0.28", "delta"),
    ("alpha = 0.9\ngamma = 0.43\ndelta = 0.95", "alpha"),
    ("lo_frac = 0.5", "lo_frac"),
    ("hi_frac = 0", "hi_frac"),
    ("horizon = 3\nmu = 0.1,0.2", "mu"),
    ("horizon = 3\nsigma = 0.5,0.6", "sigma"),
    ("sigma = 0", "sigma"),
    ("horizon = 2\nsigma = 0.5,-1", "sigma"),
    ("atom_file = atoms.csv\nsigma = -1", "sigma"),
    ("rate_model = vasicek", "rate_model"),
    ("rate_model = fixed", "rate"),
    ("rate_model = fixed\nrate = -2", "rate"),
    ("rate = -2", "rate"),
    ("rate_base = -2", "rate_base"),
    ("rate_vol = -1", "rate_vol"),
    ("rate_model = fixed\nrate = 0.03\nrate_base = -2", "rate_base"),
    ("rate_model = fixed\nrate = 0.03\nrate_vol = -1", "rate_vol"),
    ("horizon = 0", "horizon"),
    ("grid_points = 1", "grid_points"),
    ("z_tol = 0", "z_tol"),
    ("y_nodes = 0", "y_nodes"),
    ("r_nodes = 0", "r_nodes"),
    ("r_nodes = 257", "r_nodes"),
    ("cdf_tol = 0", "cdf_tol"),
    ("n_paths = 0", "n_paths"),
    ("seed = -1", "seed"),
    ("out_dir =", "out_dir"),
]


def assert_one_line(err: str, prefix: str) -> None:
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("text, key", BAD_CONFIGS)
def test_bad_config_is_one_line_exit_1(tmp_path, capsys, text, key):
    write_atoms(tmp_path)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text + "\n")
    assert cli.main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert_one_line(err, "config error: ")
    assert re.search(rf"\b{key}\b", err), err


@pytest.fixture
def probe_dir(tmp_path, monkeypatch):
    """A working directory holding the inputs of the error-contract probes."""
    monkeypatch.chdir(tmp_path)
    atoms = np.linspace(-1.0, 1.0, 21)
    rows = "".join(f"{float(v)!r},{1.0 / 21!r}\n" for v in atoms)
    (tmp_path / "atoms21.csv").write_text("value,probability\n" + rows)
    (tmp_path / "atoms21.cfg").write_text(
        "atom_file = atoms21.csv\nhorizon = 2\nrate_model = fixed\nrate = 0.0\n"
    )
    (tmp_path / "short.cfg").write_text("horizon = 1\n")
    (tmp_path / "overflow.cfg").write_text("mu = 1e300\nhorizon = 2\n")
    (tmp_path / "quantile_overflow.cfg").write_text("mu = 1e308\nsigma = 1e308\nhorizon = 2\n")
    (tmp_path / "rich.cfg").write_text(
        "mu = 0.3\nsigma = 0.5\nhorizon = 3\nn_paths = 5\nw0 = 1e308\ngrid_points = 101\n"
    )
    (tmp_path / "many_paths.cfg").write_text("n_paths = 100000000\nhorizon = 2\n")
    (tmp_path / "summary_overflow.cfg").write_text(
        "horizon = 2\nn_paths = 50\nw0 = 1e307\ngrid_points = 101\nrate_model = fixed\nrate = 0.5\n"
    )
    write_atoms(tmp_path)
    (tmp_path / "rate_nodes.cfg").write_text(
        "atom_file = atoms.csv\nrate_vol = 1e308\nhorizon = 3\nn_paths = 5\ngrid_points = 101\n"
    )
    # Baseline mu/sigma: a zero policy, whose solve never builds the period
    # nodes that overflow; its simulated rates still do.
    (tmp_path / "zero_row_overflow.cfg").write_text(
        "rate_vol = 1e308\nhorizon = 3\ngrid_points = 101\nn_paths = 50\n"
    )
    # An active policy whose solve needs no period-1 rate: only the simulation draws it.
    (tmp_path / "rate_overflow.cfg").write_text(
        "mu = 0.3\nsigma = 0.5\nrate_vol = 1e308\nhorizon = 2\nn_paths = 50\n"
    )
    (tmp_path / "normal_nodes.cfg").write_text(
        "mu = 0.3,0.3,0.3\nsigma = 1e308,0.5,0.5\nhorizon = 3\ngrid_points = 101\n"
    )
    (tmp_path / "y_nodes.cfg").write_text("y_nodes = 30000\n")
    # This tolerance ends in QAGS's roundoff report (ier 2).
    (tmp_path / "quad_message.cfg").write_text(
        "mu = 0.3\nsigma = 0.5\nhorizon = 2\ncdf_tol = 1e-300\n"
    )
    (tmp_path / "corner_overflow.cfg").write_text(
        "alpha = 0.99\nmu = 1e300\nlo_frac = -8e307\nhi_frac = 8e307\nhorizon = 1\n"
    )
    # hi_frac - lo_frac overflows float64, though each bound is finite.
    (tmp_path / "wide_bounds.cfg").write_text("lo_frac = -1e308\nhi_frac = 1e308\nhorizon = 2\n")
    (tmp_path / "wide_demo.cfg").write_text(
        (CONFIG_DIR / "demo.cfg").read_text().replace("demo_gamble.csv", str(CONFIG_DIR / "demo_gamble.csv"))
        + "lo_frac = -1e308\nhi_frac = 1e308\n"
    )
    # An active law: a zero policy would build no tensor for the bound to catch.
    (tmp_path / "grid.cfg").write_text("grid_points = 100000000\nmu = 1.0\n")
    # 2000 grid points x 16384 atoms x 1 rate node: the atom count binds.
    rows = "".join(f"{float(v)!r},{2.0**-14!r}\n" for v in np.linspace(-0.5, 1.0, 2**14))
    (tmp_path / "atoms16k.csv").write_text("value,probability\n" + rows)
    (tmp_path / "atom_tensor.cfg").write_text(
        "atom_file = atoms16k.csv\nrate_model = fixed\nrate = 0.03\nhorizon = 2\ngrid_points = 2000\n"
    )
    (tmp_path / "extra_field.csv").write_text("value,probability\n0.3,0.7,junk\n-0.25,0.3\n")
    (tmp_path / "extra_field.cfg").write_text("atom_file = extra_field.csv\n")
    (tmp_path / "not_utf8.cfg").write_bytes(b"mu = 0.3\n\xff\xfe\n")
    (tmp_path / "huge_atoms.csv").write_text("value,probability\n1e300,0.5\n-1e300,0.5\n")
    (tmp_path / "huge_atoms.cfg").write_text("atom_file = huge_atoms.csv\n")
    (tmp_path / "huge_mu.cfg").write_text("mu = 1e300\nsigma = 1e-300\n")
    # The loss leg lambda * 1e10**alpha overflows float64; the gain leg does not.
    (tmp_path / "huge_lambda.csv").write_text("value,probability\n10,0.5\n-1e10,0.5\n")
    (tmp_path / "huge_lambda.cfg").write_text("atom_file = huge_lambda.csv\nlambda = 1e300\nhorizon = 2\n")
    (tmp_path / "a_file").write_text("")
    (tmp_path / "blocked" / "policy.csv").mkdir(parents=True)
    return tmp_path


# Probes whose whole stderr line is pinned: a swept key's error names the key.
PINNED_ERRORS = {
    "sweep_lambda": "config error: lambda must be finite and satisfy lambda > 1, got 0.5\n",
    "sweep_rate_vol": "config error: rate_vol must be >= 0, got -1.0\n",
    "sweep_w0_nan": "config error: w0 must be finite\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["value", "--amount", "inf"], 1),
        (["value", "--amount", "nan"], 1),
        (["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--r-low", "-2"], 1),
        (["demo", "--config", "atoms21.cfg"], 1),
        (["solve", "--config", "short.cfg", "--out", "a_file/x"], 1),
        (["solve", "--config", "short.cfg", "--out", "blocked"], 1),
        (["solve", "--config", "overflow.cfg"], 2),
        (["solve", "--config", "quantile_overflow.cfg"], 2),
        (["simulate", "--config", "rich.cfg"], 2),
        (["simulate", "--config", "many_paths.cfg"], 1),
        (["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "2"], 1),
        (["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "100000000"], 1),
        (["simulate", "--config", "summary_overflow.cfg"], 2),
        (["simulate", "--config", "rate_nodes.cfg"], 2),
        (["solve", "--config", "normal_nodes.cfg"], 2),
        (["simulate", "--config", "zero_row_overflow.cfg"], 2),
        (["simulate", "--config", "rate_overflow.cfg"], 2),
        (["solve", "--config", "y_nodes.cfg"], 1),
        (["solve", "--config", "grid.cfg"], 1),
        (["solve", "--config", "atom_tensor.cfg"], 1),
        (["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--r-high", "1e308"], 2),
        (["sweep", "--config", str(CONFIG_DIR / "demo.cfg"), "--param", "mu", "--grid", "0.1,0.2"], 1),
        (["value", "--config", "extra_field.cfg"], 1),
        (["solve", "--config", "not_utf8.cfg"], 1),
        (["solve", "--config", "quad_message.cfg"], 2),
        (["value", "--config", "quad_message.cfg"], 2),
        (["solve", "--config", "corner_overflow.cfg"], 2),
        (["demo", "--config", "wide_demo.cfg"], 1),
        (["solve", "--config", "wide_bounds.cfg"], 1),
        (["sweep", "--config", "short.cfg", "--param", "mu", "--grid", ","], 1),
        (["sweep", "--config", "short.cfg", "--param", "rate-mode", "--grid", "fixed,vasicek"], 1),
        (["value", "--config", "huge_atoms.cfg", "--amount", "1e300"], 2),
        (["value", "--config", "huge_mu.cfg", "--amount", "1e300"], 2),
        (["solve", "--config", "huge_lambda.cfg"], 2),
        (["value", "--config", "huge_lambda.cfg"], 2),
        (["demo", "--config", "huge_lambda.cfg"], 2),
        (["sweep", "--param", "lambda", "--grid", "0.5"], 1),
        (["sweep", "--param", "rate_vol", "--grid", "-1"], 1),
        (["sweep", "--param", "w0", "--grid", "nan"], 1),
    ],
    ids=["value_inf", "value_nan", "demo_low_rate", "demo_21_atoms", "out_not_dir",
         "write_fails", "overflow", "quantile_overflow", "wealth_overflow", "path_steps",
         "demo_grid_small", "demo_grid_large", "summary_overflow", "rate_node_overflow",
         "normal_node_overflow", "zero_row_overflow", "simulated_rate_overflow",
         "y_nodes_bound", "tensor_bound",
         "atom_tensor_bound", "demo_outcome_overflow", "sweep_overridden_param",
         "atom_row_extra_field", "config_not_utf8", "quad_message_solve", "quad_message_value",
         "terminal_corner_overflow", "demo_bounds_width_overflow", "bounds_width_overflow",
         "sweep_empty_grid", "sweep_unknown_rate_mode", "value_overflow_atoms",
         "value_overflow_normal", "loss_leg_overflow_solve", "loss_leg_overflow_value",
         "loss_leg_overflow_demo", "sweep_lambda", "sweep_rate_vol", "sweep_w0_nan"],
)
def test_bad_input_is_one_line(probe_dir, capsys, request, argv, code):
    assert cli.main(argv) == code
    prefix = "config error: " if code == 1 else "numerical failure: "
    err = capsys.readouterr().err
    assert_one_line(err, prefix)
    assert PINNED_ERRORS.get(request.node.callspec.id, err) == err
    assert not list(probe_dir.rglob("*.tmp"))
    if "--demo-grid" in argv:
        assert "demo grid" in err and "grid_points" not in err, err


def test_a_zero_policy_solves_without_the_overflowing_nodes(probe_dir, capsys):
    assert cli.main(["solve", "--config", "zero_row_overflow.cfg", "--out", "out"]) == 0
    assert capsys.readouterr().err == ""
    assert policy_rows(probe_dir / "out") == [[str(t), "0", "0", "0", "0"] for t in range(3)]


def test_replace_revalidates():
    with pytest.raises(ConfigError, match="alpha"):
        dataclasses.replace(RunConfig(), alpha=2.0)


# Zero policy (baseline), active, finite-atom, overflowing and invalid inputs.
FUZZ_CALIBRATIONS = (
    "",
    "mu = 0.3\nsigma = 0.5\n",
    "atom_file = atoms.csv\n",
    "mu = 1e300\n",
    "rate_vol = 1e308\n",
    "sigma = -1\n",
    "lambda = 0.5\n",
)


@st.composite
def fuzz_case(draw):
    """A tiny config and the argv of one command, minus --config and --out."""
    text = draw(st.sampled_from(FUZZ_CALIBRATIONS))
    text += draw(st.sampled_from(("", "rate_model = fixed\nrate = 0.03\n")))
    for key, hi in (("grid_points", 41), ("y_nodes", 8), ("r_nodes", 4), ("horizon", 3),
                    ("n_paths", 50)):
        text += f"{key} = {draw(st.integers(1, hi))}\n"
    command = draw(st.sampled_from(("solve", "simulate", "sweep", "value", "demo")))
    argv = [command]
    if command == "simulate":
        argv += ["--seed", str(draw(st.integers(-1, 5)))]
    elif command == "sweep":
        values = st.sampled_from(("0.3", "0.88", "1.5", "-1", "nan", "fixed", "sqrt_t"))
        argv += ["--param", draw(st.sampled_from((*cli.SWEEP_PARAMS, "beta"))),
                 "--grid", ",".join(draw(st.lists(values, min_size=1, max_size=2)))]
    elif command == "value":
        argv += ["--amount", repr(draw(st.floats()))]
    elif command == "demo":
        argv += ["--demo-grid", str(draw(st.integers(2, 7))),
                 "--r-low", draw(st.sampled_from(("0", "0.5", "-2", "inf")))]
    return text, argv


TINY = "grid_points = 11\ny_nodes = 4\nr_nodes = 4\nhorizon = 3\nn_paths = 5\n"


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(fuzz_case())
@example(("mu = 1e300\n" + TINY, ["simulate"]))
@example(("rate_vol = 1e308\n" + TINY, ["sweep", "--param", "mu", "--grid", "0.045"]))
@example((TINY, ["sweep", "--param", "hi_frac", "--grid", "0.3,1.5"]))
def test_main_fuzz_exits_cleanly(case):
    text, argv = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        write_atoms(Path(tmp))
        (Path(tmp) / "run.cfg").write_text(text)
        argv = [*argv, "--config", str(Path(tmp) / "run.cfg"), "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert_one_line(err.getvalue(), "config error: " if code == 1 else "numerical failure: ")
