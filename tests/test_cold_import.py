"""No command loads scipy, concurrent.futures or numpy.ma.

Each case runs in a fresh interpreter and reports whether scipy,
concurrent.futures, the Cephes port `cptalloc._ndtr` and numpy.ma are in
sys.modules when the command has finished. `Normal.cdf` and
`Normal.quantile` run the port, and `choquet.quad` is QUADPACK's QAGS in
Python, so no command needs scipy. A sweep solves its variants on the
calling thread, so none needs concurrent.futures. numpy's np.unique and
np.quantile import numpy.ma, so no command calls either. As a positive
control the port is imported lazily, by Normal-law commands only, so the
probe is known to see an import when one happens. One Normal-law solve also
runs with scipy made unimportable.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cptalloc.cli as cli

SRC_DIR = Path(cli.__file__).resolve().parent.parent
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PROBE = """
import sys
from cptalloc.cli import main
if sys.argv[1:] and main(sys.argv[1:]) != 0:
    sys.exit("command failed")
print(*(name in sys.modules for name in ("scipy", "concurrent.futures", "cptalloc._ndtr", "numpy.ma")))
"""

TINY = "horizon = 2\nn_paths = 5\ngrid_points = 11\ny_nodes = 4\nr_nodes = 4\n"
ATOMS = f"atom_file = {CONFIG_DIR / 'demo_gamble.csv'}\n" + TINY
CONFIGS = {
    "normal.cfg": TINY,
    "atoms.cfg": ATOMS,
    "atoms_fixed.cfg": ATOMS + "rate_model = fixed\nrate = 0.03\n",
    "atoms_sqrt_t.cfg": ATOMS + "rate_model = sqrt_t\n",
}


def loaded_modules(tmp_path, argv, prelude=""):
    """Whether the command left (scipy, concurrent.futures, cptalloc._ndtr, numpy.ma) in sys.modules."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    if argv:
        argv = [*argv, "--out", "out"]
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    res = subprocess.run([sys.executable, "-c", prelude + PROBE, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return tuple({"True": True, "False": False}[v] for v in res.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "5"],
        ["value", "--config", "atoms.cfg"],
        ["solve", "--config", "atoms.cfg"],
        ["simulate", "--config", "atoms_fixed.cfg"],
        ["simulate", "--config", "atoms_sqrt_t.cfg"],
        ["sweep", "--config", "atoms.cfg", "--param", "alpha", "--grid", "0.5,0.88"],
    ],
    ids=["import_cli", "demo", "value_atoms", "solve_atoms", "simulate_atoms_fixed",
         "simulate_atoms_sqrt_t", "sweep_atoms"],
)
def test_atom_only_commands_do_not_load_scipy(tmp_path, argv):
    assert loaded_modules(tmp_path, argv) == (False, False, False, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--config", "normal.cfg"],
        ["solve", "--config", "normal.cfg"],
        ["simulate", "--config", "normal.cfg"],
        ["sweep", "--config", "normal.cfg", "--param", "alpha", "--grid", "0.5,0.88"],
    ],
    ids=["value", "solve", "simulate", "sweep"],
)
def test_normal_law_commands_do_not_load_scipy(tmp_path, argv):
    assert loaded_modules(tmp_path, argv) == (False, False, True, False)


def test_normal_law_solve_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes `import scipy` raise ImportError.
    prelude = "import sys\nsys.modules['scipy'] = None\n"
    assert loaded_modules(tmp_path, ["solve", "--config", "normal.cfg"], prelude)[2]
