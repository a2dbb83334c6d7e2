"""scipy is loaded only by commands that integrate a Normal law, and then
only scipy.special.

Each case runs in a fresh interpreter and reports whether scipy,
scipy.integrate and concurrent.futures are in sys.modules when the command
has finished. Atom-only commands never reach `Normal.cdf` or
`Normal.quantile`, so they must not pay for importing scipy; Normal-law
commands must load scipy.special, so that the probe is known to see an import
when one happens. `choquet.quad` is QUADPACK's QAGS in Python, so no command
loads scipy.integrate. cptalloc itself never imports concurrent.futures,
because a sweep solves its variants on the calling thread, so atom-only
commands must not load it either (scipy does, so Normal-law commands do).
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
print(*(name in sys.modules for name in ("scipy", "scipy.integrate", "concurrent.futures")))
"""

TINY = "horizon = 2\nn_paths = 5\ngrid_points = 11\ny_nodes = 4\nr_nodes = 4\n"
ATOMS = f"atom_file = {CONFIG_DIR / 'demo_gamble.csv'}\n" + TINY
CONFIGS = {
    "normal.cfg": TINY,
    "atoms.cfg": ATOMS,
    "atoms_fixed.cfg": ATOMS + "rate_model = fixed\nrate = 0.03\n",
    "atoms_sqrt_t.cfg": ATOMS + "rate_model = sqrt_t\n",
}


def loaded_modules(tmp_path, argv):
    """Whether the command left (scipy, scipy.integrate, concurrent.futures) in sys.modules."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    if argv:
        argv = [*argv, "--out", "out"]
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return tuple({"True": True, "False": False}[v] for v in res.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "5"],
        ["value", "--config", "atoms.cfg"],
        ["simulate", "--config", "atoms_fixed.cfg"],
        ["simulate", "--config", "atoms_sqrt_t.cfg"],
        ["sweep", "--config", "atoms.cfg", "--param", "alpha", "--grid", "0.5,0.88"],
    ],
    ids=["import_cli", "demo", "value_atoms", "simulate_atoms_fixed", "simulate_atoms_sqrt_t",
         "sweep_atoms"],
)
def test_atom_only_commands_do_not_load_scipy(tmp_path, argv):
    assert loaded_modules(tmp_path, argv) == (False, False, False)


@pytest.mark.parametrize("command", ["value", "solve"])
def test_normal_law_commands_load_scipy(tmp_path, command):
    scipy, scipy_integrate, _ = loaded_modules(tmp_path, [command, "--config", "normal.cfg"])
    assert scipy and not scipy_integrate
