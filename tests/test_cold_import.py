"""Each command loads only the modules it runs, and none loads scipy.

Each case runs in a fresh interpreter and reports which cptalloc modules, and
which of scipy, concurrent.futures, numpy.ma and hashlib, are in sys.modules
when the command has finished. `import cptalloc` loads no submodule: its
names resolve on first access. The CLI loads errors, prefs, dist, choquet
and solver; only simulate and demo load simulate, and only the commands that
write policy.csv (solve, simulate) load hashlib for its config hash. A
Normal law loads the Cephes port `_ndtr` and the QAGS port `_quadpack`;
atoms load neither. No command needs scipy: `Normal.cdf` and
`Normal.quantile` run the Cephes port, and `choquet.quad` runs the QAGS
port. A sweep solves its variants on the calling thread, and the solver's
kernel splits a scan at the default grid with a plain threading.Thread, so
none needs concurrent.futures. numpy's np.unique and np.quantile import
numpy.ma, so no command calls either. Each lazily imported module is also
expected by some case, so the probe is known to see an import when one
happens. The package surface is checked here too: every public name
resolves, lazily, to the object its home module defines. Last, a command
registers `gc.freeze` to run at exit, once per process, so the interpreter's
shutdown collections skip every object still alive: a cycle made after
`main` returns is never finalized.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cptalloc
import cptalloc.cli as cli

SRC_DIR = Path(cli.__file__).resolve().parent.parent
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

WATCHED = ("scipy", "concurrent.futures", "numpy.ma", "hashlib")
PROBE = f"""
import sys
if sys.argv[1:] == ["--import-only"]:
    import cptalloc
else:
    from cptalloc.cli import main
    if sys.argv[1:] and main(sys.argv[1:]) != 0:
        sys.exit("command failed")
print(*sorted(m for m in sys.modules if m.split(".")[0] == "cptalloc" or m in {WATCHED!r}))
"""

TINY = "horizon = 2\nn_paths = 5\ngrid_points = 11\ny_nodes = 4\nr_nodes = 4\n"
ATOMS = f"atom_file = {CONFIG_DIR / 'demo_gamble.csv'}\n" + TINY
CONFIGS = {
    "normal.cfg": TINY,
    "normal_default_grid.cfg": "mu = 0.3\nsigma = 0.5\nhorizon = 2\n",
    "atoms.cfg": ATOMS,
    "atoms_fixed.cfg": ATOMS + "rate_model = fixed\nrate = 0.03\n",
    "atoms_sqrt_t.cfg": ATOMS + "rate_model = sqrt_t\n",
}

CLI = {f"cptalloc{m}" for m in ("", ".cli", ".errors", ".prefs", ".dist", ".choquet", ".solver")}
NORMAL = {"cptalloc._ndtr", "cptalloc._quadpack"}
SIMULATE = {"cptalloc.simulate"}
HASHLIB = {"hashlib"}


def fresh_interpreter(tmp_path, code, *argv):
    """Run code in a new interpreter in tmp_path, beside CONFIGS; return its stdout."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    res = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def loaded_modules(tmp_path, argv, prelude=""):
    """The cptalloc and WATCHED modules in sys.modules once the command has run."""
    if argv and argv != ["--import-only"]:
        argv = [*argv, "--out", "out"]
    return set(fresh_interpreter(tmp_path, prelude + PROBE, *argv).splitlines()[-1].split())


SWEEP = ["sweep", "--param", "alpha", "--grid", "0.5,0.88"]


# Each case asserts the exact set, which leaves out scipy and the other WATCHED
# modules unless named.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--import-only"], {"cptalloc"}),
        ([], CLI),
        (["demo", "--config", str(CONFIG_DIR / "demo.cfg"), "--demo-grid", "5"], CLI | SIMULATE),
        (["value", "--config", "atoms.cfg"], CLI),
        (["solve", "--config", "atoms.cfg"], CLI | HASHLIB),
        (["simulate", "--config", "atoms_fixed.cfg"], CLI | SIMULATE | HASHLIB),
        (["simulate", "--config", "atoms_sqrt_t.cfg"], CLI | SIMULATE | HASHLIB),
        ([*SWEEP, "--config", "atoms.cfg"], CLI),
    ],
    ids=["import_cptalloc", "import_cli", "demo", "value_atoms", "solve_atoms",
         "simulate_atoms_fixed", "simulate_atoms_sqrt_t", "sweep_atoms"],
)
def test_atom_only_commands_do_not_load_scipy(tmp_path, argv, expected):
    assert loaded_modules(tmp_path, argv) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["value", "--config", "normal.cfg"], CLI | NORMAL),
        (["solve", "--config", "normal.cfg"], CLI | NORMAL | HASHLIB),
        (["solve", "--config", "normal_default_grid.cfg"], CLI | NORMAL | HASHLIB),
        (["simulate", "--config", "normal.cfg"], CLI | NORMAL | SIMULATE | HASHLIB),
        ([*SWEEP, "--config", "normal.cfg"], CLI | NORMAL),
    ],
    ids=["value", "solve", "solve_default_grid", "simulate", "sweep"],
)
def test_normal_law_commands_do_not_load_scipy(tmp_path, argv, expected):
    assert loaded_modules(tmp_path, argv) == expected


def test_normal_law_solve_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes `import scipy` raise ImportError.
    prelude = "import sys\nsys.modules['scipy'] = None\n"
    assert NORMAL <= loaded_modules(tmp_path, ["solve", "--config", "normal.cfg"], prelude)


def test_public_names_are_their_home_modules_objects():
    assert cptalloc.__all__ == sorted(set(cptalloc.__all__))
    for name in cptalloc.__all__:
        obj = getattr(cptalloc, name)
        home = importlib.import_module(f"cptalloc.{cptalloc._HOME[name]}")
        assert getattr(home, name) is obj, name
        # Exported from the module that defines it, not from one that imports it.
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name


def test_dir_lists_every_public_name():
    assert set(cptalloc.__all__) <= set(dir(cptalloc))
    assert "__version__" in dir(cptalloc)


def test_star_import_binds_every_public_name(tmp_path):
    code = ("from cptalloc import *\nimport cptalloc\n"
            "print(*(n for n in cptalloc.__all__ if globals().get(n) is not getattr(cptalloc, n)))")
    assert fresh_interpreter(tmp_path, code).strip() == ""


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cptalloc.no_such_name  # noqa: B018
    assert not hasattr(cptalloc, "simulate_path")


# The cycle is made after main returns, with automatic collection off, so only
# the collections at interpreter shutdown, which run even so, can find it. Its
# finalizer writes through an fd opened beforehand.
EXIT_PROBE = """
import gc, os, sys
from cptalloc.cli import main
fd = os.open("marker", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
if sys.argv[1:] and main(sys.argv[1:]) != 0:
    sys.exit("command failed")
gc.disable()

class Cycle:
    def __del__(self, write=os.write, fd=fd):
        write(fd, b"finalized")

cycle = Cycle()
cycle.self = cycle
del cycle
"""


@pytest.mark.parametrize("argv, marker", [([], "finalized"), (["value", "--config", "atoms.cfg"], "")],
                         ids=["import_only", "value_atoms"])
def test_a_command_skips_the_collections_at_exit(tmp_path, argv, marker):
    # With cptalloc.cli imported but no command run, the shutdown collections
    # finalize the cycle, which shows that the probe sees them run; after a
    # command the heap is frozen first.
    fresh_interpreter(tmp_path, EXIT_PROBE, *argv)
    assert (tmp_path / "marker").read_text() == marker


def test_main_registers_the_exit_hook_once(tmp_path):
    code = """
import atexit, gc, sys
from cptalloc.cli import main
hooks = []
register = atexit.register
atexit.register = lambda func, *args, **kwargs: hooks.append(func) or register(func, *args, **kwargs)
for _ in range(2):
    if main(sys.argv[1:]) != 0:
        sys.exit("command failed")
print(sum(func is gc.freeze for func in hooks))
"""
    out = fresh_interpreter(tmp_path, code, "value", "--config", "atoms.cfg")
    assert out.splitlines()[-1] == "1"
