"""Output checks. Each returns a list of failure reasons; empty means pass.

Checks that hold at any seed: exit status and stderr, the expected
zero/active policy of every fixture, the self-financing identity on every
paths.csv row, summary.csv against paths.csv, each demo report's value
against `cpt_discrete` recomputed for the reported pair, and a value
command's parts against `cpt_discrete` on a finite distribution. At the
recorded seed and size, every artifact must also match its reference sha256.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ops import ACTIVE, ZERO, Op

DIGESTS = Path(__file__).resolve().parent / "fixtures" / "digests.json"

_QUANTS = (0.05, 0.25, 0.50, 0.75, 0.95)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def _policy_state(rows) -> str:
    """ACTIVE if kStar is nonzero in every period, ZERO if every fraction is
    zero, otherwise 'mixed'."""
    if all(k != 0.0 for k, _ in rows):
        return ACTIVE
    if all(k == 0.0 and kh == 0.0 for k, kh in rows):
        return ZERO
    return "mixed"


def check_policy(path: Path, expected) -> list[str]:
    """policy.csv (t,A_t,B_t,kStar,kHatStar) or sweep_*.csv
    (param_value,t,kStar,kHatStar,A_t,B_t) against the expected policies."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
    if isinstance(expected, str):
        rows = [tuple(float(x) for x in ln.split(",")[3:5]) for ln in lines]
        state = _policy_state(rows)
        return [] if state == expected else [f"{path.name}: policy is {state}, expected {expected}"]
    groups: dict[str, list] = {}
    for ln in lines:
        f = ln.split(",")
        groups.setdefault(f[0], []).append((float(f[2]), float(f[3])))
    failures = []
    for value, want in expected.items():
        match = [rows for label, rows in groups.items() if _same_label(label, value)]
        state = _policy_state(match[0]) if len(match) == 1 else "missing"
        if state != want:
            failures.append(f"{path.name}: policy at {value} is {state}, expected {want}")
    if len(groups) != len(expected):
        failures.append(f"{path.name}: {len(groups)} grid values, expected {len(expected)}")
    return failures


def _same_label(label: str, value: str) -> bool:
    try:
        return float(label) == float(value)
    except ValueError:
        return label == value


def check_paths(paths_csv: Path, summary_csv: Path) -> list[str]:
    """Every row obeys W[t+1] == (1+r)*W[t] + v*y exactly, and summary.csv
    equals the statistics recomputed from paths.csv."""
    failures = []
    wealth, trades = [], []
    lines = paths_csv.read_text().splitlines()
    if lines[0] != "path,t,W,v,r,y":
        return [f"paths.csv: bad header {lines[0]!r}"]
    w_row, v_row = [], []
    for ln in lines[1:]:
        f = ln.split(",")
        w = float(f[2])
        if w_row and w != (1.0 + r) * w_row[-1] + v * y:
            failures.append(f"paths.csv: self-financing violated at path {f[0]}, t {f[1]}")
            if len(failures) > 5:
                break
        w_row.append(w)
        if f[3]:
            v, r, y = float(f[3]), float(f[4]), float(f[5])
            v_row.append(v)
        else:  # terminal row closes the path
            wealth.append(w_row)
            trades.append(v_row)
            w_row, v_row = [], []
    if failures:
        return failures
    if w_row or len({len(w) for w in wealth}) != 1:
        return ["paths.csv: ragged or unterminated paths"]

    wealth_mat, trades_mat = np.array(wealth), np.array(trades)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(wealth_mat[:, :-1] != 0.0, trades_mat / wealth_mat[:, :-1], 0.0)
    expected = np.column_stack(
        [wealth_mat.mean(axis=0)]
        + [np.quantile(wealth_mat, q, axis=0) for q in _QUANTS]
        + [np.append(frac.mean(axis=0), np.nan)]
    )
    rows = summary_csv.read_text().splitlines()[1:]
    got = np.array([[float(x) if x else np.nan for x in ln.split(",")[1:]] for ln in rows])
    if got.shape != expected.shape or not np.array_equal(got, expected, equal_nan=True):
        failures.append("summary.csv: does not match the statistics of paths.csv")
    return failures


def _read_report(path: Path) -> dict[str, float]:
    out = {}
    for ln in path.read_text().splitlines():
        key, _, val = ln.partition(" = ")
        out[key] = float(val)
    return out


def check_demo(report: Path, cfg, cpt_discrete, DiscreteEmpirical, grid: int) -> list[str]:
    """Each case's reported value equals cpt_discrete of the outcome
    distribution of its reported pair, recomputed here."""
    rep = _read_report(report)
    failures = []
    if rep.get("grid_points") != grid:
        failures.append(f"demo_report.txt: grid_points {rep.get('grid_points')}, expected {grid}")
    y = cfg.y_distribution()
    yv, prob = y.values, np.outer(y.probs, y.probs).ravel()
    prefs = cfg.preferences()
    for case in ("low", "high"):
        growth = 1.0 + rep[f"{case}.rate"]
        z0, z1 = rep[f"{case}.precommit_z0"], rep[f"{case}.precommit_z1"]
        mid = growth + z0 * yv
        outcome = growth * z0 * yv[:, None] + z1 * mid[:, None] * yv[None, :]
        value = cpt_discrete(prefs, DiscreteEmpirical(outcome.ravel(), prob)).value
        if value != rep[f"{case}.value"]:
            failures.append(f"demo_report.txt: {case}.value {rep[f'{case}.value']!r} != recomputed {value!r}")
    return failures


def check_outputs(op: Op, out: Path, cfg, lib) -> list[str]:
    """Content checks of one operation's artifacts in `out`.

    `cfg` is the operation's loaded RunConfig; `lib` is the cptalloc package.
    """
    missing = [a for a in op.artifacts if not (out / a).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    failures = []
    for artifact, expected in op.policy.items():
        failures += check_policy(out / artifact, expected)
    if op.command == "simulate":
        failures += check_paths(out / "paths.csv", out / "summary.csv")
    if op.command == "demo":
        failures += check_demo(out / "demo_report.txt", cfg, lib.cpt_discrete,
                               lib.DiscreteEmpirical, int(op.option("--demo-grid")))
    if op.command == "value":
        failures += check_value(out / "stdout.txt", cfg, float(op.option("--amount")), lib)
    return failures


def check_value(stdout: Path, cfg, amount: float, lib) -> list[str]:
    """`value` prints value = gain_part - loss_part; on a finite distribution
    the parts equal cpt_discrete of the position, recomputed here."""
    try:
        rep = _read_report(stdout)
        value, gain, loss = rep["value"], rep["gain_part"], rep["loss_part"]
    except (KeyError, ValueError):
        return [f"value: unexpected output {stdout.read_text()[:80]!r}"]
    failures = [] if value == gain - loss else [f"value: {value!r} != gain_part - loss_part"]
    y = cfg.y_distribution()
    if isinstance(y, lib.DiscreteEmpirical):
        unit = lib.cpt_discrete(cfg.preferences(), y if amount > 0 else y.negate())
        scale = abs(amount) ** cfg.alpha
        if (gain, loss) != (scale * unit.gain_part, scale * unit.loss_part):
            failures.append("value: parts differ from cpt_discrete recomputed on the atoms")
    return failures


def check_cold_status(op: Op, out: Path, returncode: int, stderr: str) -> list[str]:
    """A cold command exits 0, writes nothing to stderr, and prints the
    paths of its artifacts (value prints its result instead)."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if stderr:
        failures.append(f"stderr: {stderr.strip().splitlines()[-1][:200]!r}")
    if op.command != "value":
        printed = (out / "stdout.txt").read_text().splitlines()
        if printed != [str(out / a) for a in op.artifacts]:
            failures.append(f"stdout lists {printed}, expected the artifact paths")
    return failures


def check_digests(workload: str, op: Op, out: Path, digests: dict | None) -> list[str]:
    """Artifacts against the recorded sha256; `digests` is None when the run's
    seed or size differs from the recorded one and the op depends on them."""
    if digests is None:
        return []
    failures = []
    for a in op.artifacts:
        key = f"{workload}/{op.name}/{a}"
        want = digests.get(key)
        if want is None:
            failures.append(f"{key}: no reference digest")
        elif not (out / a).is_file() or sha256(out / a) != want:
            failures.append(f"{key}: sha256 differs from the reference")
    return failures


def check_same(op: Op, out: Path, ref: Path) -> list[str]:
    """Artifacts byte-identical to those of the reference run of the op."""
    return [f"{a}: differs from the reference run" for a in op.artifacts
            if not (out / a).is_file() or not (ref / a).is_file()
            or sha256(out / a) != sha256(ref / a)]
