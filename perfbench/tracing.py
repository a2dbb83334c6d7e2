"""Spans around the public functions of each cptalloc layer, from outside.

The wrappers are installed on the loaded modules for the length of one
traced round and removed afterwards; `src/` is not touched. Self time is
attributed online: at every span boundary, the time since the previous
boundary is split evenly between the open spans that have no open child.
With the sweep pool this splits a period in which two workers compute
between them, and charges none of it to the waiting `run_sweep` span, so
the self times of all spans add up to the wall time the spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

# layer -> public functions wrapped as spans named "<layer>.<function>".
FUNCTIONS = {
    "cli": ("load_config", "run_solve", "run_simulate", "run_sweep", "run_value", "run_demo"),
    "solver": ("backward_induction", "recursion_step", "terminal_stats"),
    "simulate": ("simulate_paths", "paths_to_csv", "summary_to_csv", "inconsistency_demo"),
    "choquet": ("cpt_discrete", "cpt_cdf"),
}
LAYERS = ("cli", "solver", "simulate", "choquet", "dist")
MODULES = ("cli", "choquet", "dist", "prefs", "simulate", "solver")


class _Span:
    __slots__ = ("name", "parent", "start", "open_children")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start, self.open_children = name, parent, start, 0


class Tracer:
    """Per-name call counts, inclusive time and self time, plus counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[_Span]] = {}
        self._leaves: dict[_Span, None] = {}  # open spans without open children
        self._last = 0.0
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    def _advance(self, now: float) -> None:
        if self._leaves:
            share = (now - self._last) / len(self._leaves)
            for span in self._leaves:
                self.self_s[span.name] += share
        self._last = now

    def enter(self, name: str) -> _Span:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            stack = self._stacks.setdefault(tid, [])
            parent = stack[-1] if stack else None
            if parent is None and tid != self._main and self._stacks.get(self._main):
                parent = self._stacks[self._main][-1]  # a pool worker's caller
            span = _Span(name, parent, now)
            if parent is not None:
                parent.open_children += 1
                self._leaves.pop(parent, None)
            self._leaves[span] = None
            stack.append(span)
        return span

    def exit(self, span: _Span) -> float:
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            self._stacks[threading.get_ident()].pop()
            del self._leaves[span]
            elapsed = now - span.start
            self.calls[span.name] += 1
            self.total_s[span.name] += elapsed
            parent = span.parent
            if parent is not None:
                parent.open_children -= 1
                if parent.open_children == 0:
                    self._leaves[parent] = None
        return elapsed

    def add(self, counter: str, n: float) -> None:
        with self._lock:
            self.counters[counter] += n

    @staticmethod
    def inside(span: _Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = tracer.exit(span)
            if after is not None:
                after(span, elapsed)

    return wrapper


def _hooks(tracer: Tracer, name: str, fn):
    """Counters read from a wrapped function's arguments or span."""
    if name == "solver.recursion_step":
        sig = inspect.signature(fn)

        def before(args, kwargs):
            nxt = sig.bind(*args, **kwargs).arguments["nxt"]
            if nxt.a_coef == 0.0 and nxt.b_coef == 0.0:
                tracer.add("solver.zero_rows", 1)

        return before, None
    if name == "simulate.simulate_paths":
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            tracer.add("simulate.path_steps", bound["policy"].horizon * bound["n_paths"])

        return before, None
    if name == "solver.backward_induction":

        def after(span, elapsed):
            if tracer.inside(span, "cli.run_sweep"):
                tracer.add("cli.sweep_solve_s", elapsed)

        return None, after
    return None, None


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers on the loaded cptalloc modules; undo on exit."""
    import importlib

    mods = [importlib.import_module(f"cptalloc.{m}") for m in MODULES]
    mods.append(importlib.import_module("cptalloc"))
    dist, choquet = mods[MODULES.index("dist")], mods[MODULES.index("choquet")]
    undo = []

    def patch(obj, attr, new):
        undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    try:
        for layer, names in FUNCTIONS.items():
            home = mods[MODULES.index(layer)]
            for fname in names:
                orig = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = _wrap(tracer, name, orig, *_hooks(tracer, name, orig))
                # Patch every module that bound the function by name.
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patch(mod, attr, wrapper)
        for cls in (dist.Normal, dist.DiscreteEmpirical, dist.DeterministicRate, dist.GaussianSqrtTRate):
            patch(cls, "sample", _wrap(tracer, "dist.sample", cls.__dict__["sample"]))
        patch(dist.DiscreteEmpirical, "__init__",
              _wrap(tracer, "dist.discrete_new", dist.DiscreteEmpirical.__dict__["__init__"]))

        quad = choquet.quad

        def counting_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            if len(out) > 2 and isinstance(out[2], dict):
                tracer.add("choquet.quad_neval", out[2]["neval"])
            return out

        patch(choquet, "quad", counting_quad)
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


def layer_metrics(t: Tracer, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    calls, total, self_s, counters = t.calls, t.total_s, t.self_s, t.counters
    steps = calls["solver.recursion_step"]
    sweep_wall = total["cli.run_sweep"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    m = {
        "solver.recursion_step_calls": (steps, "count"),
        "solver.recursion_step_s": (total["solver.recursion_step"], "s"),
        "solver.backward_induction_s": (total["solver.backward_induction"], "s"),
        "solver.terminal_stats_s": (total["solver.terminal_stats"], "s"),
        "solver.zero_row_share": (counters["solver.zero_rows"] / steps if steps else 0.0, "ratio"),
        "cli.sweep_pool_eff": (
            counters["cli.sweep_solve_s"] / (workers * sweep_wall) if sweep_wall else 0.0, "ratio"),
        "simulate.simulate_paths_s": (total["simulate.simulate_paths"], "s"),
        "simulate.path_steps": (counters["simulate.path_steps"], "count"),
        "dist.sample_calls": (calls["dist.sample"], "count"),
        "dist.sample_s": (total["dist.sample"], "s"),
        "simulate.paths_to_csv_s": (total["simulate.paths_to_csv"], "s"),
        "simulate.summary_to_csv_s": (total["simulate.summary_to_csv"], "s"),
        "simulate.inconsistency_demo_s": (total["simulate.inconsistency_demo"], "s"),
        "dist.discrete_new_calls": (calls["dist.discrete_new"], "count"),
        "dist.discrete_new_s": (total["dist.discrete_new"], "s"),
        "choquet.cpt_discrete_calls": (calls["choquet.cpt_discrete"], "count"),
        "choquet.cpt_discrete_s": (total["choquet.cpt_discrete"], "s"),
        "choquet.cpt_cdf_calls": (calls["choquet.cpt_cdf"], "count"),
        "choquet.cpt_cdf_s": (total["choquet.cpt_cdf"], "s"),
        "choquet.quad_neval": (counters["choquet.quad_neval"], "count"),
        "cli.load_config_s": (total["cli.load_config"], "s"),
        "cli.run_self_s": (sum(v for k, v in self_s.items() if k.startswith("cli.run_")), "s"),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return m


IMPORT_GROUPS = ("numpy", "scipy.special", "scipy.integrate", "cptalloc")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Split the `-X importtime` log of `import cptalloc` into seconds spent
    under numpy, scipy.special, scipy.integrate and the rest of cptalloc.

    Each module's self time goes to the nearest enclosing import among
    IMPORT_GROUPS, so the four parts add up to the import of cptalloc.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        self_us = parts[0].split(":", 1)[1].strip()
        if not self_us.isdigit():
            continue  # the column header
        field = parts[2]
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        entries.append((depth, field.strip(), int(self_us)))

    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    stack: list[tuple[int, str | None]] = []
    # The log is in post-order; reversed, every parent precedes its children.
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        group = name if name in totals else (stack[-1][1] if stack else None)
        stack.append((depth, group))
        if group is not None:
            totals[group] += self_us
    return {g: us / 1e6 for g, us in totals.items()}
