"""Multi-period risky-asset allocation for cumulative-prospect-theory investors.

The package solves for per-period optimal investment fractions by backward
induction, evaluates the CPT objective exactly or by quadrature, simulates
wealth paths under the resulting policies, and ships a batch CLI for solve,
simulate, sweep, value, and demo runs.

`import cptalloc` loads no submodule: each public name is imported from its
home module on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    **dict.fromkeys(("CptValue", "cpt_cdf", "cpt_discrete", "cpt_scaled_position"), "choquet"),
    **dict.fromkeys(("RunConfig", "load_config", "parse_config", "serialize_config"), "cli"),
    **dict.fromkeys(("DeterministicRate", "DiscreteEmpirical", "Distribution", "GaussianSqrtTRate",
                     "Normal", "RateModel", "as_schedule", "discretize"), "dist"),
    **dict.fromkeys(("ConfigError", "CptAllocError", "NumericalError"), "errors"),
    **dict.fromkeys(("CptPreferences", "distort", "value"), "prefs"),
    **dict.fromkeys(("BenchmarkReport", "DemoReport", "EnsembleSummary", "PathEnsemble",
                     "benchmarked_wealth", "inconsistency_demo", "simulate_paths", "step_wealth"),
                    "simulate"),
    **dict.fromkeys(("Constraints", "PolicyCoefficients", "PolicyTable", "SolverSettings",
                     "TerminalStats", "backward_induction", "optimal_trade", "recursion_step",
                     "terminal_coefficients", "terminal_stats"), "solver"),
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
