"""Multi-period risky-asset allocation for cumulative-prospect-theory investors.

The package solves for per-period optimal investment fractions by backward
induction, evaluates the CPT objective exactly or by quadrature, simulates
wealth paths under the resulting policies, and ships a batch CLI for solve,
simulate, sweep, value, and demo runs.
"""

from .choquet import CptValue, cpt_cdf, cpt_discrete, cpt_scaled_position
from .cli import RunConfig, load_config, parse_config, serialize_config
from .dist import (
    DeterministicRate,
    DiscreteEmpirical,
    Distribution,
    GaussianSqrtTRate,
    Normal,
    RateModel,
    as_schedule,
    discretize,
)
from .errors import ConfigError, CptAllocError, NumericalError
from .prefs import CptPreferences, distort, value
from .simulate import (
    BenchmarkReport,
    DemoReport,
    EnsembleSummary,
    PathEnsemble,
    benchmarked_wealth,
    inconsistency_demo,
    simulate_paths,
    step_wealth,
)
from .solver import (
    Constraints,
    PolicyCoefficients,
    PolicyTable,
    SolverSettings,
    TerminalStats,
    backward_induction,
    optimal_trade,
    recursion_step,
    terminal_coefficients,
    terminal_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "ConfigError",
    "Constraints",
    "CptAllocError",
    "CptPreferences",
    "CptValue",
    "DemoReport",
    "DeterministicRate",
    "DiscreteEmpirical",
    "Distribution",
    "EnsembleSummary",
    "GaussianSqrtTRate",
    "Normal",
    "NumericalError",
    "PathEnsemble",
    "PolicyCoefficients",
    "PolicyTable",
    "RateModel",
    "RunConfig",
    "SolverSettings",
    "TerminalStats",
    "as_schedule",
    "backward_induction",
    "benchmarked_wealth",
    "cpt_cdf",
    "cpt_discrete",
    "cpt_scaled_position",
    "discretize",
    "distort",
    "inconsistency_demo",
    "load_config",
    "optimal_trade",
    "parse_config",
    "recursion_step",
    "serialize_config",
    "simulate_paths",
    "step_wealth",
    "terminal_coefficients",
    "terminal_stats",
    "value",
]
