"""Moment-based detection and quantification of non-Markovian quantum dynamics.

The library builds Choi states of intermediate dynamical maps of a
(time-dependent) Lindblad evolution and decides CP-divisibility from the
first three trace moments of those states, with integrated measures for
quantification. A scenario-driven CLI reproduces the witness curves and the
measure comparison for the bundled models.
"""

__version__ = "0.1.0"

from .rates import (
    ConstantRate,
    ExpCosRate,
    LorentzianRate,
    OhmicDephasingRate,
    TabulatedRate,
    rate_eval,
)
from .lindblad import LindbladGenerator
from .choi import propagate_map
from .detect import (
    DivisibilityReport,
    MeasureReport,
    WitnessSeries,
    cp_divisibility_scan,
    lambda_moments,
    measure_report,
    moment_witness,
    witness_series,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_generator,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    render_scenario,
)

__all__ = [
    "__version__",
    "ConstantRate", "ExpCosRate", "LorentzianRate", "OhmicDephasingRate",
    "TabulatedRate", "rate_eval",
    "LindbladGenerator",
    "propagate_map",
    "DivisibilityReport", "MeasureReport", "WitnessSeries",
    "cp_divisibility_scan", "lambda_moments", "measure_report",
    "moment_witness", "witness_series",
    "ConfigError", "ScenarioConfig", "build_generator",
    "bundled_scenario_path", "load_scenario", "parse_scenario",
    "render_scenario",
]

