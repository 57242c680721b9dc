"""LOS channel estimation toward a phase-shifting reflective surface.

The package provides the deterministic signal model, a grid-search
parametric ML estimator with a least-squares baseline, adaptive
selection of pilot-time surface configurations, and a seeded Monte
Carlo harness with CSV output.
"""

from .adaptive import build_adaptive_setup, plausible_angles
from .errors import (
    AngleDomainError,
    ConfigParseError,
    ConfigValidationError,
    DegenerateDirectionError,
    DimensionError,
    InsufficientPilotsError,
    InvalidInputError,
    PoolExhaustedError,
    RisPilotError,
)
from .estimators import (
    AoaSearchGrid,
    least_squares_prefix_estimates,
)
from .io import emit_rate_csv, emit_utility_csv, parse_config
from .model import ArrayModel, LosChannel, achievable_rate, array_response
from .simulate import (
    ExperimentConfig,
    RateCurvePoint,
    collect_trial_rates,
    run_rate_experiment,
    run_single_estimate,
    snr_to_powers,
)

__version__ = "0.1.0"

__all__ = [
    "AngleDomainError",
    "AoaSearchGrid",
    "ArrayModel",
    "ConfigParseError",
    "ConfigValidationError",
    "DegenerateDirectionError",
    "DimensionError",
    "ExperimentConfig",
    "InsufficientPilotsError",
    "InvalidInputError",
    "LosChannel",
    "PoolExhaustedError",
    "RateCurvePoint",
    "RisPilotError",
    "achievable_rate",
    "array_response",
    "build_adaptive_setup",
    "collect_trial_rates",
    "emit_rate_csv",
    "emit_utility_csv",
    "least_squares_prefix_estimates",
    "parse_config",
    "plausible_angles",
    "run_rate_experiment",
    "run_single_estimate",
    "snr_to_powers",
]
