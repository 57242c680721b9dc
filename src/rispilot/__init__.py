"""LOS channel estimation toward a phase-shifting reflective surface.

The package provides the deterministic signal model, a grid-search
parametric ML estimator with a least-squares baseline, adaptive
selection of pilot-time surface configurations, and a seeded Monte
Carlo harness with CSV output.
"""

from .adaptive import (
    build_adaptive_setup,
    optimal_configuration,
    plausible_angles,
    run_adaptive_estimation,
)
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
    SingularChannelError,
)
from .estimators import (
    AoaSearchGrid,
    least_squares_prefix_estimates,
)
from .io import emit_rate_csv, emit_utility_csv, parse_config
from .model import (
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    RisConfiguration,
    achievable_rate,
    array_response,
    expand_channel,
    random_bs_ris_channel,
)
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
    "KnownBsRisChannel",
    "LosChannel",
    "PoolExhaustedError",
    "RateCurvePoint",
    "RisConfiguration",
    "RisPilotError",
    "SingularChannelError",
    "achievable_rate",
    "array_response",
    "build_adaptive_setup",
    "collect_trial_rates",
    "emit_rate_csv",
    "emit_utility_csv",
    "expand_channel",
    "least_squares_prefix_estimates",
    "optimal_configuration",
    "parse_config",
    "plausible_angles",
    "random_bs_ris_channel",
    "run_adaptive_estimation",
    "run_rate_experiment",
    "run_single_estimate",
    "snr_to_powers",
]
