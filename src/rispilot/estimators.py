"""Channel estimators operating on a recorded pilot campaign.

Two estimators are provided. The parametric maximum-likelihood (ML)
estimator restricts the channel to the LOS family c * a(aoa) and
reduces to a one-dimensional grid search over the angle followed by
closed-form expressions for the complex coefficient. The least-squares
baseline inverts the pilot equation with a pseudoinverse and needs a
pilot count on the order of the element count to work well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, DimensionError
from .model import (
    TWO_PI,
    UNIT_MODULUS_TOL,
    ArrayModel,
    KnownBsRisChannel,
    _is_integral,
    array_response,
    steering_matrix,
)

#: Relative singular-value cutoff used by the pseudoinverse.
PINV_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class PilotCampaign:
    """Pilot observations: configuration matrix, received samples, power.

    ``config_matrix`` stacks one unit-modulus configuration vector per
    row, in transmission order; ``received`` holds the matching samples.
    """

    config_matrix: np.ndarray
    received: np.ndarray
    pilot_power: float
    bs_ris_channel: KnownBsRisChannel

    def __post_init__(self) -> None:
        matrix = np.array(self.config_matrix, dtype=np.complex128)
        samples = np.array(self.received, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("config_matrix must be 2-D (pilots x elements)")
        if samples.ndim != 1 or samples.size != matrix.shape[0]:
            raise DimensionError(
                f"received length {samples.size} must equal the "
                f"{matrix.shape[0]} configuration rows"
            )
        if matrix.shape[1] != self.bs_ris_channel.num_elements:
            raise DimensionError(
                f"config_matrix has {matrix.shape[1]} columns but the BS-RIS "
                f"channel has {self.bs_ris_channel.num_elements} coefficients"
            )
        if matrix.size:
            deviation = np.max(np.abs(np.abs(matrix) - 1.0))
            if deviation > UNIT_MODULUS_TOL:
                raise ValueError(
                    f"config_matrix entries must have unit modulus "
                    f"(worst deviation {deviation:.3e})"
                )
        if not self.pilot_power > 0:
            raise ValueError("pilot_power must be positive")
        matrix.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "config_matrix", matrix)
        object.__setattr__(self, "received", samples)
        object.__setattr__(self, "pilot_power", float(self.pilot_power))

    @property
    def num_pilots(self) -> int:
        return self.received.size

    @property
    def num_elements(self) -> int:
        return self.config_matrix.shape[1]


@dataclass(frozen=True)
class AoaSearchGrid:
    """Uniform angle grid over which the ML objective is evaluated.

    Both endpoints are included. Granularity only affects computation,
    not the recorded pilot data, so it can be chosen freely.
    """

    lower: float = -np.pi / 2
    upper: float = np.pi / 2
    num_points: int = 2000

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("grid lower bound must be below the upper bound")
        if not (_is_integral(self.num_points) and self.num_points >= 2):
            raise ValueError("grid needs an integer number of at least two points")
        if self.lower < -np.pi / 2 or self.upper > np.pi / 2:
            raise ValueError("grid must lie within the front half-plane")
        object.__setattr__(self, "num_points", int(self.num_points))

    @property
    def angles(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.num_points)

    @property
    def step(self) -> float:
        return (self.upper - self.lower) / (self.num_points - 1)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Parametric estimate: angle, gain, phase, and the expanded channel."""

    aoa_estimate: float
    gain_estimate: float
    phase_estimate: float
    channel_estimate: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.channel_estimate, dtype=np.complex128)
        vec.setflags(write=False)
        object.__setattr__(self, "channel_estimate", vec)


def _utility_values(inner: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """ML objective |y^H v|^2 / ||v||^2 from y^H v and ||v||^2 per direction.

    A direction with exactly zero pilot energy (a kernel null shared by
    all rows) explains nothing and scores 0. If no direction carries any
    energy the campaign cannot rank any angle: degenerate-direction error.
    """
    if np.all(energy == 0.0):
        raise DegenerateDirectionError(
            "no probed direction carries pilot energy; the campaign cannot "
            "rank any angle"
        )
    return np.divide(
        np.abs(inner) ** 2, energy, out=np.zeros_like(energy), where=energy > 0.0
    )


def _gain_and_phase(inner, energy, pilot_power: float) -> tuple[float, float]:
    """Closed-form gain |y^H v|^2 / (P_p ||v||^4) and phase -arg(y^H v).

    The phase is wrapped to [0, 2*pi); a zero inner product maps to (0, 0).
    """
    if energy == 0.0:
        raise DegenerateDirectionError(
            "the estimated direction carries no pilot energy"
        )
    gain = abs(inner) ** 2 / (pilot_power * energy**2)
    return gain, float((-np.angle(inner)) % TWO_PI)


def _signal_directions(
    campaign: PilotCampaign, array: ArrayModel, angles: np.ndarray
) -> np.ndarray:
    """Noise-free received directions B D_h a(angle), one column per angle."""
    if array.num_elements != campaign.num_elements:
        raise DimensionError(
            f"array has {array.num_elements} elements but the campaign "
            f"has {campaign.num_elements}"
        )
    responses = steering_matrix(array, angles)
    return campaign.config_matrix @ (
        campaign.bs_ris_channel.coefficients[:, None] * responses
    )


def ml_utility_profile(
    campaign: PilotCampaign, array: ArrayModel, angles
) -> np.ndarray:
    """ML objective |y^H B D_h a(angle)|^2 / ||B D_h a(angle)||^2 per angle.

    The objective is the received energy explained by each candidate
    direction. A direction with exactly zero pilot energy scores 0; if
    no probed direction carries energy, a degenerate-direction error is
    raised.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    directions = _signal_directions(campaign, array, angles)
    return _utility_values(
        np.conj(campaign.received) @ directions,
        np.sum(np.abs(directions) ** 2, axis=0),
    )


def ml_utility(campaign: PilotCampaign, array: ArrayModel, aoa: float) -> float:
    """ML objective at a single angle. See :func:`ml_utility_profile`.

    Raises a degenerate-direction error when this angle's direction
    carries no pilot energy at all.
    """
    return float(ml_utility_profile(campaign, array, [aoa])[0])


def estimate_aoa(
    campaign: PilotCampaign, array: ArrayModel, grid: AoaSearchGrid
) -> float:
    """Angle maximizing the ML objective over the grid.

    Exact ties resolve to the smallest angle (first grid index).
    """
    profile = ml_utility_profile(campaign, array, grid.angles)
    return float(grid.angles[int(np.argmax(profile))])


def estimate_scalar_coefficient(
    campaign: PilotCampaign, array: ArrayModel, aoa_estimate: float
) -> tuple[float, float]:
    """Closed-form gain and phase estimates for a fixed angle.

    With v = B D_h a(aoa): gain = |y^H v|^2 / (P_p ||v||^4) and
    phase = -arg(y^H v) wrapped to [0, 2*pi). A zero inner product maps
    to (0, 0) so all-zero received signals stay well defined.
    """
    direction = _signal_directions(campaign, array, np.asarray([aoa_estimate]))[:, 0]
    return _gain_and_phase(
        complex(np.conj(campaign.received) @ direction),
        float(np.sum(np.abs(direction) ** 2)),
        campaign.pilot_power,
    )


def parametric_ml_estimate(
    campaign: PilotCampaign,
    array: ArrayModel,
    grid: AoaSearchGrid,
) -> EstimationResult:
    """Grid-search ML estimate of the LOS channel.

    Composes the angle search with the closed-form coefficient.
    """
    angles = grid.angles
    profile = ml_utility_profile(campaign, array, angles)
    aoa = float(angles[int(np.argmax(profile))])
    gain, phase = estimate_scalar_coefficient(campaign, array, aoa)
    channel = np.sqrt(gain) * np.exp(1j * phase) * array_response(array, aoa)
    return EstimationResult(aoa, gain, phase, channel)


def least_squares_estimate(campaign: PilotCampaign) -> np.ndarray:
    """Non-parametric estimate D_h^{-1} B^+ y / sqrt(P_p).

    Uses the minimum-norm pseudoinverse with singular values below
    ``PINV_CUTOFF`` times the largest one treated as zero, so it also
    covers rank-deficient campaigns with fewer pilots than elements.
    """
    pinv = np.linalg.pinv(campaign.config_matrix, rcond=PINV_CUTOFF)
    unscaled = pinv @ campaign.received
    return unscaled / (np.sqrt(campaign.pilot_power) * campaign.bs_ris_channel.coefficients)
