"""Channel estimators operating on a recorded pilot campaign.

Two estimators are provided. The parametric maximum-likelihood (ML)
estimator restricts the channel to the LOS family c * a(aoa) and
reduces to a one-dimensional grid search over the angle followed by
closed-form expressions for the complex coefficient. Its sums live in
one ``UtilityAccumulator`` fed pilot by pilot with rows of a
``_projection_tables`` table: a whole campaign's for the batch
estimators, the adaptive setup's as the loop sends pilots. The
least-squares baseline inverts the pilot equation with a pseudoinverse
and needs a pilot count on the order of the element count to work well.
For mutually orthogonal rows (DFT columns) the pseudoinverse is B^H / N,
so the estimates of all pilot prefixes come from one cumulative sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AngleDomainError, DegenerateDirectionError, DimensionError,
                     InvalidInputError)
from .model import (
    TWO_PI,
    ArrayModel,
    KnownBsRisChannel,
    _check_unit_modulus,
    _is_integral,
    array_response,
    los_vector,
)

#: Relative singular-value cutoff used by the pseudoinverse.
PINV_CUTOFF = 1e-12

#: Tolerance on max |B B^H - N I| / N for rows taken as mutually orthogonal.
ORTHOGONALITY_TOL = 1e-9


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
            raise DimensionError("config_matrix must be 2-D (pilots x elements)")
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
        _check_unit_modulus(matrix, "config_matrix")
        if not self.pilot_power > 0:
            raise InvalidInputError("pilot_power must be positive")
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
            raise InvalidInputError("grid lower bound must be below the upper bound")
        if not (_is_integral(self.num_points) and self.num_points >= 2):
            raise InvalidInputError(
                "grid needs an integer number of at least two points"
            )
        if self.lower < -np.pi / 2 or self.upper > np.pi / 2:
            raise AngleDomainError("grid must lie within the front half-plane")
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


def closed_form_gain_and_phase(inner, energy, pilot_power):
    """Gain |y^H B v|^2 / (P_p ||B v||^4) and phase -arg(y^H B v) in [0, 2*pi).

    ``inner`` and ``energy`` are the sums y^H B v and ||B v||^2 at estimated
    directions v; a zero inner product maps to (0, 0).
    """
    if np.any(energy == 0.0):
        raise DegenerateDirectionError(
            "the estimated direction carries no pilot energy"
        )
    return np.abs(inner) ** 2 / (pilot_power * energy**2), (-np.angle(inner)) % TWO_PI


def _projection_tables(
    rows: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Projections ``rows @ directions`` and their |.|^2, read-only.

    Entry [i, j] is B_i v_j, what pilot row i adds to y^H B v_j per unit
    sample, and |B_i v_j|^2 what it adds to ||B v_j||^2. The one table
    route into the ML sums: a campaign's, the adaptive setup's and a run's.
    """
    projections = rows @ directions
    energies = np.abs(projections) ** 2
    for values in (projections, energies):
        values.setflags(write=False)
    return projections, energies


class UtilityAccumulator:
    """Running sums behind the ML objective, one pilot at a time.

    For the pilots added so far in transmission order it keeps, per
    direction v_j = D_h a(angle_j), the inner product y^H B v_j and the
    energy ||B v_j||^2. ``shape`` is the number of directions, or
    (trials, directions) for a leading axis of independent runs: the
    adaptive loop advances a chunk of trials at once this way, and the
    batch estimators feed one campaign. This is the one copy of the
    utility; ``closed_form_gain_and_phase`` turns the sums into a gain and phase.
    """

    def __init__(self, shape):
        self.inner = np.zeros(shape, dtype=np.complex128)
        self.energy = np.zeros(shape, dtype=float)

    def add(self, projections: np.ndarray, samples, energies: np.ndarray, picks) -> None:
        """Add one pilot per run t, row picks[t] of the tables and samples[t], in place.

        The tables come from ``_projection_tables`` and are read in place.
        """
        size = self.inner.shape[-1]
        # Python scalars index and multiply as numpy's would, at less cost
        runs = zip(
            self.inner.reshape(-1, size), self.energy.reshape(-1, size),
            np.reshape(picks, -1).tolist(), np.conj(samples).reshape(-1).tolist(),
        )
        for inner, total, k, conj_sample in runs:
            inner += conj_sample * projections[k]
            total += energies[k]

    def utility(self, out: np.ndarray | None = None) -> np.ndarray:
        """ML objective |y^H B v|^2 / ||B v||^2 per direction, into ``out`` if given.

        A direction with exactly zero pilot energy (a kernel null shared by
        all rows) explains nothing and scores 0, in a new array. If no
        direction of a run carries energy: degenerate-direction error.
        """
        energy = self.energy
        value = np.abs(self.inner, out=out)
        np.square(value, out=value)
        if energy.min() > 0.0:  # the usual case: no masked division needed
            return np.divide(value, energy, out=value)
        lit = energy > 0.0
        if not lit.any(axis=-1).all():
            raise DegenerateDirectionError(
                "no probed direction carries pilot energy; the campaign cannot "
                "rank any angle"
            )
        return np.divide(value, energy, out=np.zeros_like(energy), where=lit)


def _accumulate(
    campaign: PilotCampaign, array: ArrayModel, angles
) -> UtilityAccumulator:
    """An accumulator over ``angles`` fed the campaign's pilots in order.

    Pilot i adds row i of the campaign's table over the directions D_h a(angle),
    for any |h| and rows. A scalar is one angle; 2-D angles are refused.
    """
    if array.num_elements != campaign.num_elements:
        raise DimensionError(
            f"array has {array.num_elements} elements but the BS-RIS "
            f"channel has {campaign.num_elements}"
        )
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.ndim > 1:
        raise DimensionError(f"angles must be 1-D, got shape {angles.shape}")
    steering = array_response(array, angles).T
    directions = campaign.bs_ris_channel.coefficients[:, None] * steering
    projections, energies = _projection_tables(campaign.config_matrix, directions)
    accumulator = UtilityAccumulator(angles.size)
    for i, sample in enumerate(campaign.received):
        accumulator.add(projections, sample, energies, i)
    return accumulator


def ml_utility_profile(
    campaign: PilotCampaign, array: ArrayModel, angles
) -> np.ndarray:
    """ML objective |y^H B D_h a(angle)|^2 / ||B D_h a(angle)||^2 per angle.

    The objective is the received energy explained by each candidate
    direction. A direction with exactly zero pilot energy scores 0; if
    no probed direction carries energy, a degenerate-direction error is
    raised.
    """
    return _accumulate(campaign, array, angles).utility()


def parametric_ml_estimate(
    campaign: PilotCampaign,
    array: ArrayModel,
    grid: AoaSearchGrid,
) -> EstimationResult:
    """Grid-search ML estimate of the LOS channel.

    Composes the angle search with the closed-form coefficient at the
    grid peak, from one accumulator over the grid.
    """
    angles = grid.angles
    accumulator = _accumulate(campaign, array, angles)
    peak = int(np.argmax(accumulator.utility()))
    aoa = float(angles[peak])
    gain, phase = map(float, closed_form_gain_and_phase(
        accumulator.inner[peak], accumulator.energy[peak], campaign.pilot_power
    ))
    return EstimationResult(aoa, gain, phase, los_vector(array, gain, phase, aoa))


def least_squares_estimate(campaign: PilotCampaign) -> np.ndarray:
    """Non-parametric estimate D_h^{-1} B^+ y / sqrt(P_p).

    Uses the minimum-norm pseudoinverse with singular values below
    ``PINV_CUTOFF`` times the largest one treated as zero, so it also
    covers rank-deficient campaigns with fewer pilots than elements.
    """
    pinv = np.linalg.pinv(campaign.config_matrix, rcond=PINV_CUTOFF)
    unscaled = pinv @ campaign.received
    return unscaled / (np.sqrt(campaign.pilot_power) * campaign.bs_ris_channel.coefficients)


def dft_rows(num_elements: int) -> np.ndarray:
    """The N x N DFT configurations of the least-squares baseline, B B^H = N I."""
    n = np.arange(num_elements)
    return np.exp(-2j * np.pi * np.outer(n, n) / num_elements)


def least_squares_prefix_estimates(
    rows: np.ndarray, received: np.ndarray, coefficients: np.ndarray, pilot_power: float
) -> np.ndarray:
    """Least-squares estimates of every pilot prefix of orthogonal campaigns.

    A campaign is a ``PilotCampaign``'s configuration rows B, samples y and
    BS-RIS coefficients h; leading axes stack campaigns that share one
    pilot power, and each gives its own call's result bit for bit. Row L-1
    of a result equals ``least_squares_estimate`` on the first L pilots:
    with B B^H = N I the pseudoinverse of any row subset is its conjugate
    transpose over N, so the estimates are the cumulative sums of
    conj(B) * y over N sqrt(P_p) h. Raises ``InvalidInputError`` when the
    rows of any campaign are not mutually orthogonal.
    """
    n = rows.shape[-1]
    if received.shape != rows.shape[:-1] or coefficients.shape[-1] != n:
        raise DimensionError("samples and BS-RIS channel must match the rows")
    gram = rows @ np.conj(np.swapaxes(rows, -1, -2))
    deviation = np.max(np.abs(gram - n * np.eye(received.shape[-1])), initial=0.0)
    if not deviation <= ORTHOGONALITY_TOL * n:
        raise InvalidInputError(
            f"configuration rows must be mutually orthogonal "
            f"(worst |B B^H - N I| entry {deviation:.3e})"
        )
    sums = np.cumsum(np.conj(rows) * received[..., None], axis=-2)
    return sums / (n * np.sqrt(pilot_power) * coefficients[..., None, :])
