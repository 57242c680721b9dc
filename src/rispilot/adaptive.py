"""Adaptive selection of surface configurations during pilot transmission.

Pilot-time configurations are drawn from N candidates, one per plausible
angle. The angles are chosen so their sines are equally spaced, which
keeps the candidate beams well separated. After an initial pair of
pilots, each further pilot uses the unused candidate closest (largest
inner-product magnitude) to the configuration that would be optimal if
the current angle estimate were exact. The estimate is recomputed from
all received pilots after every transmission.

The grid steering matrix and the candidates' array responses depend only
on the array and the grid: ``build_adaptive_setup`` computes them once
per experiment. Per trial, the BS-RIS phase compensation turns them into
the projection directions and an N x N candidate matrix, the noise-free
received value of every candidate is computed, and the pilot noise is
drawn. Per pick, only the arithmetic that decides the outputs remains:
the sent pilot goes into the estimators' ``UtilityAccumulator``, whose
utility argmax gives the estimate with its gain and phase, and one
argmax of the candidates' match to the would-be-optimal configuration,
with used rows scored -inf, picks the next pilot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientPilotsError, PoolExhaustedError
from .estimators import (
    AoaSearchGrid,
    EstimationResult,
    PilotCampaign,
    UtilityAccumulator,
)
from .model import (
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    RisConfiguration,
    array_response,
    effective_channel,
    expand_channel,
    steering_matrix,
)


def plausible_angles(num_elements: int) -> np.ndarray:
    """The N angles arcsin(2m/N) for m = -floor((N-1)/2), ..., floor(N/2).

    Beams of an N-element ULA separated by a sine difference of 2/N are
    nearly orthogonal, so these candidates cover the half-plane evenly.
    For even N the last index reaches arcsin(1) = pi/2. The result is an
    increasing, read-only 1-D array.
    """
    if num_elements < 1:
        raise ValueError("num_elements must be a positive integer")
    m = np.arange(-((num_elements - 1) // 2), num_elements // 2 + 1)
    angles = np.arcsin(2.0 * m / num_elements)
    angles.setflags(write=False)
    return angles


def _phase_compensation(
    bs_ris_channel: KnownBsRisChannel, array: ArrayModel
) -> np.ndarray:
    """exp(-1j*arg(h_n)), after checking that h matches the array."""
    if array.num_elements != bs_ris_channel.num_elements:
        raise DimensionError(
            f"array has {array.num_elements} elements but the BS-RIS channel "
            f"has {bs_ris_channel.num_elements}"
        )
    return np.exp(-1j * np.angle(bs_ris_channel.coefficients))


def optimal_configuration(
    bs_ris_channel: KnownBsRisChannel, aoa: float, array: ArrayModel
) -> RisConfiguration:
    """Capacity-achieving configuration for a LOS channel from ``aoa``.

    Entry n is exp(-1j*arg(h_n)) * conj(a(aoa)_n): it cancels the BS-RIS
    phase and the arrival phase so all element paths add coherently.
    """
    compensation = _phase_compensation(bs_ris_channel, array)
    return RisConfiguration(compensation * np.conj(array_response(array, aoa)))


def _conj_responses(array: ArrayModel, angles: np.ndarray) -> np.ndarray:
    """Row k is conj(a(angles[k])), computed exactly as in optimal_configuration."""
    return np.array([np.conj(array_response(array, angle)) for angle in angles])


@dataclass(frozen=True, eq=False)
class AdaptiveSetup:
    """Trial-independent arrays of the adaptive loop for one array and grid.

    Column j of ``steering`` is a(grid_angles[j]); row k of
    ``conj_responses`` is conj(a(angles[k])) for plausible angle k.
    """

    array: ArrayModel
    grid: AoaSearchGrid
    grid_angles: np.ndarray
    steering: np.ndarray
    angles: np.ndarray
    conj_responses: np.ndarray


def build_adaptive_setup(array: ArrayModel, grid: AoaSearchGrid) -> AdaptiveSetup:
    """Compute the steering matrix and candidate responses once, read-only."""
    grid_angles = grid.angles
    steering = steering_matrix(array, grid_angles)
    angles = plausible_angles(array.num_elements)
    conj_responses = _conj_responses(array, angles)
    for values in (grid_angles, steering, conj_responses):
        values.setflags(write=False)
    return AdaptiveSetup(array, grid, grid_angles, steering, angles, conj_responses)


def config_correlation(a: RisConfiguration, b: RisConfiguration) -> float:
    """Magnitude of the inner product |a^H b| between two configurations.

    For candidate configurations over a ULA this is the Dirichlet kernel
    |sin(N*pi*rho*d) / sin(pi*rho*d)| in the sine difference d of their
    angles, with rho the spacing-to-wavelength ratio.
    """
    if len(a) != len(b):
        raise DimensionError(
            f"configurations of length {len(a)} and {len(b)} cannot be compared"
        )
    return float(np.abs(np.vdot(a.phases, b.phases)))


#: Sines of the two starting beams: the one-third and two-thirds
#: quantiles of the sine range, far apart without being endfire.
INITIAL_SINES = (-0.5, 0.5)


def simulate_pilot_reception(
    config_row: RisConfiguration,
    h: KnownBsRisChannel,
    g,
    pilot_power: float,
    noise_std: float,
    rng,
) -> complex:
    """One received pilot sample theta^T D_h g sqrt(P_p) + w.

    The noise w is circularly-symmetric complex Gaussian with variance
    ``noise_std**2`` (independent real and imaginary parts of variance
    ``noise_std**2 / 2``). With ``noise_std == 0`` nothing is drawn and
    the noise-free value is returned.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    signal = effective_channel(config_row, h, g) * np.sqrt(pilot_power)
    if noise_std == 0.0:
        return signal
    rng = np.random.default_rng(rng)
    re, im = rng.standard_normal(2)
    return signal + (re + 1j * im) * (noise_std / np.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class AdaptiveStep:
    """State after one pilot: what was sent, what came back, what is believed.

    ``aoa_estimate``/``gain_estimate``/``phase_estimate`` use all pilots
    up to and including this one; they are ``None`` for the very first
    pilot because a single projection cannot identify the angle.
    ``utility`` is the read-only ML objective over the grid that gave
    the estimate, also ``None`` for the first pilot.
    """

    pilot_index: int
    config_angle: float
    received: complex
    aoa_estimate: float | None
    gain_estimate: float | None
    phase_estimate: float | None
    utility: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class AdaptiveRunRecord:
    """Full transcript of one adaptive estimation run."""

    steps: tuple[AdaptiveStep, ...]
    campaign: PilotCampaign
    result: EstimationResult
    grid: AoaSearchGrid

    def step_for(self, num_pilots: int) -> AdaptiveStep:
        """Step holding the estimate based on the first ``num_pilots`` pilots."""
        if not 1 <= num_pilots <= len(self.steps):
            raise ValueError(
                f"run holds {len(self.steps)} pilots, not {num_pilots}"
            )
        return self.steps[num_pilots - 1]


def _pilot_power_for_snr(
    pilot_snr: float, gain: float, bs_ris_channel: KnownBsRisChannel
) -> tuple[float, float]:
    """(pilot_power, noise_std) realizing a per-element pilot SNR.

    Noise power is normalized to 1 and the pilot power is scaled so that
    pilot_power * gain * mean(|h_n|^2) equals ``pilot_snr``. An infinite
    SNR maps to zero noise with unit pilot power.
    """
    if np.isinf(pilot_snr) and pilot_snr > 0:
        return 1.0, 0.0
    if not pilot_snr > 0:
        raise ValueError("pilot_snr must be positive (use inf for noise-free)")
    mean_h2 = float(np.mean(np.abs(bs_ris_channel.coefficients) ** 2))
    if gain > 0:
        return float(pilot_snr) / (gain * mean_h2), 1.0
    return float(pilot_snr), 1.0


def run_adaptive_estimation(
    true_channel: LosChannel,
    bs_ris_channel: KnownBsRisChannel,
    array: ArrayModel,
    num_pilots: int,
    pilot_snr: float,
    rng=None,
    grid: AoaSearchGrid | None = None,
    *,
    setup: AdaptiveSetup | None = None,
) -> AdaptiveRunRecord:
    """Run the adaptive estimation loop for ``num_pilots`` pilots.

    The first two pilots use the candidates nearest in sine to
    ``INITIAL_SINES``. After every pilot i >= 2 the angle and
    coefficient estimates are refreshed from all data so far; while
    pilots remain, the unused candidate maximizing |candidate^H
    reference|, with the reference the would-be-optimal configuration,
    is transmitted next. A used mask over the candidate rows keeps each
    candidate to one pilot; ties go to the smallest angle. ``pilot_snr``
    is the per-element pilot SNR in linear scale (``inf`` for noise-free
    runs). ``setup`` shares the trial-independent arrays between runs
    over the same array and grid; it is built here when absent.

    Every received sample equals ``simulate_pilot_reception`` on the
    sent row with ``rng``, bit for bit: the loop computes all N
    noise-free values once and draws the 2 * ``num_pilots`` normals of
    the per-pilot noise up front, in transmission order (none when
    ``pilot_snr`` is infinite). The sent rows are checked once, when the
    returned campaign is built.

    Each pilot goes into one ``UtilityAccumulator`` as it is sent, so
    the estimate and the grid utility stored at step i are bit for bit
    those of ``parametric_ml_estimate`` and ``ml_utility_profile`` on
    the first i pilots of the returned campaign, and exactly what a run
    with budget i would have returned under the same noise draws.
    """
    n = array.num_elements
    if num_pilots < 2:
        raise InsufficientPilotsError("at least two pilots are required")
    if num_pilots > n:
        raise PoolExhaustedError(
            f"budget {num_pilots} exceeds the {n} available configurations"
        )
    if grid is None:
        grid = AoaSearchGrid()
    if setup is None:
        setup = build_adaptive_setup(array, grid)
    elif setup.array != array or setup.grid != grid:
        raise ValueError("setup was built for a different array or grid")
    rng = np.random.default_rng(rng)

    pilot_power, noise_std = _pilot_power_for_snr(
        pilot_snr, true_channel.gain, bs_ris_channel
    )
    g = expand_channel(true_channel, array)
    compensation = _phase_compensation(bs_ris_channel, array)
    # row k equals optimal_configuration(bs_ris_channel, angles[k], array).phases
    candidates = compensation * setup.conj_responses
    # entry k is simulate_pilot_reception's noise-free value for row k
    signals = (
        np.sum(candidates * bs_ris_channel.coefficients * g, axis=1)
        * np.sqrt(pilot_power)
    )
    # the per-pick standard_normal(2) draws of simulate_pilot_reception,
    # taken at once in the same order; noise-free runs draw and add nothing
    noise = None
    if noise_std > 0:
        draws = rng.standard_normal(2 * num_pilots)
        noise = (draws[0::2] + 1j * draws[1::2]) * (noise_std / np.sqrt(2.0))
    sines = np.sin(setup.angles)
    used = np.zeros(n, dtype=bool)
    grid_angles = setup.grid_angles
    accumulator = UtilityAccumulator(bs_ris_channel, setup.steering)
    picks: list[int] = []
    samples: list[complex] = []

    def transmit(scores: np.ndarray) -> None:
        """Send the unused candidate with the highest score (first on ties)."""
        scores[used] = -np.inf
        k = int(np.argmax(scores))
        used[k] = True
        sample = signals[k] if noise is None else signals[k] + noise[len(picks)]
        accumulator.add(candidates[k], sample)
        picks.append(k)
        samples.append(sample)

    for start in INITIAL_SINES:
        transmit(-np.abs(sines - start))

    steps: list[AdaptiveStep] = [
        AdaptiveStep(1, float(setup.angles[picks[0]]), samples[0], None, None, None)
    ]

    aoa_hat = gain_hat = phase_hat = 0.0
    for i in range(2, num_pilots + 1):
        utility = accumulator.utility()
        utility.setflags(write=False)
        peak = int(np.argmax(utility))
        gain_hat, phase_hat = accumulator.gain_and_phase(peak, pilot_power)
        aoa_hat = float(grid_angles[peak])
        steps.append(
            AdaptiveStep(
                i,
                float(setup.angles[picks[i - 1]]),
                samples[i - 1],
                aoa_hat,
                gain_hat,
                phase_hat,
                utility,
            )
        )
        if i == num_pilots:
            break
        # optimal_configuration(bs_ris_channel, aoa_hat, array).phases
        reference = compensation * np.conj(array_response(array, aoa_hat))
        transmit(np.abs(candidates @ np.conj(reference)))

    campaign = PilotCampaign(
        candidates[picks], np.asarray(samples), pilot_power, bs_ris_channel
    )
    channel_estimate = (
        np.sqrt(gain_hat) * np.exp(1j * phase_hat) * array_response(array, aoa_hat)
    )
    result = EstimationResult(aoa_hat, gain_hat, phase_hat, channel_estimate)
    return AdaptiveRunRecord(tuple(steps), campaign, result, grid)
