"""Adaptive selection of surface configurations during pilot transmission.

Pilot-time configurations are drawn from N candidates, one per plausible
angle. The angles are chosen so their sines are equally spaced, which
keeps the candidate beams well separated. After an initial pair of
pilots, each further pilot uses the unused candidate closest (largest
inner-product magnitude) to the configuration that would be optimal if
the current angle estimate were exact. The estimate is recomputed from
all received pilots after every transmission.

Everything that depends only on the array and the grid is built once
per experiment by ``build_adaptive_setup``: the grid steering matrix,
the candidates' array responses and three tables. The configurations
cancel the BS-RIS phases, so for unit-magnitude coefficients candidate
k's projection onto grid direction j is the trial-independent
P[k, j] = conj(a_k)^T a_j. The setup holds P, the energy |P|^2 a pilot
adds, and the score table |P|^T whose row j rates every candidate
against the configuration optimal at grid angle j.

One core, ``advance_trials``, advances a chunk of trials one pilot at a
time as (trials x grid) arrays. Per pick it makes no matrix product: it
gathers the sent candidates' rows of P and |P|^2 into the estimators'
``UtilityAccumulator``, takes the utility argmax with its gain and
phase, and sends each trial's unused candidate with the largest entry
in the estimate's score row. ``run_adaptive_estimation`` is its
one-trial call; the Monte Carlo harness calls it once per chunk.
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
    UNIT_MODULUS_TOL,
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


def _phase_compensation(coefficients: np.ndarray, array: ArrayModel) -> np.ndarray:
    """exp(-1j*arg(h_n)), after checking that h matches the array.

    ``coefficients`` may carry leading axes, one BS-RIS channel per row.
    """
    if coefficients.shape[-1] != array.num_elements:
        raise DimensionError(
            f"array has {array.num_elements} elements but the BS-RIS channel "
            f"has {coefficients.shape[-1]}"
        )
    return np.exp(-1j * np.angle(coefficients))


def optimal_configuration(
    bs_ris_channel: KnownBsRisChannel, aoa: float, array: ArrayModel
) -> RisConfiguration:
    """Capacity-achieving configuration for a LOS channel from ``aoa``.

    Entry n is exp(-1j*arg(h_n)) * conj(a(aoa)_n): it cancels the BS-RIS
    phase and the arrival phase so all element paths add coherently.
    """
    compensation = _phase_compensation(bs_ris_channel.coefficients, array)
    return RisConfiguration(compensation * np.conj(array_response(array, aoa)))


def _conj_responses(array: ArrayModel, angles: np.ndarray) -> np.ndarray:
    """Row k is conj(a(angles[k])), computed exactly as in optimal_configuration."""
    return np.array([np.conj(array_response(array, angle)) for angle in angles])


def _projection_tables(
    conj_responses: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate projections ``conj_responses @ directions`` and |.|^2, read-only.

    Candidate k's configuration is compensation * conj_responses[k], and
    the compensation cancels the BS-RIS phases, so with the directions
    |h|[:, None] * steering row k is what pilot k adds to y^H B D_h A.
    """
    projections = conj_responses @ directions
    energies = np.abs(projections) ** 2
    for values in (projections, energies):
        values.setflags(write=False)
    return projections, energies


@dataclass(frozen=True, eq=False)
class AdaptiveSetup:
    """Trial-independent arrays of the adaptive loop for one array and grid.

    Column j of ``steering`` is a(grid_angles[j]); row k of
    ``conj_responses`` is conj(a(angles[k])) for plausible angle k. The
    tables hold what every pick of a unit-magnitude BS-RIS channel needs:
    ``projections[k, j]`` = conj(a_k)^T a(grid_angles[j]) is candidate k's
    projection onto grid direction j, ``projection_energy`` its |.|^2, and
    row j of ``scores`` (G x N) is |candidates @ conj(reference)| for the
    reference configuration optimal at grid angle j.
    """

    array: ArrayModel
    grid: AoaSearchGrid
    grid_angles: np.ndarray
    steering: np.ndarray
    angles: np.ndarray
    conj_responses: np.ndarray
    projections: np.ndarray
    projection_energy: np.ndarray
    scores: np.ndarray


def build_adaptive_setup(array: ArrayModel, grid: AoaSearchGrid) -> AdaptiveSetup:
    """Compute the steering matrix, candidate responses and tables once, read-only."""
    grid_angles = grid.angles
    steering = steering_matrix(array, grid_angles)
    angles = plausible_angles(array.num_elements)
    conj_responses = _conj_responses(array, angles)
    projections, projection_energy = _projection_tables(conj_responses, steering)
    scores = np.ascontiguousarray(np.abs(projections).T)
    for values in (grid_angles, steering, conj_responses, scores):
        values.setflags(write=False)
    return AdaptiveSetup(
        array, grid, grid_angles, steering, angles, conj_responses,
        projections, projection_energy, scores,
    )


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


def pilot_power_for_snr(
    pilot_snr: float, gain: float, coefficients: np.ndarray
) -> tuple[np.ndarray, float]:
    """(pilot_power, noise_std) realizing a per-element pilot SNR.

    Noise power is normalized to 1 and the pilot power is scaled so that
    pilot_power * gain * mean(|h_n|^2) equals ``pilot_snr``. An infinite
    SNR maps to zero noise with unit pilot power. ``coefficients`` holds
    one BS-RIS channel per row, and the pilot power has one entry per row.
    """
    mean_h2 = np.mean(np.abs(coefficients) ** 2, axis=-1)
    if np.isinf(pilot_snr) and pilot_snr > 0:
        return np.ones_like(mean_h2), 0.0
    if not pilot_snr > 0:
        raise ValueError("pilot_snr must be positive (use inf for noise-free)")
    if gain > 0:
        return float(pilot_snr) / (gain * mean_h2), 1.0
    return np.full_like(mean_h2, pilot_snr), 1.0


@dataclass(frozen=True, eq=False)
class AdaptiveTrials:
    """A chunk of adaptive runs advanced together, one row per trial.

    Column i of ``picks`` and ``samples`` is pilot i+1's candidate index and
    received sample. Column i of ``peaks``, ``gains`` and ``phases`` is the
    estimate from the first i+2 pilots: its grid index, gain and phase.
    ``utilities`` holds those steps' read-only (trials x grid) utilities
    when they were kept, and is empty otherwise.
    """

    picks: np.ndarray
    samples: np.ndarray
    peaks: np.ndarray
    gains: np.ndarray
    phases: np.ndarray
    utilities: tuple[np.ndarray, ...]


def advance_trials(
    setup: AdaptiveSetup,
    coefficients: np.ndarray,
    g: np.ndarray,
    pilot_power: np.ndarray,
    noise: np.ndarray | None,
    num_pilots: int,
    *,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
    keep_utility: bool = False,
) -> AdaptiveTrials:
    """Run the adaptive loop for a chunk of trials, one pilot at a time.

    Row t of ``coefficients`` and ``g`` holds trial t's BS-RIS channel and
    user channel vector, ``pilot_power[t]`` its pilot power and row t of
    ``noise`` the noise of its ``num_pilots`` pilots in transmission order
    (``None``: noise-free). ``tables`` replaces the setup's projections
    and energies, which hold for unit-magnitude BS-RIS channels only.

    The starting pair is the same for every trial. After it, each pick
    gathers table rows: the sent candidate's projection and energy go
    into a (trials x grid) ``UtilityAccumulator``, the utility argmax
    gives the estimate with its gain and phase, and the unused candidate
    with the largest entry in the estimate's score row is sent next.
    Every step is elementwise or reduces within a row, so a trial's
    outcome does not depend on the chunk it runs in.
    """
    projections, energies = tables or (setup.projections, setup.projection_energy)
    trials, n = coefficients.shape
    rows = np.arange(trials)
    # row k of candidates[t] is optimal_configuration(h_t, angles[k]).phases
    # and signals[t, k] simulate_pilot_reception's noise-free value for it
    candidates = _phase_compensation(coefficients, setup.array)[:, None, :] * (
        setup.conj_responses
    )
    signals = np.sum(
        candidates * coefficients[:, None, :] * g[:, None, :], axis=-1
    ) * np.sqrt(pilot_power)[:, None]
    accumulator = UtilityAccumulator((trials, projections.shape[1]))
    used = np.zeros((trials, n), dtype=bool)
    picks = np.empty((trials, num_pilots), dtype=np.intp)
    samples = np.empty((trials, num_pilots), dtype=np.complex128)
    peaks = np.empty((trials, num_pilots - 1), dtype=np.intp)
    gains = np.empty((trials, num_pilots - 1))
    phases = np.empty((trials, num_pilots - 1))
    utilities: list[np.ndarray] = []

    def transmit(i: int, k: np.ndarray) -> None:
        """Send candidate k[t] as pilot i+1 of trial t."""
        used[rows, k] = True
        sample = signals[rows, k]
        if noise is not None:
            sample = sample + noise[:, i]
        accumulator.add(projections[k], sample, energies[k])
        picks[:, i] = k
        samples[:, i] = sample

    sines = np.sin(setup.angles)
    started = np.zeros(n, dtype=bool)
    for i, start in enumerate(INITIAL_SINES):
        distance = np.abs(sines - start)
        distance[started] = np.inf
        k = int(np.argmin(distance))
        started[k] = True
        transmit(i, np.full(trials, k))

    for i in range(1, num_pilots):
        utility = accumulator.utility()
        peak = np.argmax(utility, axis=1)
        peaks[:, i - 1] = peak
        gains[:, i - 1], phases[:, i - 1] = accumulator.gain_and_phase(
            peak, pilot_power
        )
        if keep_utility:
            utility.setflags(write=False)
            utilities.append(utility)
        if i + 1 < num_pilots:
            scores = setup.scores[peak]
            scores[used] = -np.inf
            transmit(i + 1, np.argmax(scores, axis=1))

    return AdaptiveTrials(picks, samples, peaks, gains, phases, tuple(utilities))


def pilot_noise(draws: np.ndarray, noise_std: float) -> np.ndarray:
    """Complex pilot noise from pairs of standard normals, one pilot per pair.

    Pilot i takes draws 2i and 2i+1 along the last axis as its real and
    imaginary parts, in the order ``simulate_pilot_reception`` draws them.
    """
    return (draws[..., 0::2] + 1j * draws[..., 1::2]) * (noise_std / np.sqrt(2.0))


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
    is transmitted next. A used mask over the candidates keeps each
    candidate to one pilot; ties go to the smallest angle. ``pilot_snr``
    is the per-element pilot SNR in linear scale (``inf`` for noise-free
    runs). ``setup`` shares the trial-independent arrays and tables
    between runs over the same array and grid; it is built here when
    absent.

    This is the one-trial call of ``advance_trials``, which the Monte
    Carlo harness runs on chunks of trials; the record keeps every
    step's grid utility. Every received sample equals
    ``simulate_pilot_reception`` on the sent row with ``rng``, bit for
    bit: all N noise-free values are computed once and the 2 *
    ``num_pilots`` normals of the per-pilot noise are drawn up front, in
    transmission order (none when ``pilot_snr`` is infinite).

    The setup's tables hold for unit-magnitude BS-RIS coefficients; when
    some | |h_n| - 1 | exceeds ``UNIT_MODULUS_TOL`` the run builds its
    own from |h| with the same table function. The estimate and utility
    at step i match ``parametric_ml_estimate`` and ``ml_utility_profile``
    on the first i pilots of the returned campaign to rounding, which
    shows only where the pilots barely illuminate a direction. A run with
    budget i returns exactly the first i steps of a longer run under the
    same noise draws.
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

    coefficients = bs_ris_channel.coefficients
    compensation = _phase_compensation(coefficients, array)
    pilot_power, noise_std = pilot_power_for_snr(
        pilot_snr, true_channel.gain, coefficients[None]
    )
    noise = None
    if noise_std > 0:
        noise = pilot_noise(rng.standard_normal((1, 2 * num_pilots)), noise_std)
    magnitudes = np.abs(coefficients)
    tables = None
    if np.max(np.abs(magnitudes - 1.0)) > UNIT_MODULUS_TOL:
        tables = _projection_tables(
            setup.conj_responses, magnitudes[:, None] * setup.steering
        )
    g = expand_channel(true_channel, array)
    run = advance_trials(
        setup, coefficients[None], g[None], pilot_power, noise, num_pilots,
        tables=tables, keep_utility=True,
    )

    picks, samples = run.picks[0], run.samples[0]
    config_angles = setup.angles[picks]
    steps = [AdaptiveStep(1, float(config_angles[0]), samples[0], None, None, None)]
    for i, peak in enumerate(run.peaks[0]):
        steps.append(AdaptiveStep(
            i + 2, float(config_angles[i + 1]), samples[i + 1],
            float(setup.grid_angles[peak]), float(run.gains[0, i]),
            float(run.phases[0, i]), run.utilities[i][0],
        ))
    final = steps[-1]
    campaign = PilotCampaign(
        compensation * setup.conj_responses[picks], samples, pilot_power[0],
        bs_ris_channel,
    )
    channel_estimate = (
        np.sqrt(final.gain_estimate)
        * np.exp(1j * final.phase_estimate)
        * array_response(array, final.aoa_estimate)
    )
    result = EstimationResult(
        final.aoa_estimate, final.gain_estimate, final.phase_estimate,
        channel_estimate,
    )
    return AdaptiveRunRecord(tuple(steps), campaign, result, grid)
