"""Adaptive selection of surface configurations during pilot transmission.

Pilot-time configurations are drawn from N candidates, one per plausible
angle. Their sines are spaced 2/N apart, which makes the beams orthogonal
at half-wavelength spacing; at the reference quarter wavelength adjacent
beams overlap and only about 2*N*rho of them are well conditioned in the
visible region (see ``plausible_angles``). Every pilot sends the unsent
candidate with the largest entry in a score row: two constant rows pick
the starting pair, and each later row rates closeness (inner-product
magnitude) to the configuration optimal at the current angle estimate,
which all received pilots refresh after every transmission.

Everything that depends only on the array and the grid is built once
per experiment by ``build_adaptive_setup``: the grid steering matrix,
the candidates' array responses and four tables. The configurations
cancel the BS-RIS phases, so for unit-magnitude coefficients candidate
k's projection onto grid direction j is the trial-independent
P[k, j] = conj(a_k)^T a_j. The setup holds P and the energy |P|^2 a
pilot adds, from the estimators' ``_projection_tables``, and the score
tables, the whole selection policy: |P|^T (row j rates every candidate
against the configuration optimal at grid angle j) and two start rows.

One core, ``advance_trials``, advances a chunk of trials one pilot at a
time as (trials x grid) arrays, with no matrix product per pick.
``run_adaptive_estimation`` is its one-trial call; the Monte Carlo
harness calls it once per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionError, InsufficientPilotsError, InvalidInputError,
                     PoolExhaustedError)
from .estimators import (
    AoaSearchGrid,
    EstimationResult,
    PilotCampaign,
    UtilityAccumulator,
    _projection_tables,
    closed_form_gain_and_phase,
)
from .model import (
    UNIT_MODULUS_TOL,
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    RisConfiguration,
    array_response,
    expand_channel,
    los_vector,
)


def plausible_angles(num_elements: int) -> np.ndarray:
    """The N angles arcsin(2m/N) for m = -floor((N-1)/2), ..., floor(N/2).

    The sines are equally spaced over the half-plane. Two beams of an
    N-element ULA whose sines differ by d correlate as the Dirichlet
    kernel |sin(N*pi*rho*d) / sin(pi*rho*d)|, so at spacing ratio
    rho = 1/2 these N beams are exactly orthogonal (a DFT). At rho = 1/4
    adjacent beams keep about 2/pi of the peak, and at N = 40 the 40
    candidates have numerical rank 33 (relative tolerance 1e-9). For even
    N the last index reaches arcsin(1) = pi/2. The result is an
    increasing, read-only 1-D array.
    """
    if num_elements < 1:
        raise InvalidInputError("num_elements must be a positive integer")
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


#: Sines of the two starting beams: the quarter quantiles of [-1, 1],
#: far apart without being endfire. A beam at sine u0 has nulls where
#: N*rho*(u - u0) is a nonzero integer; at N = 40, rho = 1/4 both beams
#: have one at u = +-1, so neither lights the +-90 degree directions.
INITIAL_SINES = (-0.5, 0.5)


@dataclass(frozen=True, eq=False)
class AdaptiveSetup:
    """Trial-independent arrays of the adaptive loop for one array and grid.

    Column j of ``steering`` is a(grid_angles[j]); row k of
    ``conj_responses`` is conj(a(angles[k])) for plausible angle k.
    ``projections`` and ``projection_energy`` belong to the run's |h|: the
    ``_projection_tables`` of the candidates over |h| * steering (|h| = 1 in
    ``build_adaptive_setup``), entry [k, j] for candidate k, grid direction j.
    ``scores`` and ``start_scores`` depend on the configurations only: row j
    of ``scores`` (G x N) is |candidates @ conj(reference)| for the reference
    optimal at grid angle j, and row i of ``start_scores`` (2 x N) scores
    starting pilot i+1 as -|sin(angles) - INITIAL_SINES[i]|.
    """

    array: ArrayModel
    grid_angles: np.ndarray
    steering: np.ndarray
    angles: np.ndarray
    conj_responses: np.ndarray
    projections: np.ndarray
    projection_energy: np.ndarray
    scores: np.ndarray
    start_scores: np.ndarray


def build_adaptive_setup(array: ArrayModel, grid: AoaSearchGrid) -> AdaptiveSetup:
    """Compute the steering matrix, candidate responses and tables once, read-only."""
    grid_angles = grid.angles
    steering = array_response(array, grid_angles).T
    angles = plausible_angles(array.num_elements)
    conj_responses = np.conj(array_response(array, angles))
    projections, projection_energy = _projection_tables(conj_responses, steering)
    scores = np.ascontiguousarray(np.abs(projections).T)
    start_scores = -np.abs(np.sin(angles) - np.array(INITIAL_SINES)[:, None])
    for values in (grid_angles, steering, conj_responses, scores, start_scores):
        values.setflags(write=False)
    return AdaptiveSetup(
        array, grid_angles, steering, angles, conj_responses,
        projections, projection_energy, scores, start_scores,
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


@dataclass(frozen=True, eq=False)
class AdaptiveRunRecord:
    """Transcript of one adaptive run of L pilots, as the core's read-only arrays.

    Entry i of ``config_angles`` (L) is the angle of pilot i+1; the campaign
    holds its row and sample. One pilot cannot identify the angle, so entry i
    of ``aoa_estimates``, ``gain_estimates`` and ``phase_estimates`` (L-1) is
    the estimate from the first i+2 pilots, and row i of ``utilities``
    ((L-1) x grid) the ML objective over ``grid`` behind it.
    """

    config_angles: np.ndarray
    aoa_estimates: np.ndarray
    gain_estimates: np.ndarray
    phase_estimates: np.ndarray
    utilities: np.ndarray
    campaign: PilotCampaign
    result: EstimationResult
    grid: AoaSearchGrid


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
        raise InvalidInputError("pilot_snr must be positive (use inf for noise-free)")
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


def _check_budget(num_pilots: int, n: int) -> None:
    """Reject a budget of fewer than two pilots or more than the N candidates."""
    if num_pilots < 2:
        raise InsufficientPilotsError("at least two pilots are required")
    if num_pilots > n:
        raise PoolExhaustedError(
            f"budget {num_pilots} exceeds the {n} available configurations"
        )


def advance_trials(
    setup: AdaptiveSetup,
    coefficients: np.ndarray,
    g: np.ndarray,
    pilot_power: np.ndarray,
    noise: np.ndarray | None,
    num_pilots: int,
    *,
    keep_utility: bool = False,
) -> AdaptiveTrials:
    """Run the adaptive loop for a chunk of trials, one pilot at a time.

    Row t of ``coefficients`` and ``g`` holds trial t's BS-RIS channel and
    user channel vector, ``pilot_power[t]`` its pilot power and row t of
    ``noise`` the noise of its ``num_pilots`` pilots in transmission order
    (``None``: noise-free). The setup's tables must belong to the trials' |h|.

    Every pick is the argmax of a score row with the trial's sent
    candidates at -inf: a row of ``setup.start_scores`` for the starting
    pair, then the row of ``setup.scores`` at the current estimate. The
    candidate's table rows are added, read in place, to the trial's row of
    a (trials x grid) ``UtilityAccumulator``, whose utility argmax (in one
    work buffer unless kept) is the estimate and whose sums at the peaks
    give every gain and phase after the loop. Every step is elementwise or
    reduces within a row, so a trial's outcome does not depend on the chunk.
    """
    _check_budget(num_pilots, coefficients.shape[1])
    trials = coefficients.shape[0]
    rows = np.arange(trials)
    # row k of candidates[t] is optimal_configuration(h_t, angles[k]).phases
    # and signals[t, k] the noise-free sample theta^T D_h g sqrt(P_p) for it
    candidates = _phase_compensation(coefficients, setup.array)[:, None, :] * (
        setup.conj_responses
    )
    signals = np.sum(
        candidates * coefficients[:, None, :] * g[:, None, :], axis=-1
    ) * np.sqrt(pilot_power)[:, None]
    accumulator = UtilityAccumulator((trials, setup.grid_angles.size))
    picks = np.empty((trials, num_pilots), dtype=np.intp)
    samples = np.empty((trials, num_pilots), dtype=np.complex128)
    peaks = np.empty((trials, num_pilots - 1), dtype=np.intp)
    peak_inner = np.empty((trials, num_pilots - 1), dtype=np.complex128)
    peak_energy = np.empty((trials, num_pilots - 1))
    utilities: list[np.ndarray] = []
    work = None if keep_utility else np.empty(accumulator.energy.shape)

    def transmit(i: int, scores: np.ndarray) -> None:
        """Send trial t's best-scored candidate not yet sent as its pilot i+1."""
        scores[rows[:, None], picks[:, :i]] = -np.inf
        k = np.argmax(scores, axis=1)
        sample = signals[rows, k]
        if noise is not None:
            sample = sample + noise[:, i]
        accumulator.add(setup.projections, sample, setup.projection_energy, k)
        picks[:, i] = k
        samples[:, i] = sample

    for i, row in enumerate(setup.start_scores):
        transmit(i, np.tile(row, (trials, 1)))

    for i in range(1, num_pilots):
        utility = accumulator.utility(out=work)
        peak = np.argmax(utility, axis=1)
        peaks[:, i - 1] = peak
        peak_inner[:, i - 1] = accumulator.inner[rows, peak]
        peak_energy[:, i - 1] = accumulator.energy[rows, peak]
        if keep_utility:
            utility.setflags(write=False)
            utilities.append(utility)
        if i + 1 < num_pilots:
            transmit(i + 1, setup.scores[peak])

    gains, phases = closed_form_gain_and_phase(
        peak_inner, peak_energy, pilot_power[:, None]
    )
    return AdaptiveTrials(picks, samples, peaks, gains, phases, tuple(utilities))


def pilot_noise(draws: np.ndarray, noise_std: float) -> np.ndarray:
    """Complex pilot noise from pairs of standard normals, one pilot per pair.

    Pilot i takes draws 2i and 2i+1 along the last axis as its real and
    imaginary parts, each scaled to variance ``noise_std**2 / 2``.
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
) -> AdaptiveRunRecord:
    """Run the adaptive estimation loop for ``num_pilots`` pilots.

    Every pilot sends the candidate not yet sent with the largest entry in a
    score row (ties go to the smallest angle): the first two rows favour the
    candidates nearest in sine to ``INITIAL_SINES``, and each later row
    rates |candidate^H reference| for the configuration optimal at the angle
    and coefficient estimates from all pilots so far. ``pilot_snr`` is the
    per-element pilot SNR in linear scale (``inf`` for noise-free runs).

    This is the one-trial call of ``advance_trials`` on a setup built for
    ``array`` and ``grid``, whose tables are replaced by those of |h| when
    some | |h_n| - 1 | exceeds ``UNIT_MODULUS_TOL``. The 2 * ``num_pilots``
    normals of the per-pilot noise are drawn up front from ``rng``, in
    transmission order, as two per pilot drawn one pilot at a time would
    be (none when ``pilot_snr`` is infinite).

    The estimate and utility from the first i pilots match
    ``parametric_ml_estimate`` and ``ml_utility_profile`` on those pilots
    of the returned campaign to rounding, which shows only where the
    pilots barely illuminate a direction. A run with budget i returns
    exactly the first i pilots and i-1 estimates of a longer run under
    the same noise draws.
    """
    _check_budget(num_pilots, array.num_elements)
    if grid is None:
        grid = AoaSearchGrid()
    setup = build_adaptive_setup(array, grid)
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
    if np.max(np.abs(magnitudes - 1.0)) > UNIT_MODULUS_TOL:
        projections, energies = _projection_tables(
            setup.conj_responses, magnitudes[:, None] * setup.steering
        )
        setup = replace(setup, projections=projections, projection_energy=energies)
    g = expand_channel(true_channel, array)
    run = advance_trials(
        setup, coefficients[None], g[None], pilot_power, noise, num_pilots,
        keep_utility=True,
    )

    picks = run.picks[0]
    config_angles = setup.angles[picks]
    aoas = setup.grid_angles[run.peaks[0]]
    gains, phases = run.gains[0], run.phases[0]
    utilities = np.concatenate(run.utilities)
    for values in (config_angles, aoas, gains, phases, utilities):
        values.setflags(write=False)
    campaign = PilotCampaign(
        compensation * setup.conj_responses[picks], run.samples[0], pilot_power[0],
        bs_ris_channel,
    )
    aoa, gain, phase = float(aoas[-1]), float(gains[-1]), float(phases[-1])
    result = EstimationResult(aoa, gain, phase, los_vector(array, gain, phase, aoa))
    return AdaptiveRunRecord(
        config_angles, aoas, gains, phases, utilities, campaign, result, grid
    )
