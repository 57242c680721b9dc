"""Shared helpers for the test suite.

It also holds the reference implementations that package code is checked
against: the batch ML, the pseudoinverse LS, the optimal configuration rows,
the physical end-to-end channel and the capacity.
"""

from typing import NamedTuple

import numpy as np
import pytest

from rispilot import ArrayModel, LosChannel, achievable_rate, array_response
from rispilot.adaptive import (
    INITIAL_SINES,
    AdaptiveSetup,
    AdaptiveTrials,
    advance_trials,
)
from rispilot.checks import circular_diff
from rispilot.errors import DegenerateDirectionError
from rispilot.estimators import UtilityAccumulator, closed_form_gain_and_phase
from rispilot.io import UTILITY_CSV_HEADER
from rispilot.model import TWO_PI, los_vector


class PilotCampaign(NamedTuple):
    """Pilot observations: configuration rows B, samples y, power, BS-RIS channel h.

    Row i of ``config_matrix`` and entry i of ``received`` are pilot i+1's;
    ``coefficients`` are the N complex entries of h.
    """

    config_matrix: np.ndarray
    received: np.ndarray
    pilot_power: float
    coefficients: np.ndarray

    @property
    def num_pilots(self) -> int:
        return len(self.received)

    @property
    def num_elements(self) -> int:
        return self.config_matrix.shape[1]


def reference_array_response(array: ArrayModel, aoa) -> np.ndarray:
    """a(aoa) as the complex ``exp`` of the imaginary phase -2j*pi*rho*sin(aoa)*n.

    The reference whose values ``array_response`` keeps entry for entry: a
    complex phase array, multiplied in this order and exponentiated in place.
    """
    aoa = np.asarray(aoa, dtype=float)
    indices = np.arange(array.num_elements)
    phase = -1j * TWO_PI * array.spacing_ratio * np.sin(aoa)[..., None] * indices
    return np.exp(phase, out=phase)


def candidate_rows(h: np.ndarray, angles, array: ArrayModel) -> np.ndarray:
    """Rows exp(-1j*arg(h)) * conj(a(angle)), one per angle, for BS-RIS channel h.

    Row k is the configuration optimal at ``angles[k]``: it cancels the
    BS-RIS phases and the arrival phase, so all element paths add coherently.
    """
    angles = np.asarray(angles, dtype=float)
    return np.exp(-1j * np.angle(h)) * np.conj(array_response(array, angles))


def channel_vector(channel: LosChannel, array: ArrayModel) -> np.ndarray:
    """Vector form sqrt(gain) * e^{j phase} * a(aoa) of one LOS channel."""
    return los_vector(array, channel.gain, channel.phase, channel.aoa)


def make_campaign(
    rows: np.ndarray,
    h: np.ndarray,
    channel: LosChannel,
    array: ArrayModel,
    pilot_power: float,
    noise_std: float = 0.0,
    rng=None,
) -> PilotCampaign:
    """Simulate a whole campaign at once: y = B D_h g sqrt(P_p) + w."""
    g = channel_vector(channel, array)
    received = rows @ (h * g) * np.sqrt(pilot_power)
    if noise_std > 0:
        rng = np.random.default_rng(rng)
        noise = rng.standard_normal(rows.shape[0]) + 1j * rng.standard_normal(
            rows.shape[0]
        )
        received = received + noise * (noise_std / np.sqrt(2.0))
    return PilotCampaign(rows, received, pilot_power, h)


def trial_campaign(setup: AdaptiveSetup, run: AdaptiveTrials, h, pilot_power):
    """The campaign of trial 0 of ``run``, which saw BS-RIS channel h.

    Its rows are what the trial sent, exp(-1j*arg(h)) times the sent
    candidates' conj(a(angle)), and its samples are the trial's.
    """
    rows = np.exp(-1j * np.angle(h)) * setup.conj_responses[run.picks[0]]
    return PilotCampaign(rows, run.samples[0], pilot_power, h)


def run_with_campaign(setup: AdaptiveSetup, h, g, pilot_power, noise):
    """One trial of ``advance_trials``, utilities kept, and the campaign of its pilots.

    The trial sees g and sends one pilot per entry of the 1-D unit
    ``noise`` (zeros for a noise-free run) at ``pilot_power``.
    """
    run = advance_trials(setup, g[None], pilot_power, noise[None], noise.size,
                         keep_utility=True)
    return run, trial_campaign(setup, run, h, pilot_power)


def accumulate(campaign: PilotCampaign, array: ArrayModel, angles):
    """An accumulator over ``angles`` fed the campaign's pilots in order.

    The batch route of the ML sums: pilot i adds row i of the campaign's
    whole matrix V = B D_h A and its |.|^2, for any h and rows.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    projections = _pilot_directions(campaign, array, angles)
    energies = np.abs(projections)
    np.square(energies, out=energies)
    accumulator = UtilityAccumulator(angles.size)
    for i, sample in enumerate(campaign.received):
        accumulator.add(projections, sample, energies, i)
    return accumulator


def ml_utility_profile(campaign: PilotCampaign, array: ArrayModel, angles):
    """ML objective |y^H B D_h a(angle)|^2 / ||B D_h a(angle)||^2 per angle, batch."""
    return accumulate(campaign, array, angles).utility()


def parametric_ml_estimate(campaign: PilotCampaign, array: ArrayModel, grid):
    """Batch grid-search ML estimate: the grid peak and the gain and phase there."""
    angles = grid.angles
    accumulator = accumulate(campaign, array, angles)
    peak = int(np.argmax(accumulator.utility()))
    gain, phase = closed_form_gain_and_phase(
        accumulator.inner[peak], accumulator.energy[peak], campaign.pilot_power
    )
    return LosChannel(gain, phase, angles[peak])


def least_squares_estimate(campaign: PilotCampaign) -> np.ndarray:
    """Non-parametric estimate D_h^{-1} B^+ y / sqrt(P_p), by pseudoinverse.

    Singular values below 1e-12 of the largest count as zero, so it also
    covers rank-deficient campaigns with fewer pilots than elements. The
    reference for ``simulate._least_squares_prefix_estimates``.
    """
    pinv = np.linalg.pinv(campaign.config_matrix, rcond=1e-12)
    unscaled = pinv @ campaign.received
    scale = np.sqrt(campaign.pilot_power) * campaign.coefficients
    return unscaled / scale


def effective_channel(config: np.ndarray, h: np.ndarray, g) -> complex:
    """Physical end-to-end channel sum_n h_n * g_n * exp(-1j*theta_n).

    ``config`` holds the configuration's unit entries exp(-1j*theta_n).
    """
    return complex(np.sum(config * h * g))


def capacity(coefficients, g, data_snr_scale: float):
    """Rate bound log2(1 + (sum_n |h_n g_n|)^2 * P_d / sigma^2), per trial row.

    The ``achievable_rate`` of the aligned sum, attained by the configuration
    theta_n = arg(h_n) + arg(g_n); leading axes give one capacity each.
    """
    return achievable_rate(np.sum(np.abs(coefficients * g), axis=-1), data_snr_scale)


def _pilot_directions(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """The whole matrix V = B D_h A at once, one column per angle."""
    return campaign.config_matrix @ (
        campaign.coefficients[:, None] * array_response(array, angles).T
    )


def direct_utility(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """ML objective per angle from the whole matrix V = B D_h A at once.

    A reference independent of the package's pilot-by-pilot accumulator:
    |y^H v|^2 / ||v||^2 per column v of V, and 0 where ||v|| is exactly 0.
    """
    directions = _pilot_directions(campaign, array, angles)
    inner = np.conj(campaign.received) @ directions
    energy = np.sum(np.abs(directions) ** 2, axis=0)
    return np.divide(
        np.abs(inner) ** 2, energy, out=np.zeros_like(energy), where=energy > 0.0
    )


def pilot_energy(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """||B D_h a(angle)||^2 per angle, from the whole matrix at once."""
    directions = _pilot_directions(campaign, array, angles)
    return np.sum(np.abs(directions) ** 2, axis=0)


#: A grid direction whose pilot energy is at most this share of the largest
#: one is near-null: its utility divides noise by almost nothing.
NEAR_NULL = 1e-9


def prefix_campaign(campaign: PilotCampaign, num_pilots: int) -> PilotCampaign:
    """The first ``num_pilots`` pilots of a campaign."""
    return campaign._replace(
        config_matrix=campaign.config_matrix[:num_pilots],
        received=campaign.received[:num_pilots],
    )


def prefix_results(setup: AdaptiveSetup, h, g, pilot_power, noise) -> list:
    """The results of the budget-2 to L one-trial runs on the first pilots' noise.

    A budget-i run on the first i entries of ``noise`` is the first i
    pilots of the budget-L run on all L of them, so entry i-2 is the
    estimate, the one gain and phase at its last peak included, that the
    longer run makes from its first i pilots.
    """
    results = []
    for pilots in range(2, noise.size + 1):
        run = advance_trials(setup, g[None], pilot_power, noise[None, :pilots],
                             pilots)
        aoa = setup.grid_angles[run.peaks[0, -1]]
        results.append(LosChannel(run.gains[0], run.phases[0], aoa))
    return results


def assert_steps_match_batch(run, campaign, array, grid, results) -> int:
    """Check every step of a one-trial adaptive run against the batch estimators.

    ``run`` and ``campaign`` are from ``run_with_campaign``, and ``results``
    its ``prefix_results``: entry i is the estimate, gain and phase
    included, from its first i+2 pilots. The loop projects
    through trial-independent tables, the batch estimators through D_h A
    per campaign, so the two agree to rounding: on each prefix the
    utilities agree to rtol 1e-12 (plus 1e-12 of the largest such utility,
    for values that cancel to ~0) on every direction with more than
    ``NEAR_NULL`` of the largest energy, and the angle, gain and phase
    agree at every step whose two argmaxes both lie on such directions.
    Returns how many steps were compared that way.
    """
    compared = 0
    aoa_estimates = grid.angles[run.peaks[0]]
    estimates = zip(run.utilities[:, 0], aoa_estimates, results, strict=True)
    # step i of the run is the estimate from the first i + 2 pilots
    for pilots, (utility, aoa, result) in enumerate(estimates, start=2):
        prefix = prefix_campaign(campaign, pilots)
        energy = pilot_energy(prefix, array, grid.angles)
        lit = energy > NEAR_NULL * np.max(energy)
        batch_utility = ml_utility_profile(prefix, array, grid.angles)
        np.testing.assert_allclose(
            utility[lit], batch_utility[lit],
            rtol=1e-12, atol=1e-12 * np.max(batch_utility[lit]),
        )
        if not (lit[np.argmax(utility)] and lit[np.argmax(batch_utility)]):
            continue
        batch = parametric_ml_estimate(prefix, array, grid)
        assert batch.aoa == aoa == result.aoa
        assert batch.gain == pytest.approx(result.gain, rel=1e-12)
        assert circular_diff(batch.phase, result.phase) < 1e-12
        compared += 1
    return compared


def coefficient_at(campaign: PilotCampaign, array: ArrayModel, aoa: float):
    """Closed-form (gain, phase) of the campaign at one fixed angle."""
    accumulator = accumulate(campaign, array, [aoa])
    gain, phase = closed_form_gain_and_phase(
        accumulator.inner[0], accumulator.energy[0], campaign.pilot_power
    )
    return float(gain), float(phase)


def utility_db(utility: np.ndarray) -> np.ndarray:
    """10 log10 of a utility profile, -inf where it is 0, as the trace CSV has it."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(utility)


def reference_utility_csv(record) -> str:
    """The utility-trace CSV text, one ``format(v, '.9g')`` per value and row.

    The reference for ``emit_utility_csv``, which renders whole stages at
    once and must write exactly these bytes.
    """
    lines = [UTILITY_CSV_HEADER]
    for pilots, utility in enumerate(record.utilities, start=2):
        with np.errstate(divide="ignore"):
            utility_db = 10.0 * np.log10(utility)
        peak = int(np.argmax(utility))
        for idx, (angle, value) in enumerate(zip(record.grid.angles, utility_db)):
            marker = 1 if idx == peak else 0
            lines.append(
                f"{pilots},{format(angle, '.9g')},{format(value, '.9g')},{marker}"
            )
    return "\n".join(lines) + "\n"


def simulate_pilot_reception(
    config_row: np.ndarray,
    h: np.ndarray,
    g,
    pilot_power: float,
    noise_std: float,
    rng,
) -> complex:
    """One received pilot sample theta^T D_h g sqrt(P_p) + w, drawn on its own.

    The noise w is circularly-symmetric complex Gaussian with variance
    ``noise_std**2`` (independent real and imaginary parts of variance
    ``noise_std**2 / 2``). With ``noise_std == 0`` nothing is drawn and
    the noise-free value is returned. The reference that the adaptive
    loop's up-front noise draws replay.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    signal = effective_channel(config_row, h, g) * np.sqrt(pilot_power)
    if noise_std == 0.0:
        return signal
    rng = np.random.default_rng(rng)
    re, im = rng.standard_normal(2)
    return signal + (re + 1j * im) * (noise_std / np.sqrt(2.0))


def reference_utility(accumulator: UtilityAccumulator) -> np.ndarray:
    """The accumulator's utility as a new array, by one masked division.

    The reference for both of ``UtilityAccumulator.utility``'s paths: the
    numerator re^2 + im^2, 0 wherever the energy is exactly 0, and a
    degenerate-direction error when no direction of a run carries energy.
    """
    energy = accumulator.energy
    lit = energy > 0.0
    if not lit.any(axis=-1).all():
        raise DegenerateDirectionError(
            "no probed direction carries pilot energy; the campaign cannot "
            "rank any angle"
        )
    value = accumulator.inner.real ** 2 + accumulator.inner.imag ** 2
    return np.divide(value, energy, out=np.zeros_like(energy), where=lit)


def reference_advance_trials(
    setup: AdaptiveSetup,
    channels: np.ndarray,
    pilot_power: float,
    noise: np.ndarray,
    num_pilots: int,
) -> AdaptiveTrials:
    """The adaptive loop with whole-chunk sums and a gain and phase per step.

    The reference for ``advance_trials``, which must give exactly these
    bytes: each pick gathers the sent candidates' table rows into (trials x
    grid) copies and adds conj(sample)[:, None] times them to the sums in
    one broadcast multiply, every step takes a new utility array (all are
    stacked into ``utilities``), and the gain and phase are taken at each
    step's peak as it is reached. Later picks rank candidates by the unit
    magnitudes |P|^T, formed here from the candidates and the grid, not by
    the setup's scores, so equal bytes show that the scores pick what |P|
    picks. The reference keeps the all-candidates ``signals`` table, every
    candidate's noise-free sample as a row-wise sum over ``channels`` (g),
    to which each pick adds its noise, so the core's per-pick
    sums are checked against it byte for byte; ``TestPilotReception``
    checks those samples against the physical model theta^T D_h g sqrt(P_p).
    """
    projections, energies = setup.projections, setup.projection_energy
    magnitudes = np.abs(
        setup.conj_responses @ array_response(setup.array, setup.grid_angles).T
    ).T
    trials, n = channels.shape
    rows = np.arange(trials)
    # signals[t, k] is candidate k's noise-free sample for trial t
    signals = np.sum(
        setup.conj_responses * channels[:, None, :], axis=-1
    ) * np.sqrt(pilot_power)
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
        sample = signals[rows, k] + noise[:, i]
        accumulator.inner += np.conj(sample)[..., None] * projections[k]
        accumulator.energy += energies[k]
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
        utility = reference_utility(accumulator)
        peak = np.argmax(utility, axis=1)
        peaks[:, i - 1] = peak
        at = np.asarray(peak)[..., None]
        inner = np.take_along_axis(accumulator.inner, at, axis=-1)[..., 0]
        energy = np.take_along_axis(accumulator.energy, at, axis=-1)[..., 0]
        gains[:, i - 1], phases[:, i - 1] = closed_form_gain_and_phase(
            inner, energy, pilot_power
        )
        utilities.append(utility)
        if i + 1 < num_pilots:
            scores = magnitudes[peak]
            scores[used] = -np.inf
            transmit(i + 1, np.argmax(scores, axis=1))

    return AdaptiveTrials(picks, samples, peaks, gains, phases, np.stack(utilities))


def local_peak_indices(values) -> np.ndarray:
    """Indices of strict local maxima, boundaries included."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    if v.size <= 1:
        return np.arange(v.size)
    left = np.empty(v.size, dtype=bool)
    right = np.empty(v.size, dtype=bool)
    left[0] = True
    left[1:] = v[1:] > v[:-1]
    right[-1] = True
    right[:-1] = v[:-1] > v[1:]
    return np.nonzero(left & right)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
