"""Shared helpers for the test suite."""

import numpy as np
import pytest

from rispilot import (
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    PilotCampaign,
    RisConfiguration,
    array_response,
    effective_channel,
    expand_channel,
    ml_utility_profile,
    parametric_ml_estimate,
)
from rispilot.adaptive import (
    INITIAL_SINES,
    AdaptiveSetup,
    AdaptiveTrials,
    _phase_compensation,
)
from rispilot.checks import candidate_rows, circular_diff  # noqa: F401
from rispilot.errors import DegenerateDirectionError
from rispilot.estimators import (
    UtilityAccumulator,
    _accumulate,
    closed_form_gain_and_phase,
)
from rispilot.io import UTILITY_CSV_HEADER


def make_campaign(
    rows: np.ndarray,
    h: KnownBsRisChannel,
    channel: LosChannel,
    array: ArrayModel,
    pilot_power: float,
    noise_std: float = 0.0,
    rng=None,
) -> PilotCampaign:
    """Simulate a whole campaign at once: y = B D_h g sqrt(P_p) + w."""
    g = expand_channel(channel, array)
    received = rows @ (h.coefficients * g) * np.sqrt(pilot_power)
    if noise_std > 0:
        rng = np.random.default_rng(rng)
        noise = rng.standard_normal(rows.shape[0]) + 1j * rng.standard_normal(
            rows.shape[0]
        )
        received = received + noise * (noise_std / np.sqrt(2.0))
    return PilotCampaign(rows, received, pilot_power, h)


def _pilot_directions(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """The whole matrix V = B D_h A at once, one column per angle."""
    return campaign.config_matrix @ (
        campaign.bs_ris_channel.coefficients[:, None] * array_response(array, angles).T
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
    return PilotCampaign(
        campaign.config_matrix[:num_pilots],
        campaign.received[:num_pilots],
        campaign.pilot_power,
        campaign.bs_ris_channel,
    )


def assert_steps_match_batch(record, array: ArrayModel, grid) -> int:
    """Check every step of an adaptive run against the batch estimators.

    The loop projects through trial-independent tables, the batch
    estimators through D_h A per campaign, so the two agree to rounding:
    on each prefix the utilities agree to rtol 1e-12 (plus 1e-12 of the
    largest such utility, for values that cancel to ~0) on every direction
    with more than ``NEAR_NULL`` of the largest energy, and the angle,
    gain and phase agree at every step whose two argmaxes both lie on such
    directions. Returns how many steps were compared that way.
    """
    compared = 0
    estimates = zip(
        record.utilities, record.aoa_estimates, record.gain_estimates,
        record.phase_estimates, strict=True,
    )
    # row i of the record is the estimate from the first i + 2 pilots
    for pilots, (utility, aoa, gain, phase) in enumerate(estimates, start=2):
        prefix = prefix_campaign(record.campaign, pilots)
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
        assert batch.aoa_estimate == aoa
        assert batch.gain_estimate == pytest.approx(gain, rel=1e-12)
        assert circular_diff(batch.phase_estimate, phase) < 1e-12
        compared += 1
    return compared


def coefficient_at(campaign: PilotCampaign, array: ArrayModel, aoa: float):
    """Closed-form (gain, phase) of the campaign at one fixed angle."""
    accumulator = _accumulate(campaign, array, [aoa])
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
    config_row: RisConfiguration,
    h: KnownBsRisChannel,
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
    """The accumulator's utility as a new array, lit directions by a full mask."""
    energy = accumulator.energy
    lit = energy > 0.0
    value = np.abs(accumulator.inner)
    np.square(value, out=value)
    if lit.all():  # the usual case: no masked division needed
        return np.divide(value, energy, out=value)
    if not lit.any(axis=-1).all():
        raise DegenerateDirectionError(
            "no probed direction carries pilot energy; the campaign cannot "
            "rank any angle"
        )
    return np.divide(value, energy, out=np.zeros_like(energy), where=lit)


def reference_advance_trials(
    setup: AdaptiveSetup,
    coefficients: np.ndarray,
    g: np.ndarray,
    pilot_power: np.ndarray,
    noise: np.ndarray | None,
    num_pilots: int,
    *,
    keep_utility: bool = False,
) -> AdaptiveTrials:
    """The adaptive loop with whole-chunk sums and a gain and phase per step.

    The reference for ``advance_trials``, which must give exactly these
    bytes: each pick gathers the sent candidates' table rows into (trials x
    grid) copies and adds conj(sample)[:, None] times them to the sums in
    one broadcast multiply, every step takes a new utility array, and the
    gain and phase are taken at each step's peak as it is reached.
    """
    projections, energies = setup.projections, setup.projection_energy
    trials, n = coefficients.shape
    rows = np.arange(trials)
    # row k of candidates[t] is optimal_configuration(h_t, angles[k]).phases
    # and signals[t, k] the noise-free sample theta^T D_h g sqrt(P_p) for it
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
        if keep_utility:
            utility.setflags(write=False)
            utilities.append(utility)
        if i + 1 < num_pilots:
            scores = setup.scores[peak]
            scores[used] = -np.inf
            transmit(i + 1, np.argmax(scores, axis=1))

    return AdaptiveTrials(picks, samples, peaks, gains, phases, tuple(utilities))


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
