"""Adaptive selection of surface configurations during pilot transmission.

Pilot-time configurations are drawn from N candidates, one per plausible
angle. Their sines are spaced 2/N apart, which makes the beams orthogonal
at half-wavelength spacing; at the reference quarter wavelength adjacent
beams overlap and only about 2*N*rho of them are well conditioned in the
visible region (see ``plausible_angles``). Every pilot sends the unsent
candidate with the largest entry in a score row: two constant rows pick
the starting pair, and each later row rates closeness (inner-product
energy) to the configuration optimal at the current angle estimate,
which all received pilots refresh after every transmission.

Everything that depends only on the array and the grid is built once
per experiment by ``build_adaptive_setup``: the candidates' array
responses and three tables. The configurations cancel the BS-RIS phases,
so for unit-magnitude coefficients candidate k's projection onto grid
direction j is the trial-independent P[k, j] = conj(a_k)^T a_j. The
setup holds P and the energy |P|^2 a pilot adds, from the estimators'
``_projection_tables``, and the selection policy: two start rows and the
view (|P|^2)^T, whose row j rates every candidate against the
configuration optimal at grid angle j. Squaring is strictly increasing
on float magnitudes (sqrt(fl(x^2)) = x short of underflow), so this
ranks, ties included, as |P| does. The build runs in place and keeps no
steering matrix: it peaks at about 2 N x G complex arrays and holds about 1.5.

One core, ``advance_trials``, advances a chunk of trials one pilot at a
time as (trials x grid) arrays, with no matrix product per pick, on the
|h| * g that every phase-cancelling configuration sees per element.
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
    _is_integral,
    array_response,
    expand_channel,
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
    num_elements = ArrayModel(num_elements).num_elements  # its positive-integer rule
    m = np.arange(-((num_elements - 1) // 2), num_elements // 2 + 1)
    angles = np.arcsin(2.0 * m / num_elements)
    angles.setflags(write=False)
    return angles


def _check_channel_size(coefficients: np.ndarray, array: ArrayModel) -> None:
    """Reject BS-RIS coefficients whose last axis does not match the array."""
    if coefficients.shape[-1] != array.num_elements:
        raise DimensionError(
            f"array has {array.num_elements} elements but the BS-RIS channel "
            f"has {coefficients.shape[-1]}"
        )


def _phase_compensation(coefficients: np.ndarray, array: ArrayModel) -> np.ndarray:
    """exp(-1j*arg(h_n)), after checking that h matches the array.

    ``coefficients`` may carry leading axes, one BS-RIS channel per row.
    """
    _check_channel_size(coefficients, array)
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

    Row k of ``conj_responses`` is conj(a(angles[k])) for plausible angle k.
    ``projections`` and ``projection_energy`` belong to the run's |h|: the
    ``_projection_tables`` of the candidates over the directions
    |h| * a(grid_angles[j]) (|h| = 1 in ``build_adaptive_setup``), entry
    [k, j] for candidate k, grid direction j. No steering matrix is kept.
    ``scores`` and ``start_scores`` depend on the configurations only: row j
    of ``scores`` (G x N) is |candidates @ conj(reference)|^2 at |h| = 1 for
    the reference optimal at grid angle j, the read-only view
    ``projection_energy.T`` as built, which a non-unit |h| run keeps. Row i
    of ``start_scores`` (2 x N) scores starting pilot i+1 as
    -|sin(angles) - INITIAL_SINES[i]|.
    """

    array: ArrayModel
    grid_angles: np.ndarray
    angles: np.ndarray
    conj_responses: np.ndarray
    projections: np.ndarray
    projection_energy: np.ndarray
    scores: np.ndarray
    start_scores: np.ndarray


def build_adaptive_setup(array: ArrayModel, grid: AoaSearchGrid) -> AdaptiveSetup:
    """Compute the candidate responses and tables once, in place, read-only."""
    grid_angles = grid.angles
    angles = plausible_angles(array.num_elements)
    conj_responses = np.conj(array_response(array, angles))
    projections, energies = _projection_tables(conj_responses, array, grid_angles)
    start_scores = -np.abs(np.sin(angles) - np.array(INITIAL_SINES)[:, None])
    for values in (grid_angles, conj_responses, start_scores):
        values.setflags(write=False)
    return AdaptiveSetup(
        array, grid_angles, angles, conj_responses,
        projections, energies, energies.T, start_scores,
    )


@dataclass(frozen=True, eq=False)
class AdaptiveRunRecord:
    """Transcript of one adaptive run of L pilots, as the core's read-only arrays.

    Entry i of ``config_angles`` (L) is the angle of pilot i+1 and entry i
    of ``samples`` (L) its received sample. One pilot cannot identify the
    angle, so entry i of ``aoa_estimates`` (L-1) is the angle from the first
    i+2 pilots, and row i of ``utilities`` ((L-1) x grid) the ML objective
    over ``grid`` behind it. ``result`` is the last angle with the one gain
    and phase there.
    """

    config_angles: np.ndarray
    aoa_estimates: np.ndarray
    utilities: np.ndarray
    samples: np.ndarray
    result: LosChannel
    grid: AoaSearchGrid


def pilot_power_for_snr(
    pilot_snr: float, gain: float, coefficients: np.ndarray
) -> float:
    """The one pilot power realizing a per-element pilot SNR over unit noise.

    The power is scaled so that pilot_power * gain * mean(|h_n|^2) equals
    ``pilot_snr`` for the one BS-RIS channel ``coefficients``. An infinite
    SNR (a noise-free run) maps to unit pilot power.
    """
    with np.errstate(all="ignore"):  # a power that is not positive and finite fails
        mean_h2 = np.mean(np.abs(coefficients) ** 2)
        power = pilot_snr / (gain * mean_h2 if gain > 0 else 1.0)
    if np.isinf(pilot_snr) and pilot_snr > 0:
        return 1.0
    if not (pilot_snr > 0 and 0 < power < np.inf):
        raise InvalidInputError("pilot_snr must be positive (use inf for noise-free) "
                                "and give a positive, finite pilot power")
    return power


@dataclass(frozen=True, eq=False)
class AdaptiveTrials:
    """A chunk of adaptive runs advanced together, one row per trial.

    Column i of ``picks`` and ``samples`` is pilot i+1's candidate index and
    received sample, and column i of ``peaks`` the grid index of the angle
    from the first i+2 pilots. ``utilities`` holds those steps' read-only
    (trials x grid) utilities when kept (else nothing), and ``gains`` and
    ``phases`` one estimate per trial, from all pilots at the last peak.
    """

    picks: np.ndarray
    samples: np.ndarray
    peaks: np.ndarray
    gains: np.ndarray
    phases: np.ndarray
    utilities: tuple[np.ndarray, ...]


def _check_budget(num_pilots: int, n: int) -> int:
    """The budget as an int; reject a non-integral one, or one below 2 or above N."""
    if not _is_integral(num_pilots):
        raise InvalidInputError(f"budget {num_pilots!r} must be an integer")
    if num_pilots < 2:
        raise InsufficientPilotsError("at least two pilots are required")
    if num_pilots > n:
        raise PoolExhaustedError(
            f"budget {num_pilots} exceeds the {n} available configurations"
        )
    return int(num_pilots)


def advance_trials(
    setup: AdaptiveSetup,
    channels: np.ndarray,
    pilot_power: float,
    noise: np.ndarray | None,
    num_pilots: int,
    *,
    keep_utility: bool = False,
) -> AdaptiveTrials:
    """Run the adaptive loop for a chunk of trials, one pilot at a time.

    Row t of ``channels`` is trial t's |h| * g, which the configurations
    see once they cancel the BS-RIS phases, and row t of ``noise`` the unit
    noise of its ``num_pilots`` pilots in transmission order (``None``:
    noise-free). Every trial sends at the one ``pilot_power``: the setup's
    tables belong to one |h|, which fixes the power for a given SNR.

    Pilot i+1 of each trial sends the argmax of a score row with the
    trial's sent candidates at -inf: row i of ``setup.start_scores`` for
    the starting pair, then the row of ``setup.scores`` at the current
    estimate. Only that candidate's noise-free sample is formed, and its
    table rows are added, read in place, to the trial's row of a (trials x
    grid) ``UtilityAccumulator``, whose utility argmax (in one work buffer
    unless kept) is the angle and whose sums at the last peak give each
    trial's gain and phase. Every step is elementwise or reduces within a
    row, so a trial's outcome does not depend on the chunk.
    """
    trials, n = channels.shape
    if n != setup.angles.size:
        raise DimensionError(f"array has {setup.angles.size} elements, channels {n}")
    num_pilots = _check_budget(num_pilots, n)
    rows = np.arange(trials)
    amplitude = np.sqrt(pilot_power)
    accumulator = UtilityAccumulator((trials, setup.grid_angles.size))
    picks = np.empty((trials, num_pilots), dtype=np.intp)
    samples = np.empty((trials, num_pilots), dtype=np.complex128)
    peaks = np.empty((trials, num_pilots - 1), dtype=np.intp)
    utilities: list[np.ndarray] = []
    work = None if keep_utility else np.empty(accumulator.energy.shape)

    for i in range(num_pilots):
        if i < len(setup.start_scores):
            scores = np.tile(setup.start_scores[i], (trials, 1))
        else:
            scores = setup.scores[peak]
        scores[rows[:, None], picks[:, :i]] = -np.inf
        k = np.argmax(scores, axis=1)
        # candidate k's noise-free sample sum_n |h_n| conj(a_k,n) g_n sqrt(P_p)
        sample = np.sum(setup.conj_responses[k] * channels, axis=-1) * amplitude
        if noise is not None:
            sample = sample + noise[:, i]
        accumulator.add(setup.projections, sample, setup.projection_energy, k)
        picks[:, i] = k
        samples[:, i] = sample
        if i >= 1:
            utility = accumulator.utility(out=work)
            peak = np.argmax(utility, axis=1)
            peaks[:, i - 1] = peak
            if keep_utility:
                utility.setflags(write=False)
                utilities.append(utility)

    gains, phases = closed_form_gain_and_phase(
        accumulator.inner[rows, peak], accumulator.energy[rows, peak], pilot_power
    )
    return AdaptiveTrials(picks, samples, peaks, gains, phases, tuple(utilities))


def pilot_noise(draws: np.ndarray) -> np.ndarray:
    """Unit-power complex pilot noise from standard normals, one pilot per pair.

    Pilot i takes draws 2i and 2i+1 along the last axis as its real and
    imaginary parts, each scaled to variance 1/2: the noise power is the
    unit that every pilot SNR is counted in.
    """
    return (draws[..., 0::2] + 1j * draws[..., 1::2]) * (1.0 / np.sqrt(2.0))


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
    rates |candidate^H reference|^2 for the configuration optimal at the
    angle and coefficient estimates from all pilots so far. ``pilot_snr`` is
    the per-element pilot SNR in linear scale (``inf`` for noise-free runs).

    This is the one-trial call of ``advance_trials`` on a setup built for
    ``array`` and ``grid``, whose P and |P|^2 are replaced by those of |h|
    when some | |h_n| - 1 | exceeds ``UNIT_MODULUS_TOL``; the budget, the
    channel's length and the pilot power are checked before the setup is
    built. The 2 * ``num_pilots`` normals of the per-pilot noise are drawn up
    front from ``rng``, in transmission order, as two per pilot drawn one
    pilot at a time would be (none when ``pilot_snr`` is infinite).

    The angle and utility from the first i pilots match a grid-search ML
    estimate over those pilots' rows exp(-1j*arg(h)) * conj(a(config angle))
    and samples to rounding, which shows only where the pilots barely
    illuminate a direction. A run with budget i returns exactly the first i
    pilots and i-1 angles of a longer run under the same noise draws: its
    result is that run's estimate from i pilots.
    """
    num_pilots = _check_budget(num_pilots, array.num_elements)
    coefficients = bs_ris_channel.coefficients
    _check_channel_size(coefficients, array)
    pilot_power = pilot_power_for_snr(pilot_snr, true_channel.gain, coefficients)
    if grid is None:
        grid = AoaSearchGrid()
    setup = build_adaptive_setup(array, grid)
    rng = np.random.default_rng(rng)

    noise = None
    if np.isfinite(pilot_snr):
        noise = pilot_noise(rng.standard_normal((1, 2 * num_pilots)))
    magnitudes = np.abs(coefficients)
    if np.max(np.abs(magnitudes - 1.0)) > UNIT_MODULUS_TOL:
        setup = replace(setup, projections=None)  # unit |P|^2 stays as the scores
        projections, energies = _projection_tables(
            setup.conj_responses, array, setup.grid_angles, magnitudes
        )
        setup = replace(setup, projections=projections, projection_energy=energies)
    channels = magnitudes * expand_channel(true_channel, array)
    run = advance_trials(
        setup, channels[None], pilot_power, noise, num_pilots, keep_utility=True
    )

    config_angles = setup.angles[run.picks[0]]
    aoas = setup.grid_angles[run.peaks[0]]
    utilities = np.concatenate(run.utilities)
    samples = run.samples[0]
    for values in (config_angles, aoas, utilities, samples):
        values.setflags(write=False)
    return AdaptiveRunRecord(
        config_angles, aoas, utilities, samples,
        LosChannel(run.gains[0], run.phases[0], aoas[-1]), grid,
    )
