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
per experiment by ``build_adaptive_setup``, the one builder of the
tables laid out in ``AdaptiveSetup``. The configurations cancel the
BS-RIS phases, so for unit-magnitude coefficients candidate k's
projection onto grid direction j is the trial-independent
P[k, j] = conj(a_k)^T a_j, and |P|^2 is both the energy a pilot adds and
the score of the selection policy. Squaring is strictly increasing on
float magnitudes (sqrt(fl(x^2)) = x short of underflow), so |P|^2 ranks,
ties included, as |P| does. The build runs in place and keeps no
steering matrix: the grid responses are freed before the energies exist,
so it peaks at about 2 N x G complex arrays and holds about 1.5.

One core, ``advance_trials``, advances a chunk of trials one pilot at a
time as (trials x grid) arrays, with no matrix product per pick, on the
unit-magnitude |h| * g that every phase-cancelling configuration sees per
element. Every run, the single run too, calls it through one chunk
function, ``simulate._run_trials``, which also turns each trial's
up-front draws into its pilot noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, InsufficientPilotsError, InvalidInputError,
                     PoolExhaustedError)
from .estimators import AoaSearchGrid, UtilityAccumulator, closed_form_gain_and_phase
from .model import ArrayModel, _is_integral, array_response


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


#: Sines of the two starting beams: the quarter quantiles of [-1, 1],
#: far apart without being endfire. A beam at sine u0 has nulls where
#: N*rho*(u - u0) is a nonzero integer; at N = 40, rho = 1/4 both beams
#: have one at u = +-1, so neither lights the +-90 degree directions.
INITIAL_SINES = (-0.5, 0.5)


@dataclass(frozen=True, eq=False)
class AdaptiveSetup:
    """Trial-independent arrays of the adaptive loop for one array and grid.

    Row k of ``conj_responses`` is conj(a(angles[k])) for plausible angle k.
    Entry [k, j] of ``projections`` is P[k, j], candidate k's projection
    onto grid direction a(grid_angles[j]), and of ``projection_energy``
    |P[k, j]|^2. Row j of ``scores`` (G x N), the view
    ``projection_energy.T``, rates every candidate against the
    configuration optimal at grid angle j. Row i of ``start_scores``
    (2 x N) scores starting pilot i+1 as -|sin(angles) - INITIAL_SINES[i]|.
    Every array is read-only.
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
    directions = array_response(array, grid_angles).T
    projections = conj_responses @ directions
    del directions
    energies = np.abs(projections)
    np.square(energies, out=energies)
    start_scores = -np.abs(np.sin(angles) - np.array(INITIAL_SINES)[:, None])
    for values in (grid_angles, conj_responses, projections, energies, start_scores):
        values.setflags(write=False)
    return AdaptiveSetup(
        array, grid_angles, angles, conj_responses,
        projections, energies, energies.T, start_scores,
    )


@dataclass(frozen=True, eq=False)
class AdaptiveTrials:
    """A chunk of adaptive runs advanced together, one row per trial.

    Column i of ``picks`` and ``samples`` is pilot i+1's candidate index and
    received sample, and column i of ``peaks`` the grid index of the angle
    from the first i+2 pilots. ``utilities`` is the one read-only (steps x
    trials x grid) buffer the utilities were written to: entry i is the
    step behind column i of ``peaks`` when kept, else the one step holds
    the last. ``gains`` and ``phases`` hold one estimate per trial, from
    all pilots at the last peak.
    """

    picks: np.ndarray
    samples: np.ndarray
    peaks: np.ndarray
    gains: np.ndarray
    phases: np.ndarray
    utilities: np.ndarray


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
    noise: np.ndarray,
    num_pilots: int,
    *,
    keep_utility: bool = False,
) -> AdaptiveTrials:
    """Run the adaptive loop for a chunk of trials, one pilot at a time.

    Row t of ``channels`` is trial t's |h| * g, which the configurations
    see once they cancel the BS-RIS phases, and row t of the (trials x
    ``num_pilots``) ``noise`` the unit noise of its pilots in transmission
    order (zeros for a noise-free run). Every trial sends at the one
    ``pilot_power``: the setup's tables belong to |h| = 1, which fixes the
    power for a given SNR.

    Pilot i+1 of each trial sends the argmax of a score row with the
    trial's sent candidates at -inf: row i of ``setup.start_scores`` for
    the starting pair, then the row of ``setup.scores`` at the current
    estimate. Only that candidate's noise-free sample is formed, its noise
    added, and its table rows are added, read in place, to the trial's row
    of a (trials x grid) ``UtilityAccumulator``. From the second pilot on,
    each step writes its utility into one (steps x trials x grid) buffer,
    a step per entry when kept, else one entry reused; its argmax is the
    angle, and the sums at the last peak give each trial's gain and phase.
    Every step is elementwise or reduces within a row, so a trial's
    outcome does not depend on the chunk.
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
    steps = num_pilots - 1 if keep_utility else 1
    utilities = np.empty((steps, *accumulator.energy.shape))

    for i in range(num_pilots):
        if i < len(setup.start_scores):
            scores = np.tile(setup.start_scores[i], (trials, 1))
        else:
            scores = setup.scores[peak]
        scores[rows[:, None], picks[:, :i]] = -np.inf
        k = np.argmax(scores, axis=1)
        # candidate k's noisy sample sum_n |h_n| conj(a_k,n) g_n sqrt(P_p) + w
        sample = np.sum(setup.conj_responses[k] * channels, axis=-1) * amplitude
        sample += noise[:, i]
        accumulator.add(setup.projections, sample, setup.projection_energy, k)
        picks[:, i] = k
        samples[:, i] = sample
        if i >= 1:
            utility = accumulator.utility(out=utilities[(i - 1) % steps])
            peak = np.argmax(utility, axis=1)
            peaks[:, i - 1] = peak

    utilities.setflags(write=False)
    gains, phases = closed_form_gain_and_phase(
        accumulator.inner[rows, peak], accumulator.energy[rows, peak], pilot_power
    )
    return AdaptiveTrials(picks, samples, peaks, gains, phases, utilities)
