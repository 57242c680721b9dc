"""Monte Carlo experiment harness.

Power bookkeeping is normalized: unit noise power, unit channel gain and
unit-magnitude BS-RIS coefficients, so the per-element data SNR equals the
data power, the pilot power sits a fixed dB offset above it, and all runs
share one capacity and the adaptive setup's tables. Every configuration
cancels the BS-RIS phases, so pilots and data see |h| * g. Every run is a
trial of ``_run_trials`` on its own seed, the one entry into the adaptive
core: the Monte Carlo seeds trial K with a counter-based split, and the
single run behind ``utility-trace`` and ``estimate-once`` is one trial on
``SeedSequence(rng_seed)``. A trial draws all its values up front, and
everything after the draws runs a chunk of trials at once, so its outcome
depends neither on execution order nor on its chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .adaptive import (
    AdaptiveSetup,
    AdaptiveTrials,
    _check_budget,
    advance_trials,
    build_adaptive_setup,
)
from .errors import AngleDomainError, ConfigValidationError, InvalidInputError
from .estimators import AoaSearchGrid, dft_rows, least_squares_prefix_estimates
from .model import (
    TWO_PI,
    ArrayModel,
    LosChannel,
    achievable_rate,
    array_response,
    los_vector,
    _draw_unit_coefficients,
    _is_integral,
)

DEFAULT_PILOT_BUDGETS = (2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40)

#: Most complex entries of each N x G or N x N up-front array, of which the
#: setup holds ~1.5 and peaks at ~2: 2**26 entries are 1 GiB (reference 80 000).
MAX_ARRAY_ENTRIES = 2**26

#: Most complex entries in one (trials x grid) or (trials x N x N) array of
#: a trial chunk. At 40 000 entries the reference config advances 20 trials
#: at a time, so the per-pilot numpy calls amortize over twice the trials of
#: 20 000, and the chunk's ~1.3 MB of per-trial arrays still fit a 2 MiB L2.
CHUNK_ENTRIES = 40_000


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigValidationError(f"{name}: {message}")


def _owned(keys: str, owner: Callable, *args):
    """``owner(*args)``, its input error re-raised under the config ``keys``."""
    try:
        return owner(*args)
    except InvalidInputError as exc:
        raise ConfigValidationError(f"{keys}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a rate-curve or utility-trace experiment needs.

    Angle intervals are radians here; the CLI converts from degrees.
    Unset ``pilot_budgets`` are the ``DEFAULT_PILOT_BUDGETS`` up to N.
    """

    num_elements: int = 40
    spacing_ratio: float = 0.25
    data_snr_db: float = 0.0
    pilot_snr_offset_db: float = 10.0
    pilot_budgets: tuple[int, ...] | None = None
    num_trials: int = 2000
    ue_angle_range: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    search_domain: tuple[float, float] = (-math.pi / 2, math.pi / 2)
    grid_points: int = 2000
    rng_seed: int = 42

    def _set_integer(self, name: str, low: int, high: float, message: str) -> None:
        value = getattr(self, name)
        _require(_is_integral(value) and low <= value < high, name, message)
        object.__setattr__(self, name, int(value))

    def __post_init__(self) -> None:
        # at least two pilots, each from its own candidate, make an estimate
        self._set_integer("num_elements", 2, math.inf, "must be an integer, at least 2")
        _owned("num_elements, spacing_ratio", self.array)
        # inf or nan dB values fail here too, and so does a power so small that
        # 1 + N^2 P_d rounds to 1, where the capacity the ratios divide by
        # is no longer resolved
        data_power, pilot_power = snr_to_powers(self)
        _require(
            data_power < math.inf and 1.0 + data_power * self.num_elements**2 > 1.0,
            "data_snr_db",
            "must give a finite power whose capacity log2(1 + N^2 P_d) is above 0",
        )
        _require(
            0 < pilot_power < math.inf,
            "pilot_snr_offset_db",
            "must give a positive, finite pilot power",
        )
        fitting = [v for v in DEFAULT_PILOT_BUDGETS if v <= self.num_elements]
        budgets = fitting if self.pilot_budgets is None else self.pilot_budgets
        n = self.num_elements
        budgets = tuple(_owned("pilot_budgets", _check_budget, v, n) for v in budgets)
        _require(len(budgets) > 0, "pilot_budgets", "must not be empty")
        _require(
            len(set(budgets)) == len(budgets), "pilot_budgets", "must be distinct"
        )
        object.__setattr__(self, "pilot_budgets", budgets)
        self._set_integer("num_trials", 1, math.inf, "must be a positive integer")
        # the float64 rates of all trials get the same 1 GiB
        _require(
            self.num_trials * 2 * len(budgets) <= 2 * MAX_ARRAY_ENTRIES,
            "num_trials * 2 * len(pilot_budgets)",
            f"must be at most {2 * MAX_ARRAY_ENTRIES} (1 GiB of float64 rates)",
        )
        domain = tuple(float(v) for v in self.search_domain)
        _require(len(domain) == 2, "search_domain", "must be a pair")
        object.__setattr__(self, "search_domain", domain)
        grid = _owned("search_domain, grid_points", self.grid)
        object.__setattr__(self, "grid_points", grid.num_points)
        ue_range = tuple(float(v) for v in self.ue_angle_range)
        _require(len(ue_range) == 2 and ue_range[0] < ue_range[1], "ue_angle_range",
                 "must be an increasing pair")
        _require(
            domain[0] <= ue_range[0] and ue_range[1] <= domain[1],
            "ue_angle_range",
            "must be contained in the search domain",
        )
        object.__setattr__(self, "ue_angle_range", ue_range)
        _require(
            self.num_elements * max(self.num_elements, self.grid_points)
            <= MAX_ARRAY_ENTRIES,
            "num_elements * max(num_elements, grid_points)",
            f"must be at most {MAX_ARRAY_ENTRIES} (1 GiB of complex entries per array)",
        )
        self._set_integer("rng_seed", 0, 2**64, "must be an unsigned 64-bit integer")

    def array(self) -> ArrayModel:
        return ArrayModel(self.num_elements, self.spacing_ratio)

    def grid(self) -> AoaSearchGrid:
        return AoaSearchGrid(*self.search_domain, self.grid_points)


def _db_to_linear(db: float) -> float:
    """10**(db/10), with inf where the power overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def snr_to_powers(config: ExperimentConfig) -> tuple[float, float]:
    """The configured SNRs as linear (data_power, pilot_power).

    With noise power 1, unit-magnitude BS-RIS coefficients and unit
    channel gain, the per-element data SNR equals the data power, and
    the pilot power sits ``pilot_snr_offset_db`` above it.
    """
    data_power = _db_to_linear(config.data_snr_db)
    return data_power, data_power * _db_to_linear(config.pilot_snr_offset_db)


@dataclass(frozen=True)
class RateCurvePoint:
    """Aggregated rates for one pilot budget."""

    pilot_budget: int
    mean_rate_ml: float
    mean_rate_ls: float
    mean_capacity: float
    ratio_ml: float
    ratio_ls: float
    trial_count: int
    stderr_ml: float
    stderr_ls: float

    def __post_init__(self) -> None:
        # An exact estimate's rate equals the capacity up to rounding, since
        # the two sum the same paths in different orders; a single trial has
        # no stderr to absorb that, so the bound allows 1e-12 of the capacity.
        bound = self.mean_capacity * (1.0 + 1e-12)
        for name, mean, stderr in (
            ("mean_rate_ml", self.mean_rate_ml, self.stderr_ml),
            ("mean_rate_ls", self.mean_rate_ls, self.stderr_ls),
        ):
            if not 0.0 <= mean <= bound + 3.0 * stderr:
                raise InvalidInputError(
                    f"{name}={mean} violates the capacity bound "
                    f"{self.mean_capacity} (+3 stderr)"
                )


@dataclass(frozen=True, eq=False)
class TrialRates:
    """Raw per-trial rates behind a rate curve.

    ``rate_ml`` and ``rate_ls`` have one row per pilot budget (in config
    order) and one column per trial; ``capacity`` is a float, the one
    capacity log2(1 + N^2 P_d) that every trial shares.
    """

    pilot_budgets: tuple[int, ...]
    rate_ml: np.ndarray
    rate_ls: np.ndarray
    capacity: float


def _phase_matched_rate(channels: np.ndarray, estimated: np.ndarray, data_power: float):
    """Rate of any estimate, ML or LS: the surface takes the estimate's phases.

    The configuration cancels the BS-RIS phases, so it sums ``channels``,
    |h| * g, times exp(-1j*arg(estimated_n)); a gain or common phase of
    the estimate drops out. The vectors run along the last axis; leading
    axes broadcast and give one rate each.
    """
    eff = np.sum(channels * np.exp(-1j * np.angle(estimated)), axis=-1)
    return achievable_rate(eff, data_power)


def _trial_chunk(num_elements: int, grid_points: int) -> int:
    """Trials of one chunk, which every stage after the draws takes at once.

    As many as keep each per-trial array of the chunk within
    ``CHUNK_ENTRIES``, and at least one. Larger chunks amortize the
    per-pilot numpy calls over more trials but fall out of cache. A
    one-trial chunk holds the arrays that ``MAX_ARRAY_ENTRIES`` already
    bounds, so no chunk exceeds that bound either.
    """
    per_trial = max(grid_points, num_elements * num_elements)
    return max(1, CHUNK_ENTRIES // per_trial)


def _capacity(config: ExperimentConfig) -> float:
    """log2(1 + N^2 P_d): |h_n| = |g_n| = 1, so every trial's aligned sum is N."""
    return achievable_rate(float(config.num_elements), snr_to_powers(config)[0])


def pilot_noise(draws: np.ndarray) -> np.ndarray:
    """Unit-power complex pilot noise from standard normals, one pilot per pair.

    Pilot i takes draws 2i and 2i+1 along the last axis as its real and
    imaginary parts, each scaled to variance 1/2: the noise power is the
    unit that every pilot SNR is counted in.
    """
    return (draws[..., 0::2] + 1j * draws[..., 1::2]) * (1.0 / np.sqrt(2.0))


def _run_trials(
    config: ExperimentConfig, setup: AdaptiveSetup, dft: np.ndarray, seeds,
    aoa: float | None = None, keep_utility: bool = False,
) -> tuple[np.ndarray, AdaptiveTrials]:
    """Run one trial per seed on the experiment's setup and DFT rows.

    A trial draws from its own generator, in this order: user angle (unless
    ``aoa`` fixes it), reference phase, BS-RIS channel, 4L normals (the
    adaptive loop's 2L pilot normals, paired by ``pilot_noise``, then the
    least-squares noise's L real and L imaginary parts) and a permutation
    whose first L entries pick its DFT columns, L the largest budget. The
    rest runs on (trials x ...) arrays, each trial's row its own:
    ``advance_trials`` on |h| * g at the configured P_p, the baseline's
    prefix estimates (budget L takes the first L columns and noise samples
    of one campaign) and one phase-matched rate call for both, the ML
    estimate as the bare steering vector at its budget's peak.
    Returns the ML and LS rates, (2 x budgets x trials), and the run.
    """
    data_power, pilot_power = snr_to_powers(config)
    budgets = config.pilot_budgets
    max_budget = max(budgets)
    n = config.num_elements
    # budget L reads row L - 1 of the LS prefix estimates and the
    # adaptive estimate from L pilots, column L - 2 of the run's peaks
    last = np.array(budgets) - 1

    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        angle = rng.uniform(*config.ue_angle_range) if aoa is None else aoa
        omega = rng.uniform(0.0, TWO_PI)
        h = _draw_unit_coefficients(n, rng)
        normals = rng.standard_normal(4 * max_budget)
        draws.append((angle, omega, h, normals, rng.permutation(n)[:max_budget]))
    aoas, omegas, h_rows, normals, columns = map(np.array, zip(*draws))
    bounds = [2 * max_budget, 3 * max_budget]
    loop_normals, ls_real, ls_imag = np.split(normals, bounds, axis=1)
    g_rows = los_vector(setup.array, 1.0, omegas, aoas)
    channels = np.abs(h_rows) * g_rows

    # unit |h| and gain: both estimators send at the configured P_p
    run = advance_trials(setup, channels, pilot_power, pilot_noise(loop_normals),
                         max_budget, keep_utility=keep_utility)
    ml_angles = setup.grid_angles[run.peaks[:, last - 1]]
    ml_estimates = array_response(setup.array, ml_angles)

    rows = dft[columns]
    signal = h_rows * g_rows * np.sqrt(pilot_power)
    ls_noise = (ls_real + 1j * ls_imag) / np.sqrt(2.0)
    received = (rows @ signal[..., None])[..., 0] + ls_noise
    ls_estimates = least_squares_prefix_estimates(rows, received, h_rows, pilot_power)

    estimates = np.stack([ml_estimates, ls_estimates[:, last]])
    rates = _phase_matched_rate(channels[:, None, :], estimates, data_power)
    return rates.transpose(0, 2, 1), run


def collect_trial_rates(
    config: ExperimentConfig,
    progress: Callable[[int, int], None] | None = None,
) -> TrialRates:
    """Run all Monte Carlo trials and keep the per-trial rates.

    Trial K is ``_run_trials`` on ``spawn()[K]`` of the master seed, run a chunk
    at a time on one setup and one set of DFT rows; all trials share one
    capacity. ``progress(done, total)`` is called after every chunk.
    """
    setup = build_adaptive_setup(config.array(), config.grid())
    dft = dft_rows(config.num_elements)
    trials = config.num_trials
    chunk = _trial_chunk(config.num_elements, config.grid_points)
    # the ML and the LS rate of each budget and trial
    rates = np.zeros((2, len(config.pilot_budgets), trials))

    # spawns continue one sequence of children: chunk by chunk, the seeds are
    # those of one spawn(trials), but only a chunk's seeds are ever alive
    root = np.random.SeedSequence(config.rng_seed)
    for begin in range(0, trials, chunk):
        members = slice(begin, min(begin + chunk, trials))
        seeds = root.spawn(members.stop - begin)
        rates[..., members], _ = _run_trials(config, setup, dft, seeds)
        if progress is not None:
            progress(members.stop, trials)
    return TrialRates(config.pilot_budgets, rates[0], rates[1], _capacity(config))


def _mean_and_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and stderr along the last (trial) axis, as on the row alone."""
    mean, count = np.mean(values, axis=-1), values.shape[-1]
    if count < 2:  # one trial: no spread to estimate
        return mean, np.zeros_like(mean)
    return mean, np.std(values, axis=-1, ddof=1) / np.sqrt(count)


def run_rate_experiment(
    config: ExperimentConfig,
    progress: Callable[[int, int], None] | None = None,
) -> list[RateCurvePoint]:
    """Average rates per pilot budget, sorted by ascending budget."""
    trials = collect_trial_rates(config, progress)
    means, stderrs = _mean_and_stderr(np.stack([trials.rate_ml, trials.rate_ls]))
    ratios = means / trials.capacity
    # one (ml, ls) column per budget, as Python floats
    columns = zip(*means.tolist(), *ratios.tolist(), *stderrs.tolist())
    points = [
        RateCurvePoint(budget, mean_ml, mean_ls, trials.capacity, ratio_ml, ratio_ls,
                       config.num_trials, stderr_ml, stderr_ls)
        for budget, (mean_ml, mean_ls, ratio_ml, ratio_ls, stderr_ml, stderr_ls)
        in zip(trials.pilot_budgets, columns)
    ]
    return sorted(points, key=lambda point: point.pilot_budget)


@dataclass(frozen=True, eq=False)
class SingleRunSummary:
    """One seeded adaptive run of L pilots, as read-only arrays, scored against capacity.

    Entry i of ``config_angles`` (L) is the angle of pilot i+1. One pilot
    cannot identify the angle, so entry i of ``aoa_estimates`` (L-1) is the
    angle from the first i+2 pilots, and row i of ``utilities`` ((L-1) x
    grid) the ML objective over ``grid`` behind it. ``result`` is the last
    angle with the one gain and phase there.
    """

    config_angles: np.ndarray
    aoa_estimates: np.ndarray
    utilities: np.ndarray
    result: LosChannel
    grid: AoaSearchGrid
    achieved_rate: float
    capacity_value: float

    @property
    def ratio(self) -> float:
        return self.achieved_rate / self.capacity_value


def run_single_estimate(
    config: ExperimentConfig, true_aoa: float, num_pilots: int
) -> SingleRunSummary:
    """Run one Monte Carlo trial from ``true_aoa`` and score its estimate.

    The trial is ``_run_trials`` at budget ``num_pilots`` on the seed
    ``SeedSequence(rng_seed)``, its utilities kept for ``utility-trace``. The
    angle and budget are checked before the setup is built.
    """
    lo, hi = config.ue_angle_range
    if not lo <= true_aoa <= hi:
        raise AngleDomainError(f"true angle {true_aoa!r} rad lies outside the "
                               f"configured UE range [{lo}, {hi}]")
    num_pilots = _check_budget(num_pilots, config.num_elements)
    grid = config.grid()
    setup = build_adaptive_setup(config.array(), grid)
    rates, run = _run_trials(
        replace(config, pilot_budgets=(num_pilots,)), setup,
        dft_rows(config.num_elements), [np.random.SeedSequence(config.rng_seed)],
        aoa=true_aoa, keep_utility=True,
    )
    config_angles = setup.angles[run.picks[0]]
    aoas = setup.grid_angles[run.peaks[0]]
    for values in (config_angles, aoas):
        values.setflags(write=False)
    return SingleRunSummary(
        config_angles, aoas, run.utilities[:, 0],
        LosChannel(run.gains[0], run.phases[0], aoas[-1]), grid,
        float(rates[0, 0, 0]), _capacity(config),
    )
