"""Monte Carlo experiment harness.

Power bookkeeping is normalized: unit noise power, unit channel gain,
unit-magnitude BS-RIS coefficients. The per-element data SNR then equals
the data power directly and the pilot power is a fixed dB offset above
it. The BS-RIS channel is always ``random_bs_ris_channel``, whose unit
magnitudes let every trial share the adaptive setup's projection tables.
Every trial draws its own random generator from the master seed with a
counter-based split and draws all its values from it up front; the
adaptive estimation then runs a chunk of trials at once, and a trial's
outcome depends neither on execution order nor on its chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .adaptive import (
    AdaptiveRunRecord,
    advance_trials,
    build_adaptive_setup,
    pilot_noise,
    pilot_power_for_snr,
    run_adaptive_estimation,
)
from .errors import AngleDomainError, ConfigValidationError
from .estimators import AoaSearchGrid, PilotCampaign, least_squares_prefix_estimates
from .model import (
    TWO_PI,
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    achievable_rate,
    array_response,
    capacity,
    expand_channel,
    random_bs_ris_channel,
    _is_integral,
)

DEFAULT_PILOT_BUDGETS = (2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40)

#: Most complex entries of the N x G and N x N arrays allocated before the
#: first trial: 2**26 entries are 1 GiB; the reference config needs 80 000.
MAX_ARRAY_ENTRIES = 2**26

#: Most complex entries in one (trials x grid) or (trials x N x N) array of
#: a trial chunk. A few such arrays are live per pilot; at 20 000 entries
#: (320 KB) they stay in a 2 MB L2 cache, and the reference config
#: advances 10 trials at a time.
CHUNK_ENTRIES = 20_000


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigValidationError(f"{name}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a rate-curve or utility-trace experiment needs.

    Angle intervals are radians here; the CLI converts from degrees.
    """

    num_elements: int = 40
    spacing_ratio: float = 0.25
    data_snr_db: float = 0.0
    pilot_snr_offset_db: float = 10.0
    pilot_budgets: tuple[int, ...] = DEFAULT_PILOT_BUDGETS
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
        self._set_integer("num_elements", 1, math.inf, "must be a positive integer")
        _require(
            math.isfinite(self.spacing_ratio) and self.spacing_ratio > 0,
            "spacing_ratio",
            "must be positive and finite",
        )
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
        _require(
            all(_is_integral(v) for v in self.pilot_budgets),
            "pilot_budgets",
            "must be integers",
        )
        budgets = tuple(int(v) for v in self.pilot_budgets)
        _require(len(budgets) > 0, "pilot_budgets", "must not be empty")
        _require(
            len(set(budgets)) == len(budgets), "pilot_budgets", "must be distinct"
        )
        _require(
            all(2 <= v <= self.num_elements for v in budgets),
            "pilot_budgets",
            f"each budget must lie in [2, {self.num_elements}]",
        )
        object.__setattr__(self, "pilot_budgets", budgets)
        self._set_integer("num_trials", 1, math.inf, "must be a positive integer")
        domain = tuple(float(v) for v in self.search_domain)
        _require(len(domain) == 2 and domain[0] < domain[1], "search_domain",
                 "must be an increasing pair")
        _require(
            -math.pi / 2 <= domain[0] and domain[1] <= math.pi / 2,
            "search_domain",
            "must lie within [-pi/2, pi/2]",
        )
        object.__setattr__(self, "search_domain", domain)
        ue_range = tuple(float(v) for v in self.ue_angle_range)
        _require(len(ue_range) == 2 and ue_range[0] < ue_range[1], "ue_angle_range",
                 "must be an increasing pair")
        _require(
            domain[0] <= ue_range[0] and ue_range[1] <= domain[1],
            "ue_angle_range",
            "must be contained in the search domain",
        )
        object.__setattr__(self, "ue_angle_range", ue_range)
        self._set_integer(
            "grid_points", 2, math.inf, "must be an integer of at least 2"
        )
        _require(
            self.num_elements * max(self.num_elements, self.grid_points)
            <= MAX_ARRAY_ENTRIES,
            "num_elements * max(num_elements, grid_points)",
            f"must be at most {MAX_ARRAY_ENTRIES} (1 GiB of complex entries)",
        )
        self._set_integer("rng_seed", 0, 2**64, "must be an unsigned 64-bit integer")

    def array(self) -> ArrayModel:
        return ArrayModel(self.num_elements, self.spacing_ratio)

    def grid(self) -> AoaSearchGrid:
        return AoaSearchGrid(*self.search_domain, self.grid_points)


class PowerScales(NamedTuple):
    """Linear powers under the unit-noise, unit-gain normalization."""

    data_power: float
    pilot_power: float


def _db_to_linear(db: float) -> float:
    """10**(db/10), with inf where the power overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def snr_to_powers(config: ExperimentConfig) -> PowerScales:
    """Translate the configured SNRs into linear power scales.

    With noise power 1, unit-magnitude BS-RIS coefficients and unit
    channel gain, the per-element data SNR equals the data power, and
    the pilot power sits ``pilot_snr_offset_db`` above it.
    """
    data_power = _db_to_linear(config.data_snr_db)
    pilot_power = data_power * _db_to_linear(config.pilot_snr_offset_db)
    return PowerScales(data_power, pilot_power)


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
        for name, mean, stderr in (
            ("mean_rate_ml", self.mean_rate_ml, self.stderr_ml),
            ("mean_rate_ls", self.mean_rate_ls, self.stderr_ls),
        ):
            if not 0.0 <= mean <= self.mean_capacity + 3.0 * stderr:
                raise ValueError(
                    f"{name}={mean} violates the capacity bound "
                    f"{self.mean_capacity} (+3 stderr)"
                )


@dataclass(frozen=True, eq=False)
class TrialRates:
    """Raw per-trial rates behind a rate curve.

    ``rate_ml`` and ``rate_ls`` have one row per pilot budget (in config
    order) and one column per trial; ``capacity`` has one entry per
    trial.
    """

    pilot_budgets: tuple[int, ...]
    rate_ml: np.ndarray
    rate_ls: np.ndarray
    capacity: np.ndarray


def _phase_matched_rate(
    coefficients: np.ndarray, g: np.ndarray, estimated: np.ndarray, data_power: float
):
    """Rate when the surface is configured from the estimate's phases.

    The channel vectors run along the last axis; leading axes broadcast
    and give one rate each.
    """
    shifts = np.angle(coefficients) + np.angle(estimated)
    eff = np.sum(coefficients * g * np.exp(-1j * shifts), axis=-1)
    return achievable_rate(eff, data_power)


def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def _trial_chunk(num_elements: int, grid_points: int) -> int:
    """Trials advanced together by one call of the adaptive core.

    As many as keep each per-trial array of the chunk within
    ``CHUNK_ENTRIES``, and at least one. Larger chunks amortize the
    per-pilot numpy calls over more trials but fall out of cache. A
    one-trial chunk holds the arrays that ``MAX_ARRAY_ENTRIES`` already
    bounds, so no chunk exceeds that bound either.
    """
    per_trial = max(grid_points, num_elements * num_elements)
    return max(1, CHUNK_ENTRIES // per_trial)


def collect_trial_rates(
    config: ExperimentConfig,
    progress: Callable[[int, int], None] | None = None,
) -> TrialRates:
    """Run all Monte Carlo trials and keep the per-trial rates.

    Per trial: draw the user angle, reference phase and random-phase
    BS-RIS channel, the adaptive loop's pilot noise and the
    least-squares baseline's inputs, in that order from the trial's own
    generator. The adaptive estimation runs at the largest budget (the
    estimate recorded after pilot L is exactly the budget-L outcome,
    since earlier pilots do not depend on later ones), for a chunk of
    trials at once through ``advance_trials``; each trial's outcome is
    the one ``run_adaptive_estimation`` returns for it alone. Everything
    is scored with the phase-matched rate against the capacity. The
    baseline draws one noise vector and one permutation of the DFT
    columns per trial; budget L uses the first L columns and the first
    L noise samples, so the budgets see nested prefixes of both. Those
    rows are orthogonal, so one campaign at the largest budget and
    ``least_squares_prefix_estimates`` give every budget's estimate from
    a cumulative sum, with no pseudoinverse. ``progress(done, total)`` is
    called after every chunk.
    """
    array = config.array()
    grid = config.grid()
    setup = build_adaptive_setup(array, grid)
    powers = snr_to_powers(config)
    budgets = config.pilot_budgets
    max_budget = max(budgets)
    n = config.num_elements
    trials = config.num_trials
    dft = _dft_matrix(n)
    chunk = _trial_chunk(n, config.grid_points)
    # budget L reads row L - 1 of the LS prefix estimates and the
    # adaptive estimate from L pilots, column L - 2 of a run's steps
    last = np.array(budgets) - 1

    rate_ml = np.zeros((len(budgets), trials))
    rate_ls = np.zeros((len(budgets), trials))
    caps = np.zeros(trials)

    seeds = np.random.SeedSequence(config.rng_seed).spawn(trials)
    for begin in range(0, trials, chunk):
        members = range(begin, min(begin + chunk, trials))
        h_rows = np.empty((len(members), n), dtype=np.complex128)
        g_rows = np.empty((len(members), n), dtype=np.complex128)
        draws = np.empty((len(members), 2 * max_budget))
        for row, t in enumerate(members):
            rng = np.random.default_rng(seeds[t])
            aoa = rng.uniform(*config.ue_angle_range)
            omega = rng.uniform(0.0, TWO_PI)
            h = random_bs_ris_channel(n, rng)
            g = expand_channel(LosChannel(1.0, omega, aoa), array)
            caps[t] = capacity(h, g, powers.data_power)
            h_rows[row], g_rows[row] = h.coefficients, g
            # the configured pilot power is finite, so every run is noisy
            draws[row] = rng.standard_normal(2 * max_budget)

            noise = (
                rng.standard_normal(max_budget) + 1j * rng.standard_normal(max_budget)
            ) / np.sqrt(2.0)
            config_rows = dft[:, rng.permutation(n)[:max_budget]].T
            signal = h.coefficients * g * np.sqrt(powers.pilot_power)
            campaign = PilotCampaign(
                config_rows, config_rows @ signal + noise, powers.pilot_power, h
            )
            ls_estimates = least_squares_prefix_estimates(campaign)[last]
            rate_ls[:, t] = _phase_matched_rate(
                h.coefficients, g, ls_estimates, powers.data_power
            )

        pilot_power, noise_std = pilot_power_for_snr(powers.pilot_power, 1.0, h_rows)
        run = advance_trials(
            setup, h_rows, g_rows, pilot_power, pilot_noise(draws, noise_std), max_budget
        )
        step = last - 1
        estimates = (
            np.sqrt(run.gains[:, step]) * np.exp(1j * run.phases[:, step])
        )[..., None] * array_response(array, setup.grid_angles[run.peaks[:, step]])
        rate_ml[:, members.start:members.stop] = _phase_matched_rate(
            h_rows[:, None, :], g_rows[:, None, :], estimates, powers.data_power
        ).T
        if progress is not None:
            progress(members.stop, trials)

    return TrialRates(budgets, rate_ml, rate_ls, caps)


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


def run_rate_experiment(
    config: ExperimentConfig,
    progress: Callable[[int, int], None] | None = None,
) -> list[RateCurvePoint]:
    """Average rates per pilot budget, sorted by ascending budget."""
    trials = collect_trial_rates(config, progress)
    mean_cap = float(np.mean(trials.capacity))
    points = []
    for b, budget in enumerate(trials.pilot_budgets):
        mean_ml, stderr_ml = _mean_and_stderr(trials.rate_ml[b])
        mean_ls, stderr_ls = _mean_and_stderr(trials.rate_ls[b])
        points.append(
            RateCurvePoint(
                pilot_budget=budget,
                mean_rate_ml=mean_ml,
                mean_rate_ls=mean_ls,
                mean_capacity=mean_cap,
                ratio_ml=mean_ml / mean_cap,
                ratio_ls=mean_ls / mean_cap,
                trial_count=config.num_trials,
                stderr_ml=stderr_ml,
                stderr_ls=stderr_ls,
            )
        )
    return sorted(points, key=lambda point: point.pilot_budget)


@dataclass(frozen=True, eq=False)
class SingleRunSummary:
    """Outcome of one seeded adaptive run, scored against capacity."""

    record: AdaptiveRunRecord
    true_channel: LosChannel
    bs_ris_channel: KnownBsRisChannel
    achieved_rate: float
    capacity_value: float

    @property
    def ratio(self) -> float:
        return self.achieved_rate / self.capacity_value


def run_single_estimate(
    config: ExperimentConfig, true_aoa: float, num_pilots: int
) -> SingleRunSummary:
    """Run one seeded adaptive estimation and score the final estimate.

    The run draws the reference phase and the BS-RIS channel from
    ``SeedSequence(rng_seed)``, then the pilot noise. Its record keeps
    the grid utility of every step after the first, so ``utility-trace``
    and ``estimate-once`` show the same run.
    """
    lo, hi = config.ue_angle_range
    if not lo <= true_aoa <= hi:
        raise AngleDomainError(
            f"true angle {true_aoa!r} rad lies outside the configured UE "
            f"range [{lo}, {hi}]"
        )
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    powers = snr_to_powers(config)
    channel = LosChannel(1.0, rng.uniform(0.0, TWO_PI), float(true_aoa))
    h = random_bs_ris_channel(config.num_elements, rng)
    array = config.array()
    g = expand_channel(channel, array)
    record = run_adaptive_estimation(
        channel, h, array, num_pilots, powers.pilot_power, rng, config.grid()
    )
    rate = _phase_matched_rate(
        h.coefficients, g, record.result.channel_estimate, powers.data_power
    )
    return SingleRunSummary(record, channel, h, rate, capacity(h, g, powers.data_power))
