"""Monte Carlo experiment harness.

Power bookkeeping is normalized: unit noise power, unit channel gain,
unit-magnitude BS-RIS coefficients. The per-element data SNR then equals
the data power directly and the pilot power is a fixed dB offset above
it. Every trial draws its own random generator from the master seed with
a counter-based split, so results do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .adaptive import (
    AdaptiveRunRecord,
    build_adaptive_setup,
    run_adaptive_estimation,
)
from .errors import AngleDomainError, ConfigValidationError
from .estimators import AoaSearchGrid, PilotCampaign, least_squares_estimate
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

ChannelFactory = Callable[[int, np.random.Generator], KnownBsRisChannel]

DEFAULT_PILOT_BUDGETS = (2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40)


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
        # inf or nan dB values give an inf, 0 or nan power and fail here too
        data_power, pilot_power, _ = snr_to_powers(self)
        _require(
            0 < data_power < math.inf,
            "data_snr_db",
            "must give a positive, finite linear power",
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
        self._set_integer("rng_seed", 0, 2**64, "must be an unsigned 64-bit integer")

    def array(self) -> ArrayModel:
        return ArrayModel(self.num_elements, self.spacing_ratio)

    def grid(self) -> AoaSearchGrid:
        return AoaSearchGrid(*self.search_domain, self.grid_points)


class PowerScales(NamedTuple):
    """Linear powers under the unit-noise, unit-gain normalization."""

    data_power: float
    pilot_power: float
    channel_gain: float


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
    return PowerScales(data_power, pilot_power, 1.0)


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
    stderr_capacity: float

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
    h: KnownBsRisChannel, g: np.ndarray, estimated: np.ndarray, data_power: float
) -> float:
    """Rate when the surface is configured from the estimate's phases."""
    shifts = np.angle(h.coefficients) + np.angle(estimated)
    eff = complex(np.sum(h.coefficients * g * np.exp(-1j * shifts)))
    return achievable_rate(eff, data_power)


def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def collect_trial_rates(
    config: ExperimentConfig,
    bs_ris_channel_factory: ChannelFactory | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> TrialRates:
    """Run all Monte Carlo trials and keep the per-trial rates.

    Per trial: draw the user angle and reference phase, run one adaptive
    estimation at the largest budget (the estimate recorded after pilot
    L is exactly the budget-L outcome, since earlier pilots do not
    depend on later ones), run the least-squares baseline, and score
    everything with the phase-matched rate against the capacity. The
    baseline draws one noise vector and one permutation of the DFT
    columns per trial; budget L uses the first L columns and the first
    L noise samples, so the budgets see nested prefixes of both.

    ``bs_ris_channel_factory`` may replace the default random-phase
    BS-RIS channel; it must keep unit-magnitude coefficients for the SNR
    bookkeeping to stay calibrated.
    """
    factory = bs_ris_channel_factory or random_bs_ris_channel
    array = config.array()
    grid = config.grid()
    setup = build_adaptive_setup(array, grid)
    powers = snr_to_powers(config)
    budgets = config.pilot_budgets
    max_budget = max(budgets)
    n = config.num_elements
    trials = config.num_trials
    dft = _dft_matrix(n)

    rate_ml = np.zeros((len(budgets), trials))
    rate_ls = np.zeros((len(budgets), trials))
    caps = np.zeros(trials)

    seeds = np.random.SeedSequence(config.rng_seed).spawn(trials)
    for t in range(trials):
        rng = np.random.default_rng(seeds[t])
        aoa = rng.uniform(*config.ue_angle_range)
        omega = rng.uniform(0.0, TWO_PI)
        channel = LosChannel(powers.channel_gain, omega, aoa)
        h = factory(n, rng)
        g = expand_channel(channel, array)
        caps[t] = capacity(h, g, powers.data_power)

        record = run_adaptive_estimation(
            channel, h, array, max_budget, powers.pilot_power, rng, grid, setup=setup
        )
        for b, budget in enumerate(budgets):
            step = record.step_for(budget)
            estimate = (
                np.sqrt(step.gain_estimate)
                * np.exp(1j * step.phase_estimate)
                * array_response(array, step.aoa_estimate)
            )
            rate_ml[b, t] = _phase_matched_rate(h, g, estimate, powers.data_power)

        noise = (
            rng.standard_normal(max_budget) + 1j * rng.standard_normal(max_budget)
        ) / np.sqrt(2.0)
        columns = rng.permutation(n)
        signal = h.coefficients * g * np.sqrt(powers.pilot_power)
        for b, budget in enumerate(budgets):
            config_rows = dft[:, columns[:budget]].T
            received = config_rows @ signal + noise[:budget]
            campaign = PilotCampaign(config_rows, received, powers.pilot_power, h)
            ls_estimate = least_squares_estimate(campaign)
            rate_ls[b, t] = _phase_matched_rate(h, g, ls_estimate, powers.data_power)

        if progress is not None:
            progress(t + 1, trials)

    return TrialRates(budgets, rate_ml, rate_ls, caps)


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


def run_rate_experiment(
    config: ExperimentConfig,
    bs_ris_channel_factory: ChannelFactory | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[RateCurvePoint]:
    """Average rates per pilot budget, sorted by ascending budget."""
    trials = collect_trial_rates(config, bs_ris_channel_factory, progress)
    mean_cap, stderr_cap = _mean_and_stderr(trials.capacity)
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
                stderr_capacity=stderr_cap,
            )
        )
    return sorted(points, key=lambda point: point.pilot_budget)


@dataclass(frozen=True, eq=False)
class UtilityStage:
    """Utility profile (dB) after a given number of pilots."""

    pilot_count: int
    utility_db: np.ndarray
    argmax_index: int

    def __post_init__(self) -> None:
        vec = np.array(self.utility_db, dtype=float)
        vec.setflags(write=False)
        object.__setattr__(self, "utility_db", vec)


@dataclass(frozen=True, eq=False)
class UtilityTrace:
    """Evolution of the angle-search utility as pilots accumulate."""

    angles: np.ndarray
    stages: tuple[UtilityStage, ...]

    def __post_init__(self) -> None:
        angles = np.array(self.angles, dtype=float)
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        if not self.stages:
            raise ValueError("a utility trace needs at least one stage")
        for stage in self.stages:
            if stage.utility_db.size != angles.size:
                raise ValueError("stage grids must match the angle grid")


def _seeded_trial_context(
    config: ExperimentConfig, true_aoa: float
) -> tuple[np.random.Generator, LosChannel, KnownBsRisChannel, PowerScales]:
    lo, hi = config.ue_angle_range
    if not lo <= true_aoa <= hi:
        raise AngleDomainError(
            f"true angle {true_aoa!r} rad lies outside the configured UE "
            f"range [{lo}, {hi}]"
        )
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    powers = snr_to_powers(config)
    omega = rng.uniform(0.0, TWO_PI)
    channel = LosChannel(powers.channel_gain, omega, float(true_aoa))
    h = random_bs_ris_channel(config.num_elements, rng)
    return rng, channel, h, powers


def run_utility_trace(
    config: ExperimentConfig, true_aoa: float, l_max: int
) -> UtilityTrace:
    """One seeded adaptive run, recording the utility in dB per pilot count."""
    rng, channel, h, powers = _seeded_trial_context(config, true_aoa)
    record = run_adaptive_estimation(
        channel,
        h,
        config.array(),
        l_max,
        powers.pilot_power,
        rng,
        config.grid(),
        record_utility=True,
    )
    stages = []
    for step in record.steps:
        if step.aoa_estimate is None:
            continue
        with np.errstate(divide="ignore"):
            utility_db = 10.0 * np.log10(step.utility)
        stages.append(
            UtilityStage(step.pilot_index, utility_db, int(np.argmax(step.utility)))
        )
    return UtilityTrace(record.grid.angles, tuple(stages))


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
    """Run one seeded adaptive estimation and score the final estimate."""
    rng, channel, h, powers = _seeded_trial_context(config, true_aoa)
    array = config.array()
    g = expand_channel(channel, array)
    record = run_adaptive_estimation(
        channel, h, array, num_pilots, powers.pilot_power, rng, config.grid()
    )
    rate = _phase_matched_rate(
        h, g, record.result.channel_estimate, powers.data_power
    )
    return SingleRunSummary(record, channel, h, rate, capacity(h, g, powers.data_power))
