"""Tests for the Monte Carlo harness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispilot import (
    AngleDomainError,
    ArrayModel,
    ConfigValidationError,
    ExperimentConfig,
    LosChannel,
    RateCurvePoint,
    achievable_rate,
    array_response,
    build_adaptive_setup,
    collect_trial_rates,
    least_squares_prefix_estimates,
    run_rate_experiment,
    run_single_estimate,
    snr_to_powers,
)

from rispilot import simulate
from rispilot.adaptive import advance_trials
from rispilot.estimators import dft_rows
from rispilot.model import _draw_unit_coefficients, los_vector
from rispilot.simulate import (
    DEFAULT_PILOT_BUDGETS,
    MAX_ARRAY_ENTRIES,
    _mean_and_stderr,
    _phase_matched_rate,
    _trial_chunk,
    pilot_noise,
)

from conftest import (
    PilotCampaign,
    candidate_rows,
    capacity,
    channel_vector,
    least_squares_estimate,
    local_peak_indices,
    run_with_campaign,
    simulate_pilot_reception,
    utility_db,
)


class TestSnrToPowers:
    def test_reference_operating_point(self):
        data_power, pilot_power = snr_to_powers(ExperimentConfig(data_snr_db=0.0))
        assert data_power == pytest.approx(1.0)
        assert pilot_power == pytest.approx(10.0)

    def test_low_snr_operating_point(self):
        data_power, pilot_power = snr_to_powers(ExperimentConfig(data_snr_db=-10.0))
        assert data_power == pytest.approx(0.1)
        assert pilot_power == pytest.approx(1.0)

    def test_zero_offset_means_equal_powers(self):
        data_power, pilot_power = snr_to_powers(
            ExperimentConfig(data_snr_db=3.0, pilot_snr_offset_db=0.0)
        )
        assert pilot_power == pytest.approx(data_power)


class TestPilotReceptionStatistics:
    def test_noise_variance_matches_target(self, rng):
        # sample-variance oracle over 1e5 draws
        n = 4
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 0.2, 0.1)
        config = candidate_rows(h, [0.4], array)[0]
        sigma = 1.3
        draws = np.array(
            [
                simulate_pilot_reception(config, h, g, 2.0, sigma, rng)
                for _ in range(100_000)
            ]
        )
        centered = draws - draws.mean()
        variance = float(np.mean(np.abs(centered) ** 2))
        assert variance == pytest.approx(sigma**2, rel=0.03)


class TestExperimentConfig:
    def test_defaults_reproduce_reference_setup(self):
        config = ExperimentConfig()
        assert config.num_elements == 40
        assert config.spacing_ratio == 0.25
        assert config.pilot_snr_offset_db == 10.0
        assert config.ue_angle_range == pytest.approx((-np.pi / 3, np.pi / 3))
        assert config.search_domain == pytest.approx((-np.pi / 2, np.pi / 2))
        assert config.grid_points == 2000

    def test_unset_budgets_are_the_defaults_up_to_the_array_size(self):
        assert ExperimentConfig().pilot_budgets == DEFAULT_PILOT_BUDGETS
        assert ExperimentConfig(num_elements=16).pilot_budgets == (
            2, 3, 4, 5, 6, 8, 10, 15,
        )
        assert ExperimentConfig(num_elements=2).pilot_budgets == (2,)
        with pytest.raises(ConfigValidationError, match="pilot_budgets"):
            ExperimentConfig(num_elements=16, pilot_budgets=(2, 20))
        # no budget fits one element, and the error names the field that was set
        with pytest.raises(ConfigValidationError, match="num_elements"):
            ExperimentConfig(num_elements=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_trials": 0},
            {"pilot_budgets": ()},
            {"pilot_budgets": (1, 4)},
            {"pilot_budgets": (2, 41)},
            {"pilot_budgets": (4, 4)},
            {"ue_angle_range": (-1.5, 1.6)},
            {"search_domain": (-2.0, 1.0)},
            {"grid_points": 1},
            {"rng_seed": -3},
            {"data_snr_db": math.inf},
            {"num_elements": math.inf},
            {"num_trials": math.nan},
            {"grid_points": math.nan},
            {"rng_seed": math.nan},
            {"spacing_ratio": math.inf},
            {"data_snr_db": 4000.0},
            {"data_snr_db": -4000.0},
            {"pilot_snr_offset_db": -4000.0},
            {"data_snr_db": 3000.0, "pilot_snr_offset_db": 200.0},
            {"data_snr_db": math.nan},
            {"data_snr_db": -math.inf},
            {"pilot_snr_offset_db": math.inf},
            {"pilot_snr_offset_db": math.nan},
            # the capacity log2(1 + N^2 P_d) rounds to 0
            {"data_snr_db": -300.0},
            {"data_snr_db": -3200.0},
            # N x max(N, G) complex entries beyond MAX_ARRAY_ENTRIES
            {"grid_points": MAX_ARRAY_ENTRIES // 40 + 1},
            {"grid_points": 10**15},
            {"num_elements": 2**13 + 1, "pilot_budgets": (2,)},
            {"num_elements": 10**15, "pilot_budgets": (2,)},
            # per-trial rates, 2 * len(pilot_budgets) float64 values a trial,
            # beyond 1 GiB
            {"num_trials": MAX_ARRAY_ENTRIES + 1, "pilot_budgets": (2,)},
            {"num_trials": 10**10},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigValidationError):
            ExperimentConfig(**kwargs)

    def test_array_bound_admits_its_limit(self):
        # building the config allocates nothing, so the limit itself is cheap
        assert MAX_ARRAY_ENTRIES == 2**26
        ExperimentConfig(grid_points=MAX_ARRAY_ENTRIES // 40)
        ExperimentConfig(num_elements=2**13, pilot_budgets=(2,))

    def test_setup_holds_about_one_and_a_half_bounded_arrays(self):
        # MAX_ARRAY_ENTRIES bounds each N x G array; the setup's projections
        # and energies weigh about 1.5 complex ones, no steering matrix, and
        # the scores are a view of the energies: each buffer counts once
        config = ExperimentConfig()
        setup = build_adaptive_setup(config.array(), config.grid())
        buffers = {}
        for value in vars(setup).values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                buffers[id(value)] = value.nbytes
        held = sum(buffers.values())
        assert held <= 1.55 * 16 * config.num_elements * config.grid_points

    def test_setup_build_peaks_at_about_two_bounded_arrays(self):
        # every table is built in place, and the steering matrix is freed
        # before the energies exist: at no point of the build are more than
        # about 2 complex N x G arrays alive
        config = ExperimentConfig()
        array, grid = config.array(), config.grid()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            setup = build_adaptive_setup(array, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 16 * config.num_elements * config.grid_points
        # the scores are the energies read through a transpose, not a copy
        assert np.shares_memory(setup.scores, setup.projection_energy)

    def test_budgets_must_be_integers_under_their_key(self):
        # the budget's rule, integer and within [2, N], has one owner
        message = r"^pilot_budgets: budget 2\.5 must be an integer"
        with pytest.raises(ConfigValidationError, match=message):
            ExperimentConfig(pilot_budgets=(2.5,))
        budgets = ExperimentConfig(pilot_budgets=(2.0, 4.0)).pilot_budgets
        assert budgets == (2, 4) and all(type(b) is int for b in budgets)

    def test_result_bound_admits_its_limit(self):
        # 2 float64 rates a trial (ML and LS) for one budget; the capacity
        # is one float for the whole experiment
        config = ExperimentConfig(num_trials=MAX_ARRAY_ENTRIES, pilot_budgets=(2,))
        assert config.num_trials == 2**26
        assert 2 * 8 * config.num_trials <= 2**30
        with pytest.raises(ConfigValidationError, match="num_trials"):
            ExperimentConfig(num_trials=MAX_ARRAY_ENTRIES + 1, pilot_budgets=(2,))

    def test_rate_point_rejects_capacity_violation(self):
        with pytest.raises(ValueError):
            RateCurvePoint(
                pilot_budget=2,
                mean_rate_ml=11.0,
                mean_rate_ls=1.0,
                mean_capacity=10.0,
                ratio_ml=1.1,
                ratio_ls=0.1,
                trial_count=10,
                stderr_ml=0.01,
                stderr_ls=0.01,
            )


SMALL = dict(
    num_elements=16,
    pilot_budgets=(2, 4, 8),
    num_trials=60,
    grid_points=400,
    rng_seed=11,
)


class TestTrialRates:
    def test_rates_are_capacity_bounded_per_trial(self):
        trials = collect_trial_rates(ExperimentConfig(**SMALL))
        assert np.all(trials.rate_ml >= 0.0)
        assert np.all(trials.rate_ls >= 0.0)
        assert isinstance(trials.capacity, float)
        assert np.all(trials.rate_ml <= trials.capacity + 1e-12)
        assert np.all(trials.rate_ls <= trials.capacity + 1e-12)

    def test_collection_is_deterministic(self):
        first = collect_trial_rates(ExperimentConfig(**SMALL))
        second = collect_trial_rates(ExperimentConfig(**SMALL))
        assert np.array_equal(first.rate_ml, second.rate_ml)
        assert np.array_equal(first.rate_ls, second.rate_ls)
        assert np.array_equal(first.capacity, second.capacity)

    def test_matches_per_trial_reference_loop(self):
        # reference: each trial draws its inputs in the harness order and
        # runs the adaptive loop without a shared setup. Trial 40 of seed
        # 42 has a near-null argmax at the grid edge, where the utility
        # depends on the last bits of the pilot projections.
        config = ExperimentConfig(
            pilot_budgets=(2, 5, 40), num_trials=80, rng_seed=42
        )
        array, grid = config.array(), config.grid()
        data_power, pilot_power = snr_to_powers(config)
        n, budgets = config.num_elements, config.pilot_budgets
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)

        def phase_matched_rate(h, g, estimate):
            # the configuration from h and the estimate cancels the BS-RIS
            # phases: the data see |h_n| g_n exp(-j arg(estimate_n))
            channel = np.abs(h) * g
            eff = complex(np.sum(channel * np.exp(-1j * np.angle(estimate))))
            return achievable_rate(eff, data_power)

        def physical_rate(h, g, estimate):
            # the same configuration built from h's phases and applied to D_h g
            shifts = np.angle(h) + np.angle(estimate)
            eff = complex(np.sum(h * g * np.exp(-1j * shifts)))
            return achievable_rate(eff, data_power)

        def closed_form_rate(aoa_estimate, aoa):
            # with |h_n| = 1 and unit gain, the phase-matched configuration
            # cancels every phase but the angle error's: the rate depends
            # only on |sum_n exp(j 2 pi rho n (sin aoa_estimate - sin aoa))|
            paths = array_response(array, aoa) / array_response(array, aoa_estimate)
            return achievable_rate(np.sum(paths), data_power)

        rate_ml = np.zeros((len(budgets), config.num_trials))
        rate_ls = np.zeros((len(budgets), config.num_trials))
        rate_ls_prefix = np.zeros((len(budgets), config.num_trials))
        rate_ml_closed = np.zeros((len(budgets), config.num_trials))
        rate_ml_physical = np.zeros((len(budgets), config.num_trials))
        caps = np.zeros(config.num_trials)
        aligned_caps = np.zeros(config.num_trials)
        seeds = np.random.SeedSequence(config.rng_seed).spawn(config.num_trials)
        for t, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            aoa = rng.uniform(*config.ue_angle_range)
            omega = rng.uniform(0.0, 2.0 * np.pi)
            h = _draw_unit_coefficients(n, rng)
            g = los_vector(array, 1.0, omega, aoa)
            caps[t] = capacity(h, g, data_power)
            aligned_caps[t] = closed_form_rate(aoa, aoa)
            setup = build_adaptive_setup(array, grid)
            loop_noise = pilot_noise(rng.standard_normal(2 * max(budgets)))
            run, _ = run_with_campaign(setup, h, g, pilot_power, loop_noise)
            aoa_estimates = grid.angles[run.peaks[0]]
            for b, budget in enumerate(budgets):
                # entry budget - 2 is the estimate from the first budget pilots
                step = budget - 2
                steering = array_response(array, aoa_estimates[step])
                rate_ml[b, t] = phase_matched_rate(h, g, steering)
                # the budget run on the first pilots' noise is those pilots:
                # its one gain and phase are theirs
                prefix, _ = run_with_campaign(
                    setup, h, g, pilot_power, loop_noise[:budget]
                )
                estimate = np.sqrt(prefix.gains[0]) * np.exp(1j * prefix.phases[0])
                rate_ml_physical[b, t] = physical_rate(h, g, estimate * steering)
                rate_ml_closed[b, t] = closed_form_rate(aoa_estimates[step], aoa)
            noise = (
                rng.standard_normal(max(budgets))
                + 1j * rng.standard_normal(max(budgets))
            ) / np.sqrt(2.0)
            columns = rng.permutation(n)
            signal = h * g * np.sqrt(pilot_power)
            for b, budget in enumerate(budgets):
                rows = dft[:, columns[:budget]].T
                received = rows @ signal + noise[:budget]
                campaign = PilotCampaign(rows, received, pilot_power, h)
                rate_ls[b, t] = phase_matched_rate(
                    h, g, least_squares_estimate(campaign)
                )
            # the trial's own campaign at the largest budget, alone
            rows = dft[:, columns[:max(budgets)]].T
            prefixes = least_squares_prefix_estimates(
                rows, rows @ signal + noise, h, pilot_power
            )
            for b, budget in enumerate(budgets):
                rate_ls_prefix[b, t] = phase_matched_rate(h, g, prefixes[budget - 1])

        trials = collect_trial_rates(config)
        assert np.array_equal(trials.rate_ml, rate_ml)
        # the harness takes every budget's LS estimate from one prefix sum
        # instead of a pseudoinverse per budget, so only the last bits move
        np.testing.assert_allclose(trials.rate_ls, rate_ls, rtol=1e-12, atol=0)
        # chunked prefix sums equal each campaign's own, bit for bit
        assert np.array_equal(trials.rate_ls, rate_ls_prefix)
        # every trial's own capacity is the experiment's, bit for bit
        assert np.all(caps == trials.capacity)
        # the ML rates follow the closed form of their angle error, and an
        # exact angle attains the capacity
        np.testing.assert_allclose(
            rate_ml_closed, trials.rate_ml, rtol=0, atol=1e-12 * trials.capacity
        )
        np.testing.assert_allclose(aligned_caps, trials.capacity, rtol=1e-12, atol=0)
        # scoring the bare steering vector through |h| * g is the physical
        # rate of the configuration built from h and the whole estimate: the
        # two sum the same N paths, rounded differently in their last bits
        np.testing.assert_allclose(
            rate_ml_physical, trials.rate_ml,
            rtol=0, atol=n * np.finfo(float).eps * trials.capacity,
        )

    @pytest.mark.xfail(
        strict=True,
        reason="the utility scores a direction lit by rounding alone: both "
        "starting beams null the +-90 degree grid edges, and noise over "
        "their 1e-31 relative energy wins the argmax",
    )
    def test_two_pilot_estimate_is_not_at_a_null_grid_edge(self):
        # trial 40 of the criterion-1 curve (budgets 2, 4, 5; seed 42),
        # run alone as the Monte Carlo runs it: the truth is at -44.42
        # degrees, yet the L = 2 estimate lands at 89.91 degrees (grid
        # index 1998) and scores 0.000 of the capacity
        config = ExperimentConfig(pilot_budgets=(2, 4, 5), rng_seed=42)
        setup = build_adaptive_setup(config.array(), config.grid())
        seed = np.random.SeedSequence(config.rng_seed).spawn(41)[40]
        _, run = simulate._run_trials(
            config, setup, dft_rows(config.num_elements), [seed]
        )
        edges = setup.grid_angles[[0, 1, -2, -1]]
        assert setup.grid_angles[run.peaks[0, 0]] not in edges

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 16),
        points=st.integers(50, 400),
        trials=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
        data_snr_db=st.floats(-10.0, 20.0),
        data=st.data(),
    )
    def test_rates_do_not_depend_on_chunk_size(
        self, n, points, trials, seed, data_snr_db, data
    ):
        # every stage after the draws (core, LS Gram check and prefix sums,
        # stacked products, rates) must give each trial the same bits in a
        # chunk of 1, 2, 3 or all trials
        budgets = data.draw(
            st.lists(st.integers(2, n), min_size=1, max_size=6, unique=True),
            label="budgets",
        )
        config = ExperimentConfig(
            num_elements=n, pilot_budgets=tuple(budgets), num_trials=trials,
            grid_points=points, data_snr_db=data_snr_db, rng_seed=seed,
        )
        per_trial = max(points, n * n)
        assert _trial_chunk(n, points) >= trials  # the default is one chunk
        expected = collect_trial_rates(config)
        for size in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("rispilot.simulate.CHUNK_ENTRIES", size * per_trial)
                assert _trial_chunk(n, points) == size
                chunked = collect_trial_rates(config)
            for name in ("rate_ml", "rate_ls", "capacity"):
                assert np.array_equal(
                    getattr(chunked, name), getattr(expected, name)
                ), (name, size)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 64),
        spacing=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
        aoa=st.floats(-math.pi / 2, math.pi / 2),
        phase=st.floats(0.0, 2.0 * math.pi),
        data_power=st.floats(1e-3, 1e3),
    )
    def test_a_trials_capacity_is_the_experiments(
        self, n, spacing, seed, aoa, phase, data_power
    ):
        # unit-magnitude h and g make every trial's aligned sum N, so the one
        # capacity collect_trial_rates keeps loses nothing but rounding
        h = _draw_unit_coefficients(n, np.random.default_rng(seed))
        g = channel_vector(LosChannel(1.0, phase, aoa), ArrayModel(n, spacing))
        shared = achievable_rate(float(n), data_power)
        own = capacity(h, g, data_power)
        assert abs(own - shared) <= 4 * 2.0**-52 * shared

    def test_progress_counts_whole_chunks_to_the_end(self):
        # a trial count that is not a multiple of the chunk size ends on a
        # partial chunk, which must still report the full count
        trials = _trial_chunk(8, 400) + 5
        config = ExperimentConfig(
            **{**SMALL, "num_elements": 8, "grid_points": 400, "num_trials": trials}
        )
        calls = []
        collect_trial_rates(config, progress=lambda done, total: calls.append(
            (done, total)
        ))
        assert len(calls) >= 2
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)
        assert all(total == trials for _, total in calls)
        assert calls[-1] == (trials, trials)

    def test_adaptive_loop_sends_at_the_configured_pilot_power(self, monkeypatch):
        # unit |h| fixes P_p / mean|h|^2 at P_p, but at N = 13 the mean of
        # the unit magnitudes' squares rounds off 1 for some draws: every
        # chunk's loop must get the configured P_p itself, as one float
        assert any(
            np.mean(np.abs(_draw_unit_coefficients(13, np.random.default_rng(seed))) ** 2)
            != 1.0
            for seed in range(200)
        )
        config = ExperimentConfig(
            num_elements=13, pilot_budgets=(2, 5), num_trials=50, rng_seed=7
        )
        powers = []
        advance = simulate.advance_trials

        def recording(setup, channels, pilot_power, *args, **kwargs):
            powers.append(pilot_power)
            return advance(setup, channels, pilot_power, *args, **kwargs)

        monkeypatch.setattr(simulate, "advance_trials", recording)
        collect_trial_rates(config)
        assert len(powers) == -(-config.num_trials // _trial_chunk(13, 2000))
        for power in powers:
            assert np.ndim(power) == 0 and isinstance(power, float)
            assert power == snr_to_powers(config)[1]


class TestRateExperiment:
    def test_points_sorted_and_consistent(self):
        config = ExperimentConfig(**{**SMALL, "pilot_budgets": (8, 2, 4)})
        points = run_rate_experiment(config)
        assert [p.pilot_budget for p in points] == [2, 4, 8]
        for p in points:
            assert p.trial_count == config.num_trials
            assert p.ratio_ml == pytest.approx(p.mean_rate_ml / p.mean_capacity)

    @settings(max_examples=100, deadline=None)
    @given(
        trials=st.integers(1, 50),
        budgets=st.integers(1, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_curve_statistics_equal_per_row_formulas(self, trials, budgets, seed):
        # one mean and one std call along the trial axis give every budget's
        # point the bits that a call on its own row gives
        gen = np.random.default_rng(seed)
        rates = gen.uniform(0.0, 1.0, (2, budgets, trials)) * 10.0 ** gen.uniform(
            -3.0, 2.0, (2, budgets, 1)
        )
        means, stderrs = _mean_and_stderr(rates)
        assert means.shape == stderrs.shape == (2, budgets)
        for row, mean, stderr in zip(
            rates.reshape(-1, trials), means.ravel(), stderrs.ravel()
        ):
            assert float(mean) == float(np.mean(row))
            expected = 0.0 if trials < 2 else float(
                np.std(row, ddof=1) / np.sqrt(row.size)
            )
            assert float(stderr) == expected

    def test_ml_ratio_nondecreasing_within_two_stderr(self):
        config = ExperimentConfig(
            pilot_budgets=(2, 3, 5, 8), num_trials=300, rng_seed=3
        )
        points = run_rate_experiment(config)
        for a, b in zip(points, points[1:]):
            combined = np.hypot(a.stderr_ml, b.stderr_ml) / a.mean_capacity
            assert b.ratio_ml >= a.ratio_ml - 2.0 * combined

    def test_ls_ratio_matches_closed_form_oracle(self):
        # oracle: the full-rank LS estimate is g plus D_h^{-1} B^H w / (N sqrt(P_p));
        # simulate that closed form directly with 10x the trials
        n, L = 8, 8
        config = ExperimentConfig(
            num_elements=n,
            pilot_budgets=(L,),
            num_trials=400,
            grid_points=300,
            rng_seed=5,
        )
        point = run_rate_experiment(config)[0]

        oracle_rng = np.random.default_rng(1005)
        array = ArrayModel(n, config.spacing_ratio)
        data_power, pilot_power = snr_to_powers(config)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        rates = np.zeros(4000)
        caps = np.zeros(4000)
        for t in range(rates.size):
            aoa = oracle_rng.uniform(*config.ue_angle_range)
            omega = oracle_rng.uniform(0.0, 2 * np.pi)
            g = los_vector(array, 1.0, omega, aoa)
            h = _draw_unit_coefficients(n, oracle_rng)
            rows = dft[:, oracle_rng.permutation(n)[:L]].T
            w = (
                oracle_rng.standard_normal(L) + 1j * oracle_rng.standard_normal(L)
            ) / np.sqrt(2.0)
            estimate = g + (rows.conj().T @ w) / (L * np.sqrt(pilot_power) * h)
            shifts = np.angle(h) + np.angle(estimate)
            eff = np.sum(h * g * np.exp(-1j * shifts))
            rates[t] = np.log2(1.0 + abs(eff) ** 2 * data_power)
            caps[t] = np.log2(1.0 + np.sum(np.abs(h * g)) ** 2 * data_power)
        oracle_ratio = rates.mean() / caps.mean()
        oracle_stderr = rates.std(ddof=1) / np.sqrt(rates.size) / caps.mean()
        combined = np.hypot(point.stderr_ls / point.mean_capacity, oracle_stderr)
        assert abs(point.ratio_ls - oracle_ratio) <= 3.0 * combined

    def test_effectively_noise_free_budget_n_reaches_capacity(self):
        # +300 dB pilot offset makes the pilots noise-free to ~1e-15; the
        # LS path recovers the channel exactly and the ML path loses only
        # grid quantization, which a finer grid must shrink
        base = dict(
            num_elements=8,
            pilot_budgets=(8,),
            num_trials=40,
            pilot_snr_offset_db=300.0,
            rng_seed=9,
        )
        coarse = run_rate_experiment(ExperimentConfig(**base, grid_points=500))[0]
        assert coarse.ratio_ls == pytest.approx(1.0, abs=1e-9)
        assert coarse.ratio_ml > 0.999
        assert coarse.ratio_ml <= 1.0 + 1e-12
        fine = run_rate_experiment(ExperimentConfig(**base, grid_points=5000))[0]
        assert (1.0 - fine.ratio_ml) <= (1.0 - coarse.ratio_ml) + 1e-12


class TestUtilityTrace:
    def test_stage_structure_and_db_conversion(self):
        config = ExperimentConfig(
            num_elements=16, pilot_budgets=(2, 8), num_trials=1,
            grid_points=300, rng_seed=2,
        )
        summary = run_single_estimate(config, 0.3, 6)
        # one stage per L = 2, ..., 6
        assert summary.utilities.shape == (5, 300)
        for utility, aoa in zip(summary.utilities, summary.aoa_estimates, strict=True):
            db = utility_db(utility)
            peak = int(np.argmax(utility))
            # the estimate sits at the largest utility, in dB as well
            assert summary.grid.angles[peak] == aoa
            assert db[peak] == np.max(db)

    def test_rejects_truth_outside_ue_range(self):
        config = ExperimentConfig(num_elements=8, pilot_budgets=(2, 4), num_trials=1)
        with pytest.raises(AngleDomainError):
            run_single_estimate(config, 1.2, 4)

    def test_effectively_noise_free_argmax_sits_at_truth(self):
        config = ExperimentConfig(
            num_elements=16,
            pilot_budgets=(2, 8),
            num_trials=1,
            grid_points=1000,
            pilot_snr_offset_db=300.0,
            rng_seed=4,
        )
        angles = config.grid().angles
        truth = float(angles[np.argmin(np.abs(angles - (-np.pi / 4)))])
        utilities = run_single_estimate(config, truth, 8).utilities
        assert len(utilities) == 7
        for utility in utilities:
            assert angles[np.argmax(utility)] == truth

    def test_two_pilot_stage_has_near_equal_peaks(self):
        # with two pilots several angles explain the data almost equally well
        config = ExperimentConfig(rng_seed=3, num_trials=1)
        summary = run_single_estimate(config, -np.pi / 4, 10)
        first = utility_db(summary.utilities[0])
        peaks = np.sort(first[local_peak_indices(first)])[::-1]
        assert peaks.size >= 2
        assert peaks[0] - peaks[1] < 3.0


class TestSingleRun:
    def test_summary_is_deterministic_and_bounded(self):
        config = ExperimentConfig(
            num_elements=16, pilot_budgets=(2, 5), num_trials=1, rng_seed=8
        )
        first = run_single_estimate(config, 0.4, 5)
        second = run_single_estimate(config, 0.4, 5)
        assert first.achieved_rate == second.achieved_rate
        assert 0.0 <= first.achieved_rate <= first.capacity_value + 1e-12
        assert first.config_angles.size == 5
        assert first.ratio <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 24),
        points=st.integers(50, 600),
        seed=st.integers(0, 2**32 - 1),
        true_aoa=st.floats(-math.pi / 3, math.pi / 3),
        draw=st.integers(0, 2**16),
    )
    def test_is_trial_zero_of_the_chunk_function(self, n, points, seed, true_aoa, draw):
        # the single run is no second route into the core: its angles,
        # estimates, utilities, result and rate are those of _run_trials on
        # [SeedSequence(rng_seed)] at the given angle, bit for bit
        budget = 2 + draw % (n - 1)
        config = ExperimentConfig(
            num_elements=n, grid_points=points, pilot_budgets=(budget,),
            num_trials=1, rng_seed=seed,
        )
        summary = run_single_estimate(config, true_aoa, budget)
        setup = build_adaptive_setup(config.array(), config.grid())
        rates, run = simulate._run_trials(
            config, setup, dft_rows(n), [np.random.SeedSequence(seed)],
            aoa=true_aoa, keep_utility=True,
        )
        result = summary.result
        for values, expected in (
            (summary.config_angles, setup.angles[run.picks[0]]),
            (summary.aoa_estimates, setup.grid_angles[run.peaks[0]]),
            (summary.utilities, run.utilities[:, 0]),
            (np.array([result.gain, result.phase]), np.array([run.gains[0], run.phases[0]])),
            (np.float64(summary.achieved_rate), rates[0, 0, 0]),
        ):
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()
        assert result.aoa == summary.aoa_estimates[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 64),
        spacing=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data_snr_db=st.floats(-10.0, 20.0),
        true_aoa=st.floats(-math.pi / 3, math.pi / 3),
        draw=st.integers(0, 2**16),
    )
    # sum_n |h_n g_n| of this run rounds below 3
    @example(n=3, spacing=0.25, seed=13, data_snr_db=0.0, true_aoa=0.3, draw=0)
    def test_scores_against_the_shared_capacity(
        self, n, spacing, seed, data_snr_db, true_aoa, draw
    ):
        # the single run shares the Monte Carlo's capacity and scorer: its
        # rate is phase-matched through |h| * g, and that effective channel
        # is, to rounding, the physical one of the configuration built from
        # h's phases and the estimate's steering vector, applied to D_h g
        config, summary, h, g = single_run(n, spacing, seed, data_snr_db, true_aoa, draw)
        data_power, _ = snr_to_powers(config)
        assert summary.capacity_value == achievable_rate(float(n), data_power)
        estimate = array_response(config.array(), summary.result.aoa)
        matched = np.sum(np.abs(h) * g * np.exp(-1j * np.angle(estimate)))
        assert summary.achieved_rate == achievable_rate(matched, data_power)
        shifts = np.angle(h) + np.angle(estimate)
        physical = np.sum(h * g * np.exp(-1j * shifts))
        # the two sides sum the same N unit paths; each computed path is
        # within 8 eps of its exact value (a few products, angles and one
        # exp), and each sum adds at most (N - 1) eps of its N. A rate bound
        # of N eps of the capacity does not follow: at low SNR a rate moves
        # by 2 |eff| delta P_d / ln 2, up to 2 delta / N of the capacity
        bound = 2 * (8 + n - 1) * n * np.finfo(float).eps
        assert abs(abs(physical) - abs(matched)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 64),
        spacing=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data_snr_db=st.floats(-10.0, 20.0),
        true_aoa=st.floats(-math.pi / 3, math.pi / 3),
        draw=st.integers(0, 2**16),
    )
    # mean |h|^2 of this draw rounds to 1 + 2^-52, so P_p / mean|h|^2 is not P_p
    @example(n=3, spacing=0.25, seed=65, data_snr_db=0.0, true_aoa=0.0, draw=0)
    def test_scores_the_steering_vector_as_the_monte_carlo_does(
        self, n, spacing, seed, data_snr_db, true_aoa, draw
    ):
        # the Monte Carlo scores every ML peak's bare steering vector; the
        # single run's estimate is scored through the same input, bit for bit
        config, summary, h, g = single_run(n, spacing, seed, data_snr_db, true_aoa, draw)
        data_power, _ = snr_to_powers(config)
        array, estimate = config.array(), summary.result
        steering = array_response(array, estimate.aoa)
        assert summary.achieved_rate == _phase_matched_rate(
            np.abs(h) * g, steering, data_power
        )
        # the estimate's gain and common phase drop out of the phase-matched
        # rate, so its whole vector scores the same to rounding
        expanded = _phase_matched_rate(
            np.abs(h) * g, channel_vector(estimate, array), data_power
        )
        bound = n * np.finfo(float).eps * summary.capacity_value
        assert abs(summary.achieved_rate - expanded) <= bound


def single_run(n, spacing, seed, data_snr_db, true_aoa, draw):
    """A seeded single run at a drawn budget L, with its BS-RIS channel h and g.

    The run is replayed from its documented recipe: ``SeedSequence(seed)``
    draws the reference phase, then N uniform phases for h, then 4L normals,
    the first 2L of which are the pilot noise. ``advance_trials`` at the
    configured P_p on those draws must make the run's picks, estimates and
    utilities again.
    """
    budget = 2 + draw % (n - 1)
    config = ExperimentConfig(
        num_elements=n, spacing_ratio=spacing, data_snr_db=data_snr_db,
        pilot_budgets=(budget,), num_trials=1, rng_seed=seed,
    )
    summary = run_single_estimate(config, true_aoa, budget)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    h = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    normals = rng.standard_normal(4 * budget)
    array = config.array()
    g = los_vector(array, 1.0, phase, true_aoa)
    _, pilot_power = snr_to_powers(config)
    setup = build_adaptive_setup(array, config.grid())
    replay = advance_trials(
        setup, (np.abs(h) * g)[None], pilot_power,
        pilot_noise(normals[None, :2 * budget]), budget, keep_utility=True,
    )
    for values, expected in (
        (setup.angles[replay.picks[0]], summary.config_angles),
        (setup.grid_angles[replay.peaks[0]], summary.aoa_estimates),
        (replay.utilities[:, 0], summary.utilities),
    ):
        assert values.tobytes() == expected.tobytes()
    return config, summary, h, g
