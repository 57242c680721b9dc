"""Tests for the adaptive pilot-configuration loop and its pool machinery."""

import math

import numpy as np
import pytest

from rispilot import (
    AoaSearchGrid,
    ArrayModel,
    ConfigurationPool,
    DimensionError,
    InsufficientPilotsError,
    KnownBsRisChannel,
    LosChannel,
    PilotCampaign,
    PlausibleAngleSet,
    PoolExhaustedError,
    RisConfiguration,
    achievable_rate,
    build_adaptive_setup,
    build_configuration_pool,
    capacity,
    config_correlation,
    effective_channel,
    estimate_aoa,
    estimate_scalar_coefficient,
    expand_channel,
    local_peak_indices,
    ml_utility,
    optimal_configuration,
    parametric_ml_estimate,
    plausible_angles,
    random_bs_ris_channel,
    run_adaptive_estimation,
    select_initial_pair,
    simulate_pilot_reception,
    top_two_peak_gap_db,
)

from conftest import circular_diff


def snap_to_grid(grid: AoaSearchGrid, target: float) -> float:
    angles = grid.angles
    return float(angles[np.argmin(np.abs(angles - target))])


class TestPlausibleAngles:
    def test_four_elements(self):
        # hand computation: m in {-1, 0, 1, 2} -> arcsin of {-1/2, 0, 1/2, 1}
        angles = plausible_angles(4).angles
        assert np.allclose(angles, [-np.pi / 6, 0.0, np.pi / 6, np.pi / 2])

    def test_single_element(self):
        assert np.array_equal(plausible_angles(1).angles, [0.0])

    def test_forty_elements_sine_spacing(self):
        angles = plausible_angles(40).angles
        assert angles.size == 40
        sines = np.sin(angles)
        assert sines[0] == pytest.approx(-0.95)
        assert sines[-1] == pytest.approx(1.0)
        assert np.allclose(np.diff(sines), 0.05)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 16])
    def test_count_and_sines(self, n):
        angles = plausible_angles(n).angles
        assert angles.size == n
        m = np.arange(-((n - 1) // 2), n // 2 + 1)
        assert np.allclose(np.sin(angles), 2.0 * m / n, atol=1e-12)


class TestOptimalConfiguration:
    def test_real_channel_broadside_is_all_ones(self):
        h = KnownBsRisChannel(np.full(5, 2.0))
        config = optimal_configuration(h, 0.0, ArrayModel(5, 0.25))
        assert np.allclose(config.phases, np.ones(5), atol=1e-15)

    def test_achieves_capacity_on_true_channel(self, rng):
        n = 12
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.8, 0.6, -0.7)
        g = expand_channel(channel, array)
        config = optimal_configuration(h, channel.aoa, array)
        rate = achievable_rate(effective_channel(config, h, g), 2.0)
        assert rate == pytest.approx(capacity(h, g, 2.0), rel=1e-9)

    def test_matches_elementwise_oracle(self):
        n = 8
        phases = np.array([np.pi / 3 * k for k in range(1, n + 1)])
        h = KnownBsRisChannel(1.5 * np.exp(1j * phases))
        array = ArrayModel(n, 0.25)
        aoa = np.pi / 6
        config = optimal_configuration(h, aoa, array)
        for k in range(n):
            expected = np.exp(-1j * phases[k]) * np.conj(
                np.exp(-2j * np.pi * 0.25 * k * np.sin(aoa))
            )
            assert abs(config.phases[k] - expected) < 1e-12


class TestConfigurationPool:
    def test_pool_holds_one_config_per_angle(self, rng):
        n = 4
        array = ArrayModel(n, 0.25)
        h = KnownBsRisChannel(np.ones(n))
        pool = build_configuration_pool(h, plausible_angles(n), array)
        assert pool.size == n
        assert len(pool.remaining) == n and not pool.used
        for entry in pool.remaining:
            expected = np.conj(
                np.exp(-2j * np.pi * 0.25 * np.arange(n) * np.sin(entry.angle))
            )
            assert np.allclose(entry.configuration.phases, expected, atol=1e-12)

    def test_take_accounting(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        pool = build_configuration_pool(h, plausible_angles(n), array)
        taken = pool.take_nearest(0.0)
        assert len(pool.remaining) + len(pool.used) == n
        assert taken in pool.used
        assert all(entry.angle != taken.angle for entry in pool.remaining)

    def test_take_best_match_prefers_reference_angle(self, rng):
        n = 16
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        pool = build_configuration_pool(h, plausible_angles(n), array)
        target = pool.remaining[5]
        chosen = pool.take_best_match(target.configuration)
        assert chosen.angle == target.angle

    def test_rows_match_per_candidate_optimal_configurations(self, rng):
        # reference: the configuration each candidate had as its own object
        n = 40
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        pool = build_configuration_pool(h, plausible_angles(n), array)
        for entry in pool.remaining:
            expected = optimal_configuration(h, entry.angle, array).phases
            assert np.array_equal(entry.configuration.phases, expected)

    def test_take_best_match_agrees_with_correlation_argmax(self, rng):
        # reference: argmax of config_correlation over pool.remaining, in
        # angle order, so ties resolve to the smallest remaining angle.
        # Beams between two candidates score both neighbours almost alike.
        n = 40
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        pool = build_configuration_pool(h, plausible_angles(n), array)
        pool.take_nearest(-0.5)
        pool.take_nearest(0.5)
        for k in range(30):
            if k % 2:
                reference = RisConfiguration(
                    np.exp(1j * rng.uniform(0, 2 * np.pi, n))
                )
            else:
                angle = float(rng.uniform(-np.pi / 2, np.pi / 2))
                reference = optimal_configuration(h, angle, array)
            remaining = pool.remaining
            scores = [config_correlation(reference, e.configuration) for e in remaining]
            expected = remaining[int(np.argmax(scores))]
            chosen = pool.take_best_match(reference)
            assert chosen is expected
            assert chosen in pool.used and chosen not in pool.remaining
        assert len(pool.remaining) == n - 32

    def test_entries_keep_their_identity(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        pool = build_configuration_pool(
            random_bs_ris_channel(n, rng), plausible_angles(n), array
        )
        before = pool.remaining
        taken = pool.take_best_match(before[3].configuration)
        assert taken is before[3]
        assert pool.remaining == before[:3] + before[4:]

    def test_ties_go_to_smallest_remaining_angle(self):
        row = np.exp(1j * np.array([0.5, 1.5]))
        angles = PlausibleAngleSet(np.array([-0.3, 0.1, 0.2, 0.4]))
        pool = ConfigurationPool(angles, np.vstack([row] * 4))
        reference = RisConfiguration(row)
        assert pool.take_best_match(reference).angle == -0.3
        assert pool.take_best_match(reference).angle == 0.1
        assert pool.take_nearest(0.25).angle == 0.2

    def test_rejects_mismatched_shapes(self):
        angles = PlausibleAngleSet(np.array([0.0, 0.1]))
        with pytest.raises(DimensionError):
            ConfigurationPool(angles, np.ones((3, 2)))
        with pytest.raises(DimensionError):
            ConfigurationPool(angles, np.ones(2))
        pool = ConfigurationPool(angles, np.ones((2, 2)))
        with pytest.raises(DimensionError):
            pool.take_best_match(RisConfiguration(np.ones(3)))


class TestConfigCorrelation:
    def test_identical_configs_give_element_count(self, rng):
        n = 9
        config = RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        assert config_correlation(config, config) == pytest.approx(float(n))

    def test_half_wavelength_pool_pairs_are_orthogonal(self, rng):
        n = 10
        array = ArrayModel(n, 0.5)
        h = random_bs_ris_channel(n, rng)
        entries = build_configuration_pool(h, plausible_angles(n), array).remaining
        for i, j in ((0, 3), (1, 8), (2, 5)):
            value = config_correlation(
                entries[i].configuration, entries[j].configuration
            )
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_quarter_wavelength_nulls_at_doubled_spacing(self, rng):
        # with quarter-wavelength spacing the kernel nulls sit at sine
        # differences of 4k/N instead of 2k/N
        n = 12
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        entries = build_configuration_pool(h, plausible_angles(n), array).remaining
        sines = np.sin([e.angle for e in entries])
        null = config_correlation(entries[0].configuration, entries[2].configuration)
        assert sines[2] - sines[0] == pytest.approx(4.0 / n)
        assert null == pytest.approx(0.0, abs=1e-9)
        nonnull = config_correlation(
            entries[0].configuration, entries[1].configuration
        )
        assert nonnull > 1.0

    def test_orthogonal_two_element_configs(self):
        a = RisConfiguration(np.array([1.0, 1.0]))
        b = RisConfiguration(np.array([1.0, -1.0]))
        assert config_correlation(a, b) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            config_correlation(
                RisConfiguration(np.ones(3)), RisConfiguration(np.ones(4))
            )

    def test_matches_dirichlet_kernel_formula(self, rng):
        # oracle: |sin(N pi rho d) / sin(pi rho d)| in the sine difference d
        n, rho = 40, 0.25
        array = ArrayModel(n, rho)
        h = random_bs_ris_channel(n, rng)
        entries = build_configuration_pool(h, plausible_angles(n), array).remaining
        for _ in range(25):
            i, j = rng.choice(n, size=2, replace=False)
            measured = config_correlation(
                entries[i].configuration, entries[j].configuration
            )
            delta = math.sin(entries[j].angle) - math.sin(entries[i].angle)
            x = math.pi * rho * delta
            expected = abs(math.sin(n * x) / math.sin(x))
            assert abs(measured - expected) <= 1e-9 * max(expected, 1.0)


class TestInitialPair:
    def test_forty_elements_picks_half_sines(self, rng):
        n = 40
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        pool = build_configuration_pool(h, plausible_angles(n), array)
        select_initial_pair(pool)
        used_sines = sorted(np.sin(entry.angle) for entry in pool.used)
        assert used_sines == pytest.approx([-0.5, 0.5])

    def test_two_elements_uses_both(self, rng):
        array = ArrayModel(2, 0.25)
        h = random_bs_ris_channel(2, rng)
        pool = build_configuration_pool(h, plausible_angles(2), array)
        first, second = select_initial_pair(pool)
        assert not pool.remaining
        assert not np.array_equal(first.phases, second.phases)

    def test_four_elements_picks_inner_pair(self, rng):
        array = ArrayModel(4, 0.25)
        h = random_bs_ris_channel(4, rng)
        pool = build_configuration_pool(h, plausible_angles(4), array)
        select_initial_pair(pool)
        assert sorted(np.sin(e.angle) for e in pool.used) == pytest.approx([-0.5, 0.5])

    def test_exhausted_pool(self, rng):
        array = ArrayModel(1, 0.25)
        h = random_bs_ris_channel(1, rng)
        pool = build_configuration_pool(h, plausible_angles(1), array)
        with pytest.raises(PoolExhaustedError):
            select_initial_pair(pool)


class TestPeakHelpers:
    def test_local_peak_indices(self):
        values = np.array([3.0, 1.0, 2.0, 5.0, 2.0, 2.5, 1.0, 0.5])
        assert list(local_peak_indices(values)) == [0, 3, 5]

    def test_peak_gap(self):
        values = np.array([0.0, 10.0, 0.0, 1.0, 0.0])
        assert top_two_peak_gap_db(values) == pytest.approx(10.0)
        assert top_two_peak_gap_db(np.array([0.0, 1.0, 0.0])) == math.inf


class TestAdaptiveRun:
    def run_noise_free(self, rng, n=8, budget=5, grid_points=900):
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=grid_points)
        truth_angle = snap_to_grid(grid, float(rng.choice(plausible_angles(n).angles)))
        channel = LosChannel(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0, 2 * np.pi)), truth_angle
        )
        h = random_bs_ris_channel(n, rng)
        record = run_adaptive_estimation(
            channel, h, array, budget, math.inf, rng, grid
        )
        return array, grid, channel, h, record

    def test_rejects_bad_budgets(self, rng):
        array = ArrayModel(6, 0.25)
        h = random_bs_ris_channel(6, rng)
        channel = LosChannel(1.0, 0.0, 0.1)
        with pytest.raises(InsufficientPilotsError):
            run_adaptive_estimation(channel, h, array, 1, 10.0, rng)
        with pytest.raises(PoolExhaustedError):
            run_adaptive_estimation(channel, h, array, 7, 10.0, rng)

    def test_noise_free_recovery_on_grid_truth(self, rng):
        # oracle: exhaustive scalar utility evaluation shows a unique maximizer
        array, grid, channel, h, record = self.run_noise_free(rng)
        assert record.result.aoa_estimate == channel.aoa
        assert record.result.gain_estimate == pytest.approx(channel.gain, rel=1e-9)
        assert circular_diff(record.result.phase_estimate, channel.phase) < 1e-9
        values = np.array(
            [ml_utility(record.campaign, array, a) for a in grid.angles]
        )
        best = int(np.argmax(values))
        assert grid.angles[best] == channel.aoa
        assert np.all(np.delete(values, best) < values[best])

    def test_step_structure_and_pool_discipline(self, rng):
        n, budget = 10, 6
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 1.0, 0.5)
        record = run_adaptive_estimation(channel, h, array, budget, 10.0, rng)
        assert [s.pilot_index for s in record.steps] == list(range(1, budget + 1))
        assert record.steps[0].aoa_estimate is None
        assert all(s.aoa_estimate is not None for s in record.steps[1:])
        pool_angle_set = set(np.round(plausible_angles(n).angles, 12))
        used = [round(s.config_angle, 12) for s in record.steps]
        assert len(set(used)) == budget  # never reissues a configuration
        assert set(used) <= pool_angle_set
        assert record.campaign.num_pilots == budget
        assert np.max(np.abs(np.abs(record.campaign.config_matrix) - 1.0)) < 1e-12

    def test_interim_estimates_match_batch_estimators(self, rng):
        # dual route: the incremental loop must agree with the one-shot
        # estimators applied to each prefix of the recorded campaign
        n, budget = 12, 7
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=700)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 2.0, -0.4)
        record = run_adaptive_estimation(channel, h, array, budget, 10.0, rng, grid)
        for i in range(2, budget + 1):
            prefix = PilotCampaign(
                record.campaign.config_matrix[:i],
                record.campaign.received[:i],
                record.campaign.pilot_power,
                h,
            )
            step = record.step_for(i)
            assert estimate_aoa(prefix, array, grid) == step.aoa_estimate
            gain, phase = estimate_scalar_coefficient(
                prefix, array, step.aoa_estimate
            )
            assert gain == pytest.approx(step.gain_estimate, rel=1e-12)
            assert circular_diff(phase, step.phase_estimate) < 1e-12

    def test_monotone_information_at_true_angle(self, rng):
        # adding a pilot can only add energy along the true direction
        array, grid, channel, h, record = self.run_noise_free(rng, n=10, budget=8)
        utilities = []
        for i in range(2, 9):
            prefix = PilotCampaign(
                record.campaign.config_matrix[:i],
                record.campaign.received[:i],
                record.campaign.pilot_power,
                h,
            )
            utilities.append(ml_utility(prefix, array, channel.aoa))
        assert all(b >= a * (1 - 1e-12) for a, b in zip(utilities, utilities[1:]))

    def test_full_budget_consumes_pool_and_matches_one_shot(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=500)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.3, 0.2)
        record = run_adaptive_estimation(channel, h, array, n, 10.0, rng, grid)
        used = sorted(round(s.config_angle, 12) for s in record.steps)
        assert used == sorted(np.round(plausible_angles(n).angles, 12))
        batch = parametric_ml_estimate(record.campaign, array, grid)
        assert batch.aoa_estimate == record.result.aoa_estimate
        assert batch.gain_estimate == pytest.approx(
            record.result.gain_estimate, rel=1e-12
        )
        assert np.max(
            np.abs(batch.channel_estimate - record.result.channel_estimate)
        ) < 1e-12

    def test_deterministic_given_seed(self):
        n = 10
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, 5)
        channel = LosChannel(1.0, 0.9, -0.2)
        first = run_adaptive_estimation(channel, h, array, 6, 10.0, rng=99)
        second = run_adaptive_estimation(channel, h, array, 6, 10.0, rng=99)
        assert np.array_equal(first.campaign.received, second.campaign.received)
        assert first.result.aoa_estimate == second.result.aoa_estimate
        assert first.result.gain_estimate == second.result.gain_estimate

    def test_initial_angle_override(self, rng):
        n = 16
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.0, 0.3)
        record = run_adaptive_estimation(
            channel,
            h,
            array,
            4,
            10.0,
            rng,
            initial_angles=(0.29, 0.4),
        )
        sines = np.sin([record.steps[0].config_angle, record.steps[1].config_angle])
        pool_sines = np.sin(plausible_angles(n).angles)
        assert sines[0] == pytest.approx(
            pool_sines[np.argmin(np.abs(pool_sines - np.sin(0.29)))]
        )
        assert sines[1] == pytest.approx(
            pool_sines[np.argmin(np.abs(pool_sines - np.sin(0.4)))]
        )

    def test_early_termination_on_peak_gap(self, rng):
        # a noise-free run develops one dominant peak, so a small gap
        # threshold must stop it before the full budget
        n = 16
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=600)
        truth = snap_to_grid(grid, float(plausible_angles(n).angles[4]))
        channel = LosChannel(1.0, 1.2, truth)
        h = random_bs_ris_channel(n, rng)
        full = run_adaptive_estimation(channel, h, array, n, math.inf, rng, grid)
        stopped = run_adaptive_estimation(
            channel, h, array, n, math.inf, rng, grid, peak_gap_db=1.0
        )
        assert len(stopped.steps) < len(full.steps)
        assert stopped.result.aoa_estimate == truth

    def test_record_utility_traces(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=300)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.0, -0.6)
        record = run_adaptive_estimation(
            channel, h, array, 4, 10.0, rng, grid, record_utility=True
        )
        assert record.steps[0].utility is None
        for step in record.steps[1:]:
            assert step.utility is not None and step.utility.size == 300
            assert grid.angles[np.argmax(step.utility)] == step.aoa_estimate
        assert record.result.utility_trace is not None

    def test_shared_setup_matches_per_run_setup(self):
        # one setup serves many runs; each must equal a run that builds its
        # own setup, down to the last bit
        n = 16
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=700)
        setup = build_adaptive_setup(array, grid)
        cases = [
            (0, None, None),
            (1, (0.29, -0.4), None),
            (2, None, 3.0),
            (3, (-1.2, 1.2), 6.0),
            (4, None, None),
        ]
        for seed, initial_angles, peak_gap_db in cases:
            gen = np.random.default_rng(seed)
            h = random_bs_ris_channel(n, gen)
            channel = LosChannel(
                1.0, float(gen.uniform(0, 2 * np.pi)), float(gen.uniform(-1, 1))
            )
            kwargs = dict(
                record_utility=True,
                initial_angles=initial_angles,
                peak_gap_db=peak_gap_db,
            )
            fresh = run_adaptive_estimation(
                channel, h, array, n, 10.0, seed + 100, grid, **kwargs
            )
            shared = run_adaptive_estimation(
                channel, h, array, n, 10.0, seed + 100, grid, setup=setup, **kwargs
            )
            assert len(fresh.steps) == len(shared.steps)
            for a, b in zip(fresh.steps, shared.steps):
                assert a.config_angle == b.config_angle
                assert a.received == b.received
                assert a.aoa_estimate == b.aoa_estimate
                assert a.gain_estimate == b.gain_estimate
                assert a.phase_estimate == b.phase_estimate
                if a.utility is None:
                    assert b.utility is None
                else:
                    assert np.array_equal(a.utility, b.utility)

    def test_rejects_setup_for_another_grid(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid(num_points=300))
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.0, 0.2)
        with pytest.raises(ValueError):
            run_adaptive_estimation(
                channel, h, array, 4, 10.0, rng, AoaSearchGrid(num_points=301),
                setup=setup,
            )


class TestPilotReception:
    def test_noise_free_returns_effective_value(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.5, 0.4, 0.1)
        g = expand_channel(channel, array)
        config = optimal_configuration(h, 0.2, array)
        value = simulate_pilot_reception(config, h, g, 4.0, 0.0, rng)
        assert value == effective_channel(config, h, g) * 2.0

    def test_seeded_reception_is_reproducible(self, rng):
        n = 4
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        g = expand_channel(LosChannel(1.0, 0.0, 0.0), array)
        config = optimal_configuration(h, 0.0, array)
        a = simulate_pilot_reception(config, h, g, 1.0, 1.0, np.random.default_rng(3))
        b = simulate_pilot_reception(config, h, g, 1.0, 1.0, np.random.default_rng(3))
        assert a == b
