"""Tests for the adaptive pilot-configuration loop and its candidate selection."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispilot import (
    AoaSearchGrid,
    ArrayModel,
    DegenerateDirectionError,
    DimensionError,
    InsufficientPilotsError,
    InvalidInputError,
    KnownBsRisChannel,
    LosChannel,
    PoolExhaustedError,
    RisConfiguration,
    achievable_rate,
    array_response,
    build_adaptive_setup,
    expand_channel,
    optimal_configuration,
    plausible_angles,
    random_bs_ris_channel,
    run_adaptive_estimation,
)
from rispilot import adaptive
from rispilot.adaptive import advance_trials, pilot_noise, pilot_power_for_snr
from rispilot.estimators import _projection_tables
from rispilot.model import los_vector

from conftest import (
    NEAR_NULL,
    assert_steps_match_batch,
    candidate_rows,
    capacity,
    circular_diff,
    coefficient_at,
    direct_utility,
    effective_channel,
    local_peak_indices,
    parametric_ml_estimate,
    pilot_energy,
    prefix_campaign,
    prefix_results,
    reference_advance_trials,
    run_with_campaign,
    simulate_pilot_reception,
)


def snap_to_grid(grid: AoaSearchGrid, target: float) -> float:
    angles = grid.angles
    return float(angles[np.argmin(np.abs(angles - target))])


class TestPlausibleAngles:
    def test_four_elements(self):
        # hand computation: m in {-1, 0, 1, 2} -> arcsin of {-1/2, 0, 1/2, 1}
        angles = plausible_angles(4)
        assert np.allclose(angles, [-np.pi / 6, 0.0, np.pi / 6, np.pi / 2])

    def test_single_element(self):
        assert np.array_equal(plausible_angles(1), [0.0])

    def test_forty_elements_sine_spacing(self):
        angles = plausible_angles(40)
        assert angles.size == 40
        sines = np.sin(angles)
        assert sines[0] == pytest.approx(-0.95)
        assert sines[-1] == pytest.approx(1.0)
        assert np.allclose(np.diff(sines), 0.05)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 16])
    def test_count_and_sines(self, n):
        angles = plausible_angles(n)
        assert angles.size == n
        m = np.arange(-((n - 1) // 2), n // 2 + 1)
        assert np.allclose(np.sin(angles), 2.0 * m / n, atol=1e-12)

    def test_result_is_read_only(self):
        angles = plausible_angles(8)
        with pytest.raises(ValueError):
            angles[0] = 0.0

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 40])
    def test_candidate_gram_is_diagonal_at_half_wavelength(self, n):
        # at rho = 1/2 the candidates are the N columns of a DFT: their
        # Gram is exactly N I; at rho = 1/4 neighbours 2/N apart in sine
        # keep |sin(pi/2) / (N sin(pi/(2N)))| ~ 2/pi of the peak
        responses = array_response(ArrayModel(n, 0.5), plausible_angles(n))
        gram = responses @ responses.conj().T
        np.testing.assert_allclose(gram, n * np.eye(n), rtol=0, atol=1e-12 * n)
        if n > 2:
            quarter = array_response(ArrayModel(n, 0.25), plausible_angles(n))
            neighbour = abs(np.vdot(quarter[0], quarter[1])) / n
            assert neighbour == pytest.approx(1.0 / (n * math.sin(math.pi / (2 * n))))


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
        assert rate == pytest.approx(capacity(h.coefficients, g, 2.0), rel=1e-9)

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
    """The N candidate configurations and their used mask, seen through runs."""

    def test_pool_holds_one_config_per_angle(self, rng):
        n = 4
        array = ArrayModel(n, 0.25)
        h = KnownBsRisChannel(np.ones(n))
        record, campaign = run_with_campaign(
            LosChannel(1.0, 0.4, 0.3), h, array, n, 10.0, rng
        )
        angles = list(record.config_angles)
        assert sorted(angles) == list(plausible_angles(n))
        for angle, row in zip(angles, campaign.config_matrix, strict=True):
            expected = np.conj(
                np.exp(-2j * np.pi * 0.25 * np.arange(n) * np.sin(angle))
            )
            assert np.allclose(row, expected, atol=1e-12)

    def test_each_pilot_sends_one_unsent_candidate(self, rng):
        # every pilot consumes one unused candidate, and the picks of a
        # shorter budget are the first picks of the full budget
        n = 6
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.5, -0.3)
        full = run_adaptive_estimation(channel, h, array, n, 10.0, 8)
        picks = list(full.config_angles)
        assert sorted(picks) == list(plausible_angles(n))
        for budget in range(2, n):
            record = run_adaptive_estimation(channel, h, array, budget, 10.0, 8)
            assert list(record.config_angles) == picks[:budget]

    def test_third_pilot_is_the_estimated_angles_beam(self):
        # noise-free truth on candidate angle 10 and on grid point 0: the
        # two-pilot estimate is that angle, so the third pilot is its beam
        n = 16
        array = ArrayModel(n, 0.25)
        target = float(plausible_angles(n)[10])
        grid = AoaSearchGrid(target, np.pi / 2, 500)
        for seed in range(3):
            h = random_bs_ris_channel(n, seed)
            record = run_adaptive_estimation(
                LosChannel(1.0, 0.7, target), h, array, 3, math.inf, seed, grid
            )
            assert record.aoa_estimates[0] == target
            assert record.config_angles[2] == target

    def test_rows_match_per_candidate_optimal_configurations(self, rng):
        # reference: the configuration each candidate has as its own object
        n = 40
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        record, campaign = run_with_campaign(
            LosChannel(1.0, 2.0, 0.3), h, array, n, 10.0, rng
        )
        rows = zip(record.config_angles, campaign.config_matrix, strict=True)
        for angle, row in rows:
            expected = optimal_configuration(h, angle, array).phases
            assert np.array_equal(row, expected)

    def test_picks_agree_with_correlation_argmax(self, rng):
        # oracle: each pick after the starting pair is the argmax of the
        # correlation |a^H b| with the configuration optimal for the current
        # estimate, over the unused candidates in angle order, so ties
        # resolve to the smallest unused angle
        n = 40
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 1.1, -0.45)
        record = run_adaptive_estimation(channel, h, array, n, 10.0, rng)
        angles = plausible_angles(n)
        # pilot i + 1 follows the estimate from the first i pilots
        for i in range(2, n):
            picked = set(record.config_angles[:i])
            unused = [float(a) for a in angles if a not in picked]
            reference = optimal_configuration(h, record.aoa_estimates[i - 2], array)
            scores = [
                abs(np.vdot(reference.phases, row))
                for row in candidate_rows(h, unused, array)
            ]
            assert record.config_angles[i] == unused[int(np.argmax(scores))]

    def test_ties_go_to_smallest_remaining_angle(self):
        # nearest-sine tie: at N=10 the sines -0.6/-0.4 are equally far
        # from -0.5, and 0.4/0.6 from 0.5
        array = ArrayModel(10, 0.25)
        h = random_bs_ris_channel(10, 2)
        channel = LosChannel(1.0, 0.3, 0.2)
        record = run_adaptive_estimation(channel, h, array, 2, 10.0, 1)
        angles = plausible_angles(10)
        assert list(record.config_angles) == [angles[1], angles[6]]
        # best-match tie: at a vanishing spacing every candidate is the
        # all-ones beam, so all scores are exactly equal
        n = 8
        array = ArrayModel(n, 1e-300)
        h = KnownBsRisChannel(np.ones(n))
        rows = candidate_rows(h, plausible_angles(n), array)
        assert np.all(np.abs(rows @ np.conj(rows[0])) == n)
        record = run_adaptive_estimation(
            channel, h, array, n, 10.0, 1, AoaSearchGrid(num_points=50)
        )
        sines = [round(math.sin(a), 12) for a in record.config_angles]
        assert sines == [-0.5, 0.5, -0.75, -0.25, 0.0, 0.25, 0.75, 1.0]

    def test_rejects_mismatched_shapes(self, rng):
        array = ArrayModel(6, 0.25)
        channel = LosChannel(1.0, 0.0, 0.1)
        for length in (5, 7):
            h = random_bs_ris_channel(length, rng)
            with pytest.raises(DimensionError):
                run_adaptive_estimation(channel, h, array, 3, 10.0, rng)


class TestConfigCorrelation:
    """Candidate-beam correlations |a_i^H a(angle)|, read from the setup's table.

    The configurations cancel the BS-RIS phases, so |P| at |h| = 1 is the
    correlation of candidate i with the configuration optimal at each grid
    angle; a two-point grid puts the grid angles on chosen candidates.
    """

    @staticmethod
    def correlations(array, lower, upper):
        """sqrt(|P|^2) of the setup whose grid is just ``lower`` and ``upper``."""
        setup = build_adaptive_setup(array, AoaSearchGrid(lower, upper, 2))
        return np.sqrt(setup.projection_energy)

    def test_identical_configs_give_element_count(self):
        n = 9
        angles = plausible_angles(n)
        table = self.correlations(ArrayModel(n, 0.25), angles[3], angles[4])
        assert table[3, 0] == pytest.approx(float(n))
        assert table[4, 1] == pytest.approx(float(n))

    def test_half_wavelength_pool_pairs_are_orthogonal(self):
        n = 10
        array = ArrayModel(n, 0.5)
        angles = plausible_angles(n)
        for i, j in ((0, 3), (1, 8), (2, 5)):
            value = self.correlations(array, angles[i], angles[j])[i, 1]
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_quarter_wavelength_nulls_at_doubled_spacing(self):
        # with quarter-wavelength spacing the kernel nulls sit at sine
        # differences of 4k/N instead of 2k/N
        n = 12
        array = ArrayModel(n, 0.25)
        angles = plausible_angles(n)
        sines = np.sin(angles)
        null = self.correlations(array, angles[0], angles[2])[0, 1]
        assert sines[2] - sines[0] == pytest.approx(4.0 / n)
        assert null == pytest.approx(0.0, abs=1e-9)
        nonnull = self.correlations(array, angles[0], angles[1])[0, 1]
        assert nonnull > 1.0

    def test_orthogonal_two_element_configs(self):
        # the candidates [1, 1] and [1, -1] at broadside and endfire
        angles = plausible_angles(2)
        table = self.correlations(ArrayModel(2, 0.5), angles[0], angles[1])
        assert table[0, 1] <= 1e-15 and table[1, 0] <= 1e-15

    def test_matches_dirichlet_kernel_formula(self, rng):
        # oracle: |sin(N pi rho d) / sin(pi rho d)| in the sine difference d
        n, rho = 40, 0.25
        array = ArrayModel(n, rho)
        angles = plausible_angles(n)
        for _ in range(25):
            i, j = np.sort(rng.choice(n, size=2, replace=False))
            table = self.correlations(array, angles[i], angles[j])
            delta = math.sin(angles[j]) - math.sin(angles[i])
            x = math.pi * rho * delta
            expected = abs(math.sin(n * x) / math.sin(x))
            for measured in (table[i, 1], table[j, 0]):
                assert abs(measured - expected) <= 1e-9 * max(expected, 1.0)


class TestInitialPair:
    def starting_sines(self, n, rng):
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        record = run_adaptive_estimation(
            LosChannel(1.0, 0.0, 0.2), h, array, 2, 10.0, rng
        )
        return record, np.sin(record.config_angles)

    def test_forty_elements_picks_half_sines(self, rng):
        _, sines = self.starting_sines(40, rng)
        assert list(sines) == pytest.approx([-0.5, 0.5])

    def test_two_elements_uses_both(self, rng):
        h = random_bs_ris_channel(2, rng)
        record, campaign = run_with_campaign(
            LosChannel(1.0, 0.0, 0.2), h, ArrayModel(2, 0.25), 2, 10.0, rng
        )
        assert sorted(record.config_angles) == list(plausible_angles(2))
        first, second = campaign.config_matrix
        assert not np.array_equal(first, second)

    def test_four_elements_picks_inner_pair(self, rng):
        _, sines = self.starting_sines(4, rng)
        assert list(sines) == pytest.approx([-0.5, 0.5])

    def test_exhausted_pool(self, rng):
        with pytest.raises(PoolExhaustedError):
            self.starting_sines(1, rng)

    def test_reference_pair_has_exact_nulls_at_endfire(self, rng):
        # at N = 40, rho = 1/4 a beam at sine u0 has nulls where
        # N rho (u - u0) = 10 (u - u0) is a nonzero integer; from u0 = +-0.5
        # that includes u = +-1, the grid's endpoints, for both beams
        array, grid = ArrayModel(40, 0.25), AoaSearchGrid()
        h = random_bs_ris_channel(40, rng)
        record, campaign = run_with_campaign(
            LosChannel(1.0, 0.0, 0.2), h, array, 2, math.inf, rng, grid
        )
        assert list(np.sin(record.config_angles)) == [-0.5, 0.5]
        energy = pilot_energy(campaign, array, grid.angles)
        peak = np.max(energy)
        # zero up to rounding at +-90 degrees, while the next grid points
        # are small but resolved
        assert np.all(energy[[0, -1]] <= 1e-24 * peak)
        assert np.all(energy[[1, -2]] >= 1e-13 * peak)


class TestPeakHelpers:
    def test_local_peak_indices(self):
        values = np.array([3.0, 1.0, 2.0, 5.0, 2.0, 2.5, 1.0, 0.5])
        assert list(local_peak_indices(values)) == [0, 3, 5]


class TestAdaptiveRun:
    def run_noise_free(self, rng, n=8, budget=5, grid_points=900):
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=grid_points)
        truth_angle = snap_to_grid(grid, float(rng.choice(plausible_angles(n))))
        channel = LosChannel(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0, 2 * np.pi)), truth_angle
        )
        h = random_bs_ris_channel(n, rng)
        record, campaign = run_with_campaign(
            channel, h, array, budget, math.inf, rng, grid
        )
        return array, grid, channel, record, campaign

    def test_rejects_bad_budgets(self, rng):
        array = ArrayModel(6, 0.25)
        h = random_bs_ris_channel(6, rng)
        channel = LosChannel(1.0, 0.0, 0.1)
        with pytest.raises(InsufficientPilotsError):
            run_adaptive_estimation(channel, h, array, 1, 10.0, rng)
        with pytest.raises(PoolExhaustedError):
            run_adaptive_estimation(channel, h, array, 7, 10.0, rng)

    def test_budget_must_be_an_integer(self, rng):
        # a package error, not numpy's TypeError; a whole float is that integer
        array = ArrayModel(8, 0.25)
        h = random_bs_ris_channel(8, rng)
        channel = LosChannel(1.0, 0.0, 0.1)
        grid = AoaSearchGrid(num_points=200)
        with pytest.raises(InvalidInputError, match="budget 2.5 must be an integer"):
            run_adaptive_estimation(channel, h, array, 2.5, 10.0, rng, grid)
        record = run_adaptive_estimation(channel, h, array, 3.0, 10.0, 7, grid)
        assert record.config_angles.size == 3
        assert record.aoa_estimates.size == 2

    def test_inputs_are_checked_before_the_setup_is_built(self, monkeypatch):
        # the setup's N x G tables are the run's largest allocation (about
        # 157 MiB at N = 256, G = 20 000): a wrong-length BS-RIS channel and
        # an unrepresentable pilot power must fail before it is built
        built = []
        build = adaptive.build_adaptive_setup

        def recording(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(adaptive, "build_adaptive_setup", recording)
        array, grid = ArrayModel(8, 0.25), AoaSearchGrid(num_points=200)
        h = random_bs_ris_channel(8, 1)
        with pytest.raises(DimensionError):
            run_adaptive_estimation(
                LosChannel(1.0, 0.0, 0.1), random_bs_ris_channel(7, 1), array, 3,
                10.0, 1, grid,
            )
        with pytest.raises(InvalidInputError, match="finite pilot power"):
            run_adaptive_estimation(
                LosChannel(1e-320, 0.0, 0.1), h, array, 3, 10.0, 1, grid
            )
        assert built == []
        run_adaptive_estimation(LosChannel(1.0, 0.0, 0.1), h, array, 3, 10.0, 1, grid)
        assert built == [(array, grid)]

    def test_noise_free_recovery_on_grid_truth(self, rng):
        # oracle: exhaustive scalar utility evaluation shows a unique maximizer
        array, grid, channel, record, campaign = self.run_noise_free(rng)
        assert record.result.aoa == channel.aoa
        assert record.result.gain == pytest.approx(channel.gain, rel=1e-9)
        assert circular_diff(record.result.phase, channel.phase) < 1e-9
        values = direct_utility(campaign, array, grid.angles)
        best = int(np.argmax(values))
        assert grid.angles[best] == channel.aoa
        assert np.all(np.delete(values, best) < values[best])

    def test_step_structure_and_pool_discipline(self, rng):
        n, budget = 10, 6
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 1.0, 0.5)
        grid = AoaSearchGrid()
        results = prefix_results(channel, h, array, budget, 10.0, rng, grid)
        record = run_adaptive_estimation(channel, h, array, budget, 10.0, rng, grid)
        # one config angle per pilot; one estimate per pilot from the second
        assert record.config_angles.shape == (budget,)
        assert record.aoa_estimates.shape == (budget - 1,)
        assert np.all(np.isfinite(record.aoa_estimates))
        for result in results:
            assert math.isfinite(result.gain) and math.isfinite(result.phase)
        assert record.utilities.shape == (budget - 1, record.grid.num_points)
        pool_angle_set = set(np.round(plausible_angles(n), 12))
        used = [round(a, 12) for a in record.config_angles]
        assert len(set(used)) == budget  # never reissues a configuration
        assert set(used) <= pool_angle_set
        assert record.samples.shape == (budget,)

    def test_interim_estimates_match_batch_estimators(self, rng):
        # dual route: the table-driven loop must agree with the one-shot
        # estimators applied to each prefix of the recorded campaign, to
        # rounding; this run has no near-null argmax, so every step counts
        n, budget = 12, 7
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=700)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 2.0, -0.4)
        results = prefix_results(channel, h, array, budget, 10.0, rng, grid)
        record, campaign = run_with_campaign(
            channel, h, array, budget, 10.0, rng, grid
        )
        assert assert_steps_match_batch(
            record, campaign, array, grid, results
        ) == budget - 1
        for i in range(2, budget + 1):
            prefix = prefix_campaign(campaign, i)
            aoa = record.aoa_estimates[i - 2]
            batch = parametric_ml_estimate(prefix, array, grid)
            assert batch.aoa == aoa
            # the coefficient projected onto the one estimated angle alone
            gain, phase = coefficient_at(prefix, array, aoa)
            assert gain == pytest.approx(results[i - 2].gain, rel=1e-12)
            assert circular_diff(phase, results[i - 2].phase) < 1e-12

    def test_monotone_information_at_true_angle(self, rng):
        # adding a pilot can only add energy along the true direction
        array, grid, channel, record, campaign = self.run_noise_free(
            rng, n=10, budget=8
        )
        utilities = []
        for i in range(2, 9):
            prefix = prefix_campaign(campaign, i)
            utilities.append(direct_utility(prefix, array, [channel.aoa])[0])
        assert all(b >= a * (1 - 1e-12) for a, b in zip(utilities, utilities[1:]))

    def test_full_budget_consumes_pool_and_matches_one_shot(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=500)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.3, 0.2)
        results = prefix_results(channel, h, array, n, 10.0, rng, grid)
        record, campaign = run_with_campaign(channel, h, array, n, 10.0, rng, grid)
        used = sorted(round(a, 12) for a in record.config_angles)
        assert used == sorted(np.round(plausible_angles(n), 12))
        batch = parametric_ml_estimate(campaign, array, grid)
        assert batch.aoa == record.result.aoa
        assert batch.gain == pytest.approx(record.result.gain, rel=1e-12)
        assert circular_diff(batch.phase, record.result.phase) < 1e-12
        np.testing.assert_allclose(
            expand_channel(batch, array), expand_channel(record.result, array),
            rtol=1e-12,
        )
        assert assert_steps_match_batch(record, campaign, array, grid, results) == n - 1

    def test_deterministic_given_seed(self):
        n = 10
        array = ArrayModel(n, 0.25)
        h = random_bs_ris_channel(n, 5)
        channel = LosChannel(1.0, 0.9, -0.2)
        first = run_adaptive_estimation(channel, h, array, 6, 10.0, rng=99)
        second = run_adaptive_estimation(channel, h, array, 6, 10.0, rng=99)
        assert np.array_equal(first.samples, second.samples)
        assert first.result.aoa == second.result.aoa
        assert first.result.gain == second.result.gain

    def test_record_utility_traces(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=300)
        h = random_bs_ris_channel(n, rng)
        channel = LosChannel(1.0, 0.0, -0.6)
        record = run_adaptive_estimation(channel, h, array, 4, 10.0, rng, grid)
        # the first pilot alone has no utility: one row per later pilot
        assert record.utilities.shape == (3, 300)
        for utility, aoa in zip(record.utilities, record.aoa_estimates, strict=True):
            assert grid.angles[np.argmax(utility)] == aoa
        for values in (
            record.config_angles, record.samples, record.aoa_estimates,
            record.utilities,
        ):
            with pytest.raises(ValueError):
                values[0] = 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(3, 40),
        points=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
        snr=st.sampled_from([1.0, 10.0, 100.0]),
    )
    # two pilots from the starting pair tie the utility at -90 and +90 deg
    # to one ulp here, and each phase profile's rounding picks another side
    @example(n=18, points=50, seed=3628801, snr=100.0)
    def test_picks_and_estimates_ignore_bs_ris_phases(self, n, points, seed, snr):
        # the configurations compensate the known BS-RIS phases, so two
        # random phase profiles under the same noise must give the same run,
        # up to the first argmax on a near-null direction, where the utility
        # divides noise by almost nothing, or on a tie, where rounding of the
        # phase compensation decides which of the tied angles wins
        gen = np.random.default_rng(seed)
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=points)
        channel = LosChannel(
            1.0, float(gen.uniform(0, 2 * np.pi)), float(gen.uniform(-1.0, 1.0))
        )
        noise_seed = int(gen.integers(2**32))
        hs = [random_bs_ris_channel(n, gen) for _ in range(2)]
        g = expand_channel(channel, array)
        assert capacity(hs[0].coefficients, g, snr) == pytest.approx(
            capacity(hs[1].coefficients, g, snr), rel=1e-12
        )
        runs = [
            run_with_campaign(channel, h, array, n, snr, noise_seed, grid)
            for h in hs
        ]
        (first, _), (second, _) = runs
        assert first.config_angles[0] == second.config_angles[0]
        # estimate i comes from the first i + 2 pilots and picks pilot i + 3
        for i in range(n - 1):
            assert first.config_angles[i + 1] == second.config_angles[i + 1]
            ambiguous = False
            for run, campaign in runs:
                prefix = prefix_campaign(campaign, i + 2)
                energy = pilot_energy(prefix, array, grid.angles)
                peak = int(np.argmax(run.utilities[i]))
                ambiguous |= energy[peak] <= NEAR_NULL * np.max(energy)
                runner_up = np.max(np.delete(run.utilities[i], peak))
                ambiguous |= runner_up >= (1 - 1e-12) * run.utilities[i][peak]
            if ambiguous:
                break
            assert first.aoa_estimates[i] == second.aoa_estimates[i]
            # the budget-(i + 2) runs' results are these runs' estimates there
            first_gain, second_gain = (
                run_adaptive_estimation(
                    channel, h, array, i + 2, snr, noise_seed, grid
                ).result.gain
                for h in hs
            )
            assert first_gain == pytest.approx(second_gain, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 40),
        points=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
        snr=st.sampled_from([1.0, 10.0, 100.0, math.inf]),
        unit=st.booleans(),
    )
    def test_quarter_turns_of_bs_ris_phases_keep_runs_byte_identical(
        self, n, points, seed, snr, unit
    ):
        # a run sees the BS-RIS channel only as |h|, and a quarter turn of any
        # coefficient (times 1, j, -1 or -j) leaves |h| bit for bit the same,
        # so the whole run must be too: no near-null or tie carve-out
        gen = np.random.default_rng(seed)
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=points)
        channel = LosChannel(
            1.0, float(gen.uniform(0, 2 * np.pi)), float(gen.uniform(-1.0, 1.0))
        )
        magnitudes = np.ones(n) if unit else gen.uniform(0.5, 2.0, n)
        h = magnitudes * np.exp(1j * gen.uniform(0, 2 * np.pi, n))
        turned = h * np.array([1, 1j, -1, -1j])[gen.integers(0, 4, n)]
        assert np.abs(turned).tobytes() == np.abs(h).tobytes()
        budget = int(gen.integers(2, n + 1))
        first, second = (
            run_adaptive_estimation(
                channel, KnownBsRisChannel(coefficients), array, budget, snr, seed,
                grid,
            )
            for coefficients in (h, turned)
        )
        for name in ("config_angles", "samples", "aoa_estimates", "utilities"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        # every step's gain and phase: the budget-i runs' results
        first_results, second_results = (
            prefix_results(
                channel, KnownBsRisChannel(coefficients), array, budget, snr, seed,
                grid,
            )
            for coefficients in (h, turned)
        )
        for one, other in zip(first_results, second_results, strict=True):
            pair = np.array([[one.gain, one.phase], [other.gain, other.phase]])
            assert pair[0].tobytes() == pair[1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        points=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
        snr=st.sampled_from([1.0, 10.0, 100.0, math.inf]),
        unit=st.booleans(),
        data=st.data(),
    )
    def test_shorter_budget_is_the_prefix_of_a_longer_run(
        self, n, points, seed, snr, unit, data
    ):
        # a budget-i run draws the first 2i normals of a budget-L run and
        # every step reads only the pilots before it, so it is the first i
        # pilots and i-1 estimates of the longer run, bit for bit; its
        # result is the longer run's estimate from those i pilots
        longest = data.draw(st.integers(2, n), label="longest")
        budget = data.draw(st.integers(2, longest), label="budget")
        gen = np.random.default_rng(seed)
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=points)
        channel = LosChannel(
            float(gen.uniform(0.5, 2.0)), float(gen.uniform(0, 2 * np.pi)),
            float(gen.uniform(-1.0, 1.0)),
        )
        magnitudes = np.ones(n) if unit else gen.uniform(0.5, 2.0, n)
        h = KnownBsRisChannel(magnitudes * np.exp(1j * gen.uniform(0, 2 * np.pi, n)))
        short, long = (
            run_adaptive_estimation(channel, h, array, pilots, snr, seed, grid)
            for pilots in (budget, longest)
        )
        for values, expected in (
            (short.config_angles, long.config_angles[:budget]),
            (short.samples, long.samples[:budget]),
            (short.aoa_estimates, long.aoa_estimates[:budget - 1]),
            (short.utilities, long.utilities[:budget - 1]),
        ):
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()
        assert short.result.aoa == long.aoa_estimates[budget - 2]

    def test_setup_arrays_are_read_only(self):
        # one setup is shared by every trial of an experiment
        array, grid = ArrayModel(8, 0.25), AoaSearchGrid(num_points=50)
        setup = build_adaptive_setup(array, grid)
        for values in (
            setup.grid_angles, setup.angles, setup.conj_responses,
            setup.projections, setup.projection_energy, setup.scores,
            setup.start_scores,
        ):
            with pytest.raises(ValueError):
                values[0] = 0.0


class TestProjectionTables:
    """The setup's trial-independent tables against per-channel constructions."""

    def test_steering_is_the_array_response(self):
        # one steering formula: the grid table is built over a(angle) per
        # column, the same bits the estimate vectors are expanded along
        array = ArrayModel(40, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid())
        steering = array_response(array, setup.grid_angles).T
        expected = setup.conj_responses @ steering
        assert setup.projections.shape == (40, 2000)
        assert setup.projections.tobytes() == expected.tobytes()
        # each column equals the response to its angle alone
        for j in (0, 777, 1999):
            assert np.array_equal(
                steering[:, j], array_response(array, setup.grid_angles[j])
            )

    def test_tables_match_reference_constructions(self, rng):
        n = 16
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=300)
        setup = build_adaptive_setup(array, grid)
        steering = array_response(array, grid.angles).T
        for _ in range(3):
            h = random_bs_ris_channel(n, rng)
            candidates = candidate_rows(h, setup.angles, array)
            projections = candidates @ (h.coefficients[:, None] * steering)
            scores = np.array([
                np.abs(candidates @ np.conj(optimal_configuration(h, a, array).phases))
                for a in grid.angles
            ])
            tol = 1e-12 * n
            assert np.max(np.abs(setup.projections - projections)) <= tol
            assert np.max(
                np.abs(setup.projection_energy - np.abs(projections) ** 2)
            ) <= tol
            assert setup.scores.shape == (grid.num_points, n)
            assert np.max(np.abs(np.sqrt(setup.scores) - scores)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        spacing=st.floats(0.1, 1.0),
        points=st.integers(50, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_energy_scores_rank_as_magnitudes(self, n, spacing, points, seed):
        # squaring is strictly increasing on floating-point magnitudes
        # (sqrt(fl(x^2)) == x short of underflow), so the energy table ranks
        # candidates, ties included, exactly as |P|^T does
        setup = build_adaptive_setup(
            ArrayModel(n, spacing), AoaSearchGrid(num_points=points)
        )
        magnitudes = np.abs(setup.projections).T
        assert np.sqrt(setup.scores).tobytes() == magnitudes.tobytes()
        gen = np.random.default_rng(seed)
        rows = gen.integers(0, points, 20)
        sent = gen.random((20, n)) < gen.random((20, 1))
        sent[:, gen.integers(0, n)] = False  # at least one candidate is left
        energies, expected = setup.scores[rows], magnitudes[rows]
        energies[sent] = expected[sent] = -np.inf
        assert np.array_equal(
            np.argmax(energies, axis=1), np.argmax(expected, axis=1)
        )

    def test_non_unit_magnitudes_match_batch_estimators(self, rng):
        # a library caller's BS-RIS channel with |h| in [0.5, 2]: the run
        # builds its own table from |h| and still matches the batch route
        n = 12
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=700)
        for seed in range(3):
            gen = np.random.default_rng(seed)
            h = KnownBsRisChannel(
                gen.uniform(0.5, 2.0, n) * np.exp(1j * gen.uniform(0, 2 * np.pi, n))
            )
            channel = LosChannel(1.0, float(gen.uniform(0, 2 * np.pi)), -0.4)
            results = prefix_results(channel, h, array, n, 10.0, gen, grid)
            record, campaign = run_with_campaign(channel, h, array, n, 10.0, gen, grid)
            steps = assert_steps_match_batch(record, campaign, array, grid, results)
            assert steps >= n - 2

    def test_non_unit_run_holds_one_table_pair_at_a_time(self):
        # the unit projections are released before the |h| pair is built;
        # the unit energies stay as the scores, so the run peaks at about
        # 2.5 N x G complex arrays, not the two full pairs' 4
        n, points = 40, 2000
        array, grid = ArrayModel(n, 0.25), AoaSearchGrid(num_points=points)
        gen = np.random.default_rng(3)
        h = KnownBsRisChannel(
            gen.uniform(0.5, 2.0, n) * np.exp(1j * gen.uniform(0, 2 * np.pi, n))
        )
        channel = LosChannel(1.0, 0.3, -0.4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_adaptive_estimation(channel, h, array, 2, 10.0, gen, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 16 * n * points

    def test_chunked_trials_match_single_runs_bit_for_bit(self):
        # the Monte Carlo advances trials in chunks; each row must be the
        # run that run_adaptive_estimation returns for that trial alone
        n, budget, trials, snr = 16, 10, 5, 10.0
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=500)
        setup = build_adaptive_setup(array, grid)
        gen = np.random.default_rng(3)
        channels = [
            LosChannel(1.0, float(gen.uniform(0, 2 * np.pi)), float(gen.uniform(-1, 1)))
            for _ in range(trials)
        ]
        hs = [random_bs_ris_channel(n, gen) for _ in range(trials)]
        coefficients = np.stack([h.coefficients for h in hs])
        g = np.stack([expand_channel(c, array) for c in channels])
        draws = np.stack([
            np.random.default_rng(100 + t).standard_normal(2 * budget)
            for t in range(trials)
        ])
        # unit |h|: every trial's own run sends at the chunk's one power
        powers = {pilot_power_for_snr(snr, 1.0, h.coefficients) for h in hs}
        assert len(powers) == 1
        chunk = advance_trials(
            setup, np.abs(coefficients) * g, powers.pop(), pilot_noise(draws), budget,
            keep_utility=True,
        )
        for t in range(trials):
            record = run_adaptive_estimation(
                channels[t], hs[t], array, budget, snr, 100 + t, grid
            )
            utilities = np.stack([utility[t] for utility in chunk.utilities])
            for values, expected in (
                (record.config_angles, setup.angles[chunk.picks[t]]),
                (record.samples, chunk.samples[t]),
                (record.aoa_estimates, setup.grid_angles[chunk.peaks[t]]),
                (np.float64(record.result.gain), chunk.gains[t]),
                (np.float64(record.result.phase), chunk.phases[t]),
                (record.utilities, utilities),
            ):
                assert values.shape == expected.shape
                assert values.tobytes() == expected.tobytes()


class TestCoreMatchesReference:
    """``advance_trials`` against the whole-chunk loop it replaced, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        trials=st.integers(1, 12),
        n=st.integers(2, 64),
        points=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
        noisy=st.booleans(),
        unit=st.booleans(),
        keep=st.booleans(),
        data=st.data(),
    )
    def test_outputs_equal_reference_loop(
        self, trials, n, points, seed, noisy, unit, keep, data
    ):
        # the core updates each run's sums row by row and forms one gain and
        # phase per run, at its last peak; the reference gathers rows,
        # multiplies them in one broadcast and takes the gain and phase at
        # every step, the last of which is the core's. Outputs must not move
        # at all, so the comparison is of bytes
        budget = data.draw(st.integers(2, n), label="budget")
        gen = np.random.default_rng(seed)
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid(num_points=points))
        magnitudes = np.ones(n) if unit else gen.uniform(0.5, 2.0, n)
        coefficients = magnitudes * np.exp(1j * gen.uniform(0, 2 * np.pi, (trials, n)))
        if not unit:
            projections, energies = _projection_tables(
                setup.conj_responses, array, setup.grid_angles, magnitudes
            )
            setup = dataclasses.replace(
                setup, projections=projections, projection_energy=energies
            )
        g = los_vector(
            array, gen.uniform(0.25, 4.0, trials), gen.uniform(0, 2 * np.pi, trials),
            gen.uniform(-1.2, 1.2, trials),
        )
        # every trial shares the one |h|, and so one pilot power
        pilot_power = pilot_power_for_snr(
            10.0 if noisy else np.inf, 1.0, coefficients[0]
        )
        noise = None
        if noisy:
            noise = pilot_noise(gen.standard_normal((trials, 2 * budget)))
        args = (setup, np.abs(coefficients) * g, pilot_power, noise, budget)
        run = advance_trials(*args, keep_utility=keep)
        expected = reference_advance_trials(*args, keep_utility=keep)
        for name in ("picks", "samples", "peaks", "gains", "phases"):
            values, reference = getattr(run, name), getattr(expected, name)
            if name in ("gains", "phases"):  # the core's one, at the last step
                reference = reference[:, -1]
            assert values.dtype == reference.dtype and values.shape == reference.shape
            assert values.tobytes() == reference.tobytes(), name
        kept = budget - 1 if keep else 0
        assert len(run.utilities) == len(expected.utilities) == kept
        for values, reference in zip(run.utilities, expected.utilities):
            assert not values.flags.writeable
            assert values.tobytes() == reference.tobytes()


class TestCorePicks:
    """The core's picks come from the setup's score tables, within its budget."""

    @staticmethod
    def chunk(setup, trials, budget, seed):
        """Noisy unit-|h| inputs of ``advance_trials`` for ``trials`` runs."""
        gen = np.random.default_rng(seed)
        n = setup.angles.size
        coefficients = np.exp(1j * gen.uniform(0, 2 * np.pi, (trials, n)))
        g = los_vector(
            setup.array, np.ones(trials), gen.uniform(0, 2 * np.pi, trials),
            gen.uniform(-1.2, 1.2, trials),
        )
        noise = pilot_noise(gen.standard_normal((trials, 2 * budget)))
        return np.abs(coefficients) * g, 10.0, noise

    def test_picks_follow_the_setups_tables(self):
        # the core has no selection policy of its own: with one ranking in
        # both start rows and in every grid row, every trial sends the
        # candidates in the ranking's order, whatever its estimates say
        n, trials = 12, 5
        setup = build_adaptive_setup(ArrayModel(n, 0.25), AoaSearchGrid(num_points=300))
        order = np.random.default_rng(8).permutation(n)
        ranking = np.empty(n)
        ranking[order] = np.arange(n, 0, -1)  # order[0] scores highest
        start_scores = np.tile(ranking, (2, 1))
        scores = np.tile(ranking, (setup.grid_angles.size, 1))
        for values in (start_scores, scores):
            values.setflags(write=False)  # as built: the core must not write them
        setup = dataclasses.replace(setup, start_scores=start_scores, scores=scores)
        run = advance_trials(setup, *self.chunk(setup, trials, n, 8), n)
        assert np.array_equal(run.picks, np.tile(order, (trials, 1)))

    @pytest.mark.parametrize("budget, error, message", [
        (1, InsufficientPilotsError, "at least two pilots are required"),
        (5, PoolExhaustedError, "budget 5 exceeds the 4 available configurations"),
    ])
    def test_core_rejects_budgets_outside_two_to_n(self, budget, error, message):
        # the core keeps the budget rule itself: one pilot cannot complete
        # the starting pair, and N+1 pilots would have to resend a candidate
        setup = build_adaptive_setup(ArrayModel(4, 0.25), AoaSearchGrid(num_points=100))
        with pytest.raises(error, match=message):
            advance_trials(setup, *self.chunk(setup, 3, budget, 0), budget)

    def test_core_rejects_an_estimate_on_an_unlit_direction(self):
        # tables under which no pilot projects onto any direction and grid
        # direction 0 gets no energy: every utility is 0, the peak is that
        # unlit index 0, and its gain would divide by zero
        setup = build_adaptive_setup(ArrayModel(4, 0.25), AoaSearchGrid(num_points=50))
        energies = np.ones(setup.projection_energy.shape)
        energies[:, 0] = 0.0
        setup = dataclasses.replace(
            setup, projections=np.zeros(setup.projections.shape, dtype=complex),
            projection_energy=energies,
        )
        channels, pilot_power, _ = self.chunk(setup, 2, 3, 4)
        with pytest.raises(DegenerateDirectionError, match="no pilot energy"):
            advance_trials(setup, channels, pilot_power, None, 3)


class TestPilotReception:
    @pytest.mark.parametrize("gain, magnitude", [(1e-320, 1.0), (1.0, 1e200)])
    def test_unrepresentable_pilot_power_is_an_input_error(self, gain, magnitude):
        # a subnormal gain overflows the pilot power, and a huge |h| squares
        # to inf and zeroes it: both are rejected, with no numpy warning
        h = KnownBsRisChannel(magnitude * random_bs_ris_channel(8, 1).coefficients)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="finite pilot power"):
                run_adaptive_estimation(
                    LosChannel(gain, 0, 0.1), h, ArrayModel(8, 0.25), 3, 10.0, 1,
                    AoaSearchGrid(num_points=100),
                )

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

    @pytest.mark.parametrize("pilot_snr, noise_std", [(10.0, 1.0), (math.inf, 0.0)])
    def test_loop_samples_replay_reference_reception(self, pilot_snr, noise_std):
        # the loop draws its noise up front; every sample must still be
        # simulate_pilot_reception on the sent row, with the generator
        # advanced in transmission order, and draw nothing more. The loop
        # sums |h_n| conj(a_n) g_n and the reference theta_n h_n g_n: the same
        # N exact terms of magnitude |h_n g_n|, each rounded by a few unit
        # roundoffs u = eps/2 (its products and phase), then summed, which
        # adds at most (N - 1) u of their total. So each path is within
        # (N + c) u * sum |h_n g_n| sqrt(P_p) of the exact sample, c < N, and
        # one more rounding adds the noise: the two differ by less than
        # 2 N eps of that total
        n, budget = 16, 7
        array = ArrayModel(n, 0.25)
        gen = np.random.default_rng(5)
        h = random_bs_ris_channel(n, gen)
        channel = LosChannel(0.8, float(gen.uniform(0, 2 * np.pi)), 0.3)
        g = expand_channel(channel, array)
        run_rng = np.random.default_rng(11)
        _, campaign = run_with_campaign(
            channel, h, array, budget, pilot_snr, run_rng,
            AoaSearchGrid(num_points=300),
        )
        replay_rng = np.random.default_rng(11)
        bound = (
            2 * n * np.finfo(float).eps * np.sum(np.abs(h.coefficients * g))
            * np.sqrt(campaign.pilot_power)
        )
        for received, row in zip(
            campaign.received, campaign.config_matrix, strict=True
        ):
            expected = simulate_pilot_reception(
                RisConfiguration(row), h, g, campaign.pilot_power, noise_std,
                replay_rng,
            )
            assert abs(received - expected) <= bound
        assert run_rng.bit_generator.state == replay_rng.bit_generator.state
        if noise_std == 0.0:
            untouched = np.random.default_rng(11).bit_generator.state
            assert run_rng.bit_generator.state == untouched
