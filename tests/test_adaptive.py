"""Tests for the adaptive pilot-configuration loop and its candidate selection."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispilot import (
    AoaSearchGrid,
    ArrayModel,
    DegenerateDirectionError,
    ExperimentConfig,
    InvalidInputError,
    LosChannel,
    array_response,
    build_adaptive_setup,
    plausible_angles,
    run_single_estimate,
)
from rispilot import simulate
from rispilot.adaptive import advance_trials
from rispilot.model import _draw_unit_coefficients, los_vector
from rispilot.simulate import dft_rows, pilot_noise

from conftest import (
    assert_steps_match_batch,
    candidate_rows,
    channel_vector,
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


class TestCandidateConfigurations:
    """The N candidate configurations, each sent at most once, seen through runs."""

    def test_full_budget_sends_one_config_per_angle(self, rng):
        n = 4
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid())
        noise = pilot_noise(rng.standard_normal(2 * n))
        run, campaign = run_with_campaign(
            setup, np.ones(n), los_vector(array, 1.0, 0.4, 0.3), 10.0, noise
        )
        angles = list(setup.angles[run.picks[0]])
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
        setup = build_adaptive_setup(array, AoaSearchGrid())
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 0.5, -0.3)
        noise = pilot_noise(np.random.default_rng(8).standard_normal(2 * n))
        full, _ = run_with_campaign(setup, h, g, 10.0, noise)
        picks = list(setup.angles[full.picks[0]])
        assert sorted(picks) == list(plausible_angles(n))
        for budget in range(2, n):
            run, _ = run_with_campaign(setup, h, g, 10.0, noise[:budget])
            assert list(setup.angles[run.picks[0]]) == picks[:budget]

    def test_third_pilot_is_the_estimated_angles_beam(self):
        # noise-free truth on candidate angle 10 and on grid point 0: the
        # two-pilot estimate is that angle, so the third pilot is its beam
        n = 16
        array = ArrayModel(n, 0.25)
        target = float(plausible_angles(n)[10])
        setup = build_adaptive_setup(array, AoaSearchGrid(target, np.pi / 2, 500))
        g = los_vector(array, 1.0, 0.7, target)
        for seed in range(3):
            h = _draw_unit_coefficients(n, np.random.default_rng(seed))
            run, _ = run_with_campaign(setup, h, g, 1.0, np.zeros(3, dtype=complex))
            assert setup.grid_angles[run.peaks[0, 0]] == target
            assert setup.angles[run.picks[0, 2]] == target

    def test_picks_agree_with_correlation_argmax(self, rng):
        # oracle: each pick after the starting pair is the argmax of the
        # correlation |a^H b| with the configuration optimal for the current
        # estimate, over the unused candidates in angle order, so ties
        # resolve to the smallest unused angle
        n = 40
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid())
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 1.1, -0.45)
        noise = pilot_noise(rng.standard_normal(2 * n))
        run, _ = run_with_campaign(setup, h, g, 10.0, noise)
        config_angles = setup.angles[run.picks[0]]
        aoa_estimates = setup.grid_angles[run.peaks[0]]
        angles = plausible_angles(n)
        # pilot i + 1 follows the estimate from the first i pilots
        for i in range(2, n):
            picked = set(config_angles[:i])
            unused = [float(a) for a in angles if a not in picked]
            reference = candidate_rows(h, [aoa_estimates[i - 2]], array)[0]
            scores = [
                abs(np.vdot(reference, row)) for row in candidate_rows(h, unused, array)
            ]
            assert config_angles[i] == unused[int(np.argmax(scores))]

    def test_ties_go_to_smallest_remaining_angle(self):
        # nearest-sine tie: at N=10 the sines -0.6/-0.4 are equally far
        # from -0.5, and 0.4/0.6 from 0.5
        array = ArrayModel(10, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid())
        h = _draw_unit_coefficients(10, np.random.default_rng(2))
        noise = pilot_noise(np.random.default_rng(1).standard_normal(4))
        run, _ = run_with_campaign(
            setup, h, los_vector(array, 1.0, 0.3, 0.2), 10.0, noise
        )
        angles = plausible_angles(10)
        assert list(setup.angles[run.picks[0]]) == [angles[1], angles[6]]
        # best-match tie: at a vanishing spacing every candidate is the
        # all-ones beam, so all scores are exactly equal
        n = 8
        array = ArrayModel(n, 1e-300)
        rows = candidate_rows(np.ones(n), plausible_angles(n), array)
        assert np.all(np.abs(rows @ np.conj(rows[0])) == n)
        setup = build_adaptive_setup(array, AoaSearchGrid(num_points=50))
        noise = pilot_noise(np.random.default_rng(1).standard_normal(2 * n))
        run, _ = run_with_campaign(
            setup, np.ones(n), los_vector(array, 1.0, 0.3, 0.2), 10.0, noise
        )
        sines = [round(math.sin(a), 12) for a in setup.angles[run.picks[0]]]
        assert sines == [-0.5, 0.5, -0.75, -0.25, 0.0, 0.25, 0.75, 1.0]

    def test_rejects_mismatched_shapes(self):
        setup = build_adaptive_setup(ArrayModel(6, 0.25), AoaSearchGrid(num_points=100))
        noise = np.zeros((1, 3), dtype=complex)
        for length in (5, 7):
            message = f"^array has 6 elements, channels {length}$"
            with pytest.raises(InvalidInputError, match=message):
                advance_trials(setup, np.ones((1, length), dtype=complex), 10.0, noise, 3)


class TestCandidateCorrelationTable:
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
    def starting_pair(self, n, rng, pilot_power=10.0):
        """The config angles and campaign of a two-pilot run, noisy unless P_p is 1."""
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid())
        h = _draw_unit_coefficients(n, rng)
        noise = np.zeros(2, dtype=complex)
        if pilot_power != 1.0:
            noise = pilot_noise(rng.standard_normal(4))
        run, campaign = run_with_campaign(
            setup, h, los_vector(array, 1.0, 0.0, 0.2), pilot_power, noise
        )
        return setup.angles[run.picks[0]], campaign

    def test_forty_elements_picks_half_sines(self, rng):
        angles, _ = self.starting_pair(40, rng)
        assert list(np.sin(angles)) == pytest.approx([-0.5, 0.5])

    def test_two_elements_uses_both(self, rng):
        angles, campaign = self.starting_pair(2, rng)
        assert sorted(angles) == list(plausible_angles(2))
        first, second = campaign.config_matrix
        assert not np.array_equal(first, second)

    def test_four_elements_picks_inner_pair(self, rng):
        angles, _ = self.starting_pair(4, rng)
        assert list(np.sin(angles)) == pytest.approx([-0.5, 0.5])

    def test_exhausted_pool(self, rng):
        with pytest.raises(InvalidInputError, match="^budget 2 exceeds the 1 available"):
            self.starting_pair(1, rng)

    def test_reference_pair_has_exact_nulls_at_endfire(self, rng):
        # at N = 40, rho = 1/4 a beam at sine u0 has nulls where
        # N rho (u - u0) = 10 (u - u0) is a nonzero integer; from u0 = +-0.5
        # that includes u = +-1, the grid's endpoints, for both beams
        array, grid = ArrayModel(40, 0.25), AoaSearchGrid()
        angles, campaign = self.starting_pair(40, rng, pilot_power=1.0)
        assert list(np.sin(angles)) == [-0.5, 0.5]
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


def trial_config(n: int, points: int, offset_db: float, budget: int):
    """A one-trial config: N elements, a grid of ``points``, P_p = 10**(offset_db/10)."""
    return ExperimentConfig(
        num_elements=n, grid_points=points, pilot_snr_offset_db=offset_db,
        pilot_budgets=(budget,), num_trials=1,
    )


def seeded_trial(config, setup, aoa: float, seed: int, h=None):
    """``_run_trials`` on ``SeedSequence(seed)`` at ``aoa``: its ML rates and run.

    With ``h`` given, the trial still makes its own BS-RIS draw, so every
    later draw is its own, but sees ``h`` in its place.
    """
    def draw(num_elements, rng):
        _draw_unit_coefficients(num_elements, rng)
        return h

    dft = dft_rows(config.num_elements)
    seeds = [np.random.SeedSequence(seed)]
    with mock.patch.object(simulate, "_draw_unit_coefficients",
                           _draw_unit_coefficients if h is None else draw):
        rates, run = simulate._run_trials(config, setup, dft, seeds, aoa=aoa,
                                          keep_utility=True)
    return rates[0], run


class TestAdaptiveRun:
    def run_noise_free(self, rng, n=8, budget=5, grid_points=900):
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=grid_points)
        truth_angle = snap_to_grid(grid, float(rng.choice(plausible_angles(n))))
        channel = LosChannel(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0, 2 * np.pi)), truth_angle
        )
        h = _draw_unit_coefficients(n, rng)
        run, campaign = run_with_campaign(
            build_adaptive_setup(array, grid), h, channel_vector(channel, array), 1.0,
            np.zeros(budget, dtype=complex),
        )
        return array, grid, channel, run, campaign

    def test_rejects_bad_budgets(self):
        config = ExperimentConfig(num_elements=6, pilot_budgets=(2,), grid_points=200)
        with pytest.raises(InvalidInputError, match="^at least two pilots are required$"):
            run_single_estimate(config, 0.1, 1)
        with pytest.raises(InvalidInputError, match="^budget 7 exceeds the 6 available"):
            run_single_estimate(config, 0.1, 7)

    def test_budget_must_be_an_integer(self):
        # a package error, not numpy's TypeError; a whole float is that integer
        config = ExperimentConfig(num_elements=8, pilot_budgets=(2,), grid_points=200)
        with pytest.raises(InvalidInputError, match="budget 2.5 must be an integer"):
            run_single_estimate(config, 0.1, 2.5)
        summary = run_single_estimate(config, 0.1, 3.0)
        assert summary.config_angles.size == 3
        assert summary.aoa_estimates.size == 2

    def test_inputs_are_checked_before_the_setup_is_built(self, monkeypatch):
        # the setup's N x G tables are the run's largest allocation (about
        # 157 MiB at N = 256, G = 20 000): a short or long budget and an
        # angle outside the UE range must fail before it is built, with
        # their own messages, not under the pilot_budgets: key of a config
        # rebuilt with that budget
        built = []
        build = simulate.build_adaptive_setup

        def recording(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(simulate, "build_adaptive_setup", recording)
        array, grid = ArrayModel(8, 0.25), AoaSearchGrid(num_points=200)
        config = ExperimentConfig(num_elements=8, pilot_budgets=(2,), grid_points=200)
        for aoa, budget, message in [
            (0.1, 1, "^at least two pilots are required$"),
            (0.1, 9, "^budget 9 exceeds the 8 available configurations$"),
            (1.2, 3, r"^true angle 1\.2 rad lies outside the configured UE range"),
        ]:
            with pytest.raises(InvalidInputError, match=message) as raised:
                run_single_estimate(config, aoa, budget)
            assert "pilot_budgets:" not in str(raised.value)
        assert built == []
        run_single_estimate(config, 0.1, 3)
        assert built == [(array, grid)]

    def test_noise_free_recovery_on_grid_truth(self, rng):
        # oracle: exhaustive scalar utility evaluation shows a unique maximizer
        array, grid, channel, run, campaign = self.run_noise_free(rng)
        assert grid.angles[run.peaks[0, -1]] == channel.aoa
        assert run.gains[0] == pytest.approx(channel.gain, rel=1e-9)
        assert circular_diff(run.phases[0], channel.phase) < 1e-9
        values = direct_utility(campaign, array, grid.angles)
        best = int(np.argmax(values))
        assert grid.angles[best] == channel.aoa
        assert np.all(np.delete(values, best) < values[best])

    def test_step_structure_and_pool_discipline(self, rng):
        n, budget = 10, 6
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid()
        setup = build_adaptive_setup(array, grid)
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 1.0, 0.5)
        noise = pilot_noise(rng.standard_normal(2 * budget))
        results = prefix_results(setup, h, g, 10.0, noise)
        run, _ = run_with_campaign(setup, h, g, 10.0, noise)
        config_angles = setup.angles[run.picks[0]]
        aoa_estimates = setup.grid_angles[run.peaks[0]]
        # one config angle per pilot; one estimate per pilot from the second
        assert config_angles.shape == (budget,)
        assert aoa_estimates.shape == (budget - 1,)
        assert np.all(np.isfinite(aoa_estimates))
        for result in results:
            assert math.isfinite(result.gain) and math.isfinite(result.phase)
        assert run.utilities[:, 0].shape == (budget - 1, grid.num_points)
        pool_angle_set = set(np.round(plausible_angles(n), 12))
        used = [round(a, 12) for a in config_angles]
        assert len(set(used)) == budget  # never reissues a configuration
        assert set(used) <= pool_angle_set
        assert run.samples[0].shape == (budget,)

    def test_interim_estimates_match_batch_estimators(self, rng):
        # dual route: the table-driven loop must agree with the one-shot
        # estimators applied to each prefix of the recorded campaign, to
        # rounding; this run has no near-null argmax, so every step counts
        n, budget = 12, 7
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=700)
        setup = build_adaptive_setup(array, grid)
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 2.0, -0.4)
        noise = pilot_noise(rng.standard_normal(2 * budget))
        results = prefix_results(setup, h, g, 10.0, noise)
        run, campaign = run_with_campaign(setup, h, g, 10.0, noise)
        assert assert_steps_match_batch(
            run, campaign, array, grid, results
        ) == budget - 1
        for i in range(2, budget + 1):
            prefix = prefix_campaign(campaign, i)
            aoa = grid.angles[run.peaks[0, i - 2]]
            batch = parametric_ml_estimate(prefix, array, grid)
            assert batch.aoa == aoa
            # the coefficient projected onto the one estimated angle alone
            gain, phase = coefficient_at(prefix, array, aoa)
            assert gain == pytest.approx(results[i - 2].gain, rel=1e-12)
            assert circular_diff(phase, results[i - 2].phase) < 1e-12

    def test_monotone_information_at_true_angle(self, rng):
        # adding a pilot can only add energy along the true direction
        array, grid, channel, run, campaign = self.run_noise_free(
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
        setup = build_adaptive_setup(array, grid)
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 0.3, 0.2)
        noise = pilot_noise(rng.standard_normal(2 * n))
        results = prefix_results(setup, h, g, 10.0, noise)
        run, campaign = run_with_campaign(setup, h, g, 10.0, noise)
        used = sorted(round(a, 12) for a in setup.angles[run.picks[0]])
        assert used == sorted(np.round(plausible_angles(n), 12))
        batch = parametric_ml_estimate(campaign, array, grid)
        result = results[-1]
        assert batch.aoa == result.aoa == grid.angles[run.peaks[0, -1]]
        assert batch.gain == pytest.approx(run.gains[0], rel=1e-12)
        assert circular_diff(batch.phase, run.phases[0]) < 1e-12
        np.testing.assert_allclose(
            channel_vector(batch, array), channel_vector(result, array), rtol=1e-12,
        )
        assert assert_steps_match_batch(run, campaign, array, grid, results) == n - 1

    def test_deterministic_given_seed(self):
        config = trial_config(10, 2000, 10.0, 6)
        setup = build_adaptive_setup(config.array(), config.grid())
        first, second = (seeded_trial(config, setup, -0.2, 99)[1] for _ in range(2))
        assert np.array_equal(first.samples, second.samples)
        assert first.peaks[0, -1] == second.peaks[0, -1]
        assert first.gains[0] == second.gains[0]

    def test_record_utility_traces(self):
        config = ExperimentConfig(num_elements=8, pilot_budgets=(2,), grid_points=300)
        summary = run_single_estimate(config, -0.6, 4)
        # the first pilot alone has no utility: one row per later pilot
        assert summary.utilities.shape == (3, 300)
        angles = summary.grid.angles
        for utility, aoa in zip(summary.utilities, summary.aoa_estimates, strict=True):
            assert angles[np.argmax(utility)] == aoa
        for values in (summary.config_angles, summary.aoa_estimates, summary.utilities):
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_a_coarser_grid_changes_which_pilots_are_sent(self):
        # every pilot after the starting pair goes to the current grid peak,
        # so the grid's granularity is part of the selection policy: on a
        # tenth of the reference grid some trial sends other pilots
        picks = []
        for points in (2000, 200):
            config = ExperimentConfig(grid_points=points, pilot_budgets=(10,),
                                      num_trials=20)
            setup = build_adaptive_setup(config.array(), config.grid())
            seeds = np.random.SeedSequence(config.rng_seed).spawn(config.num_trials)
            dft = dft_rows(config.num_elements)
            _, run = simulate._run_trials(config, setup, dft, seeds)
            picks.append(run.picks)
        fine, coarse = picks
        assert np.array_equal(fine[:, :2], coarse[:, :2])
        assert np.any(fine != coarse)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 40),
        points=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
        offset_db=st.sampled_from([0.0, 10.0, 20.0, 300.0]),
    )
    def test_bs_ris_phases_keep_runs_byte_identical(self, n, points, seed, offset_db):
        # the adaptive pilots and the data cancel the known BS-RIS phases, so
        # the ML half of a trial reads g alone: under any other unit-modulus
        # profile its whole run and its ML rate must keep their bytes, with
        # no near-null or tie carve-out. At +300 dB the pilots are noise-free
        # to ~1e-15
        gen = np.random.default_rng(seed)
        aoa = float(gen.uniform(-1.0, 1.0))
        h = _draw_unit_coefficients(n, gen)
        h_other = _draw_unit_coefficients(n, gen)
        budget = int(gen.integers(2, n + 1))
        config = trial_config(n, points, offset_db, budget)
        setup = build_adaptive_setup(config.array(), config.grid())
        (first_rates, first), (second_rates, second) = (
            seeded_trial(config, setup, aoa, seed, coefficients)
            for coefficients in (h, h_other)
        )
        for name in ("picks", "samples", "peaks", "utilities", "gains", "phases"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert first_rates.tobytes() == second_rates.tobytes()
        # every step's gain and phase: the budget-i trials' results
        for pilots in range(2, budget + 1):
            shorter = dataclasses.replace(config, pilot_budgets=(pilots,))
            one, other = (
                seeded_trial(shorter, setup, aoa, seed, coefficients)[1]
                for coefficients in (h, h_other)
            )
            pair = np.array([[one.gains[0], one.phases[0]],
                             [other.gains[0], other.phases[0]]])
            assert pair[0].tobytes() == pair[1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        points=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
        offset_db=st.sampled_from([0.0, 10.0, 20.0, 300.0]),
        data=st.data(),
    )
    def test_shorter_budget_is_the_prefix_of_a_longer_run(
        self, n, points, seed, offset_db, data
    ):
        # a budget-i trial's loop takes the first 2i normals of a budget-L
        # trial's (each trial's 4L normals open with the loop's 2L) and
        # every step reads only the pilots before it, so it is the first i
        # pilots and i-1 estimates of the longer run, bit for bit; its
        # result is the longer run's estimate from those i pilots
        longest = data.draw(st.integers(2, n), label="longest")
        budget = data.draw(st.integers(2, longest), label="budget")
        aoa = float(np.random.default_rng(seed).uniform(-1.0, 1.0))
        config = trial_config(n, points, offset_db, longest)
        setup = build_adaptive_setup(config.array(), config.grid())
        short, long = (
            seeded_trial(dataclasses.replace(config, pilot_budgets=(pilots,)),
                         setup, aoa, seed)[1]
            for pilots in (budget, longest)
        )
        for values, expected in (
            (short.picks, long.picks[:, :budget]),
            (short.samples, long.samples[:, :budget]),
            (short.peaks, long.peaks[:, :budget - 1]),
            (short.utilities, long.utilities[:budget - 1]),
        ):
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()
        assert short.peaks[0, -1] == long.peaks[0, budget - 2]

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
            h = _draw_unit_coefficients(n, rng)
            candidates = candidate_rows(h, setup.angles, array)
            projections = candidates @ (h[:, None] * steering)
            # row j: each candidate against the configuration optimal at angle j
            references = candidate_rows(h, grid.angles, array)
            scores = np.array([np.abs(candidates @ np.conj(row)) for row in references])
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

    def test_chunked_trials_match_single_runs_bit_for_bit(self):
        # the Monte Carlo advances trials in chunks; each row must be the
        # run that advance_trials returns for that trial alone
        n, budget, trials, pilot_power = 16, 10, 5, 10.0
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid(num_points=500))
        gen = np.random.default_rng(3)
        g = np.stack([
            los_vector(array, 1.0, gen.uniform(0, 2 * np.pi), gen.uniform(-1, 1))
            for _ in range(trials)
        ])
        hs = np.stack([_draw_unit_coefficients(n, gen) for _ in range(trials)])
        noise = np.stack([
            pilot_noise(np.random.default_rng(100 + t).standard_normal(2 * budget))
            for t in range(trials)
        ])
        chunk = advance_trials(setup, g, pilot_power, noise, budget, keep_utility=True)
        for t in range(trials):
            run, _ = run_with_campaign(setup, hs[t], g[t], pilot_power, noise[t])
            for values, expected in (
                (run.picks[0], chunk.picks[t]),
                (run.samples[0], chunk.samples[t]),
                (run.peaks[0], chunk.peaks[t]),
                (run.gains[0], chunk.gains[t]),
                (run.phases[0], chunk.phases[t]),
                (run.utilities[:, 0], chunk.utilities[:, t]),
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
        keep=st.booleans(),
        data=st.data(),
    )
    def test_outputs_equal_reference_loop(
        self, trials, n, points, seed, noisy, keep, data
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
        g = los_vector(
            array, gen.uniform(0.25, 4.0, trials), gen.uniform(0, 2 * np.pi, trials),
            gen.uniform(-1.2, 1.2, trials),
        )
        # every trial sends at one pilot power; a noise-free run at unit power
        pilot_power = 10.0 if noisy else 1.0
        noise = np.zeros((trials, budget), dtype=np.complex128)
        if noisy:
            noise = pilot_noise(gen.standard_normal((trials, 2 * budget)))
        args = (setup, g, pilot_power, noise, budget)
        run = advance_trials(*args, keep_utility=keep)
        expected = reference_advance_trials(*args)
        # the core keeps every step's utility, or only the last one's
        expected = dataclasses.replace(
            expected, utilities=expected.utilities[(0 if keep else -1):]
        )
        for name in ("picks", "samples", "peaks", "gains", "phases", "utilities"):
            values, reference = getattr(run, name), getattr(expected, name)
            if name in ("gains", "phases"):  # the core's one, at the last step
                reference = reference[:, -1]
            assert values.dtype == reference.dtype and values.shape == reference.shape
            assert values.tobytes() == reference.tobytes(), name
        assert not run.utilities.flags.writeable


class TestCorePicks:
    """The core's picks come from the setup's score tables, within its budget."""

    @staticmethod
    def chunk(setup, trials, budget, seed):
        """Noisy unit-gain inputs of ``advance_trials`` for ``trials`` runs."""
        gen = np.random.default_rng(seed)
        g = los_vector(
            setup.array, np.ones(trials), gen.uniform(0, 2 * np.pi, trials),
            gen.uniform(-1.2, 1.2, trials),
        )
        noise = pilot_noise(gen.standard_normal((trials, 2 * budget)))
        return g, 10.0, noise

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

    @pytest.mark.parametrize("budget, message", [
        (1, "^at least two pilots are required$"),
        (5, "^budget 5 exceeds the 4 available configurations$"),
    ], ids=["one-pilot", "n-plus-one-pilots"])
    def test_core_rejects_budgets_outside_two_to_n(self, budget, message):
        # the core keeps the budget rule itself: one pilot cannot complete
        # the starting pair, and N+1 pilots would have to resend a candidate
        setup = build_adaptive_setup(ArrayModel(4, 0.25), AoaSearchGrid(num_points=100))
        with pytest.raises(InvalidInputError, match=message):
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
        noise_free = np.zeros((2, 3), dtype=np.complex128)
        with pytest.raises(DegenerateDirectionError, match="no pilot energy"):
            advance_trials(setup, channels, pilot_power, noise_free, 3)


class TestPilotReception:
    def test_noise_free_returns_effective_value(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.5, 0.4, 0.1)
        config = candidate_rows(h, [0.2], array)[0]
        value = simulate_pilot_reception(config, h, g, 4.0, 0.0, rng)
        assert value == effective_channel(config, h, g) * 2.0

    def test_seeded_reception_is_reproducible(self, rng):
        n = 4
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        g = los_vector(array, 1.0, 0.0, 0.0)
        config = candidate_rows(h, [0.0], array)[0]
        a = simulate_pilot_reception(config, h, g, 1.0, 1.0, np.random.default_rng(3))
        b = simulate_pilot_reception(config, h, g, 1.0, 1.0, np.random.default_rng(3))
        assert a == b

    @pytest.mark.parametrize("pilot_snr, noise_std", [(10.0, 1.0), (math.inf, 0.0)])
    def test_loop_samples_replay_reference_reception(self, pilot_snr, noise_std):
        # the trial's pilot normals are drawn up front and paired by
        # pilot_noise; every sample must still be simulate_pilot_reception on
        # the sent row, with the generator advanced in transmission order,
        # and draw nothing more. The loop
        # sums conj(a_n) g_n and the reference theta_n h_n g_n: the same N
        # exact terms of magnitude |h_n g_n| = |g_n|, each rounded by a few unit
        # roundoffs u = eps/2 (its products and phase), then summed, which
        # adds at most (N - 1) u of their total. So each path is within
        # (N + c) u * sum |h_n g_n| sqrt(P_p) of the exact sample, c < N, and
        # one more rounding adds the noise: the two differ by less than
        # 2 N eps of that total. An infinite SNR is a noise-free run at unit power
        n, budget = 16, 7
        array = ArrayModel(n, 0.25)
        setup = build_adaptive_setup(array, AoaSearchGrid(num_points=300))
        gen = np.random.default_rng(5)
        h = _draw_unit_coefficients(n, gen)
        g = los_vector(array, 0.8, float(gen.uniform(0, 2 * np.pi)), 0.3)
        pilot_power = pilot_snr if noise_std else 1.0
        run_rng = np.random.default_rng(11)
        noise = np.zeros(budget, dtype=complex)
        if noise_std:
            noise = pilot_noise(run_rng.standard_normal(2 * budget))
        _, campaign = run_with_campaign(setup, h, g, pilot_power, noise)
        replay_rng = np.random.default_rng(11)
        bound = (
            2 * n * np.finfo(float).eps * np.sum(np.abs(h * g))
            * np.sqrt(campaign.pilot_power)
        )
        for received, row in zip(
            campaign.received, campaign.config_matrix, strict=True
        ):
            expected = simulate_pilot_reception(
                row, h, g, campaign.pilot_power, noise_std, replay_rng,
            )
            assert abs(received - expected) <= bound
        assert run_rng.bit_generator.state == replay_rng.bit_generator.state
        if noise_std == 0.0:
            untouched = np.random.default_rng(11).bit_generator.state
            assert run_rng.bit_generator.state == untouched
