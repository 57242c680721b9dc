"""Tests for the parametric ML estimator and the least-squares baseline."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rispilot import (
    AoaSearchGrid,
    ArrayModel,
    DegenerateDirectionError,
    InvalidInputError,
    LosChannel,
    plausible_angles,
)
from rispilot.estimators import UtilityAccumulator, closed_form_gain_and_phase
from rispilot.model import _draw_unit_coefficients
from rispilot.simulate import (
    _least_squares_prefix_estimates as least_squares_prefix_estimates,
    dft_rows,
)

from conftest import (
    PilotCampaign,
    _pilot_directions,
    candidate_rows,
    channel_vector,
    circular_diff,
    coefficient_at,
    direct_utility,
    least_squares_estimate,
    make_campaign,
    ml_utility_profile,
    parametric_ml_estimate,
    reference_utility,
)


class TestAoaSearchGrid:
    def test_grid_angles_are_uniform_with_endpoints(self):
        grid = AoaSearchGrid(-1.0, 1.0, 5)
        assert np.allclose(grid.angles, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            AoaSearchGrid(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            AoaSearchGrid(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            AoaSearchGrid(-2.0, 1.0, 10)

    @pytest.mark.parametrize("num_points", [2.5, math.inf, math.nan])
    def test_grid_rejects_non_integral_point_count(self, num_points):
        with pytest.raises(ValueError):
            AoaSearchGrid(num_points=num_points)

    def test_grid_accepts_whole_float_point_count(self):
        grid = AoaSearchGrid(-1.0, 1.0, 5.0)
        assert grid.num_points == 5 and isinstance(grid.num_points, int)
        assert grid.angles.size == 5


class TestMlUtility:
    def test_noise_free_peak_value(self, rng):
        # Substituting the noise-free received signal into the objective
        # gives P_p * gain * ||B D_h a(aoa)||^2 at the true angle.
        n = 8
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(gain=1.9, phase=0.7, aoa=0.35)
        rows = candidate_rows(h, plausible_angles(n)[:4], array)
        campaign = make_campaign(rows, h, channel, array, pilot_power=2.0)
        direction = rows @ (
            h * channel_vector(LosChannel(1.0, 0.0, 0.35), array)
        )
        expected = 2.0 * 1.9 * float(np.sum(np.abs(direction) ** 2))
        assert ml_utility_profile(campaign, array, [0.35])[0] == pytest.approx(
            expected, rel=1e-10
        )
        assert direct_utility(campaign, array, [0.35])[0] == pytest.approx(
            expected, rel=1e-10
        )

    def test_orthogonal_received_signal_gives_zero(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        rows = candidate_rows(h, [-0.4, 0.7], array)
        aoa = 0.2
        direction = rows @ (h * channel_vector(LosChannel(1, 0, aoa), array))
        received = np.array([np.conj(direction[1]), -np.conj(direction[0])])
        campaign = PilotCampaign(rows, received, 1.0, h)
        assert ml_utility_profile(campaign, array, [aoa])[0] == pytest.approx(
            0.0, abs=1e-18
        )

    def test_single_pilot_utility_is_constant(self, rng):
        n = 5
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        rows = candidate_rows(h, [0.1], array)
        received = np.array([2.0 - 1.0j])
        campaign = PilotCampaign(rows, received, 1.0, h)
        profile = ml_utility_profile(campaign, array, [-1.2, -0.3, 0.0, 0.4, 1.5])
        assert profile == pytest.approx(np.full(5, 5.0), rel=1e-12)

    def test_empty_campaign_is_degenerate(self):
        h = np.ones(4)
        campaign = PilotCampaign(np.ones((0, 4)), np.zeros(0), 1.0, h)
        with pytest.raises(DegenerateDirectionError):
            ml_utility_profile(campaign, ArrayModel(4, 0.25), [0.0])

    def test_exact_kernel_null_scores_zero_in_grid_search(self):
        # the [1, -1] row is exactly orthogonal to the broadside response
        # [1, 1]; that direction explains nothing and must rank last
        # instead of aborting the search
        array = ArrayModel(2, 0.25)
        h = np.ones(2)
        campaign = PilotCampaign(
            np.array([[1.0, -1.0]]), np.array([2.0 + 1.0j]), 1.0, h
        )
        grid = AoaSearchGrid(0.0, 1.0, 11)
        profile = ml_utility_profile(campaign, array, grid.angles)
        assert profile[0] == 0.0
        assert np.all(profile[1:] > 0.0)
        assert profile[1:] == pytest.approx(np.full(10, 5.0), rel=1e-12)
        assert parametric_ml_estimate(campaign, array, grid).aoa != 0.0
        # probing the dead direction alone is still an error
        with pytest.raises(DegenerateDirectionError):
            ml_utility_profile(campaign, array, [0.0])

    def test_profile_matches_scalar_loop(self, rng):
        # dual route: the accumulated profile vs the whole-matrix reference,
        # one angle at a time
        n = 7
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(1.0, 1.1, -0.5)
        rows = candidate_rows(h, plausible_angles(n)[2:6], array)
        campaign = make_campaign(rows, h, channel, array, 1.0, noise_std=1.0, rng=rng)
        angles = np.linspace(-1.3, 1.3, 41)
        profile = ml_utility_profile(campaign, array, angles)
        for k, aoa in enumerate(angles):
            assert profile[k] == pytest.approx(
                direct_utility(campaign, array, [aoa])[0], rel=1e-12
            )

    def test_invariant_under_global_row_phase_rotation(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(1.0, 0.3, 0.8)
        rows = candidate_rows(h, [-0.9, 0.2, 1.0], array)
        campaign = make_campaign(rows, h, channel, array, 1.0, noise_std=0.5, rng=rng)
        rotation = np.exp(1j * 1.234)
        rotated = PilotCampaign(
            rotation * campaign.config_matrix,
            rotation * campaign.received,
            1.0,
            h,
        )
        angles = [-0.9, 0.0, 0.8]
        assert ml_utility_profile(rotated, array, angles) == pytest.approx(
            ml_utility_profile(campaign, array, angles), rel=1e-10
        )


@st.composite
def utility_inputs(draw):
    """A campaign of random unit-modulus rows and samples, an array, angles."""
    n = draw(st.integers(1, 40))
    num_pilots = draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = gen.uniform(0.5, 2.0, n) * np.exp(1j * gen.uniform(0, 2 * np.pi, n))
    rows = np.exp(1j * gen.uniform(0, 2 * np.pi, (num_pilots, n)))
    received = gen.standard_normal(num_pilots) + 1j * gen.standard_normal(num_pilots)
    array = ArrayModel(n, draw(st.floats(0.05, 1.0)))
    angles = draw(
        st.lists(st.floats(-np.pi / 2, np.pi / 2), min_size=1, max_size=60)
    )
    return PilotCampaign(rows, received, 1.0, h), array, np.array(angles)


def unlit_then_lit_tables(inner, energy, lit):
    """Tables whose rows t, then T + t, bring run t's sums to ``inner``, ``energy``.

    With unit samples each add is exact: row t adds inner[t] and the
    energies where ``lit[t]``, so the directions off ``lit`` stay unlit;
    row T + t adds no inner part and the energies it left out.
    """
    projections = np.concatenate([inner, np.zeros_like(inner)])
    energies = np.concatenate([np.where(lit, energy, 0.0), np.where(lit, 0.0, energy)])
    return projections, energies


class TestUtilityAccumulator:
    @settings(max_examples=60, deadline=None)
    @given(utility_inputs())
    def test_profile_matches_whole_matrix_reference(self, inputs):
        campaign, array, angles = inputs
        projections = _pilot_directions(campaign, array, angles)
        energies = np.abs(projections) ** 2
        accumulator = UtilityAccumulator(projections, energies)
        # a leading trial axis: row 0 is this campaign, row 1 the same rows
        # with the samples reversed; rows must not mix
        stacked = UtilityAccumulator(projections, energies, (2,))
        for i, sample in enumerate(campaign.received):
            accumulator.add(sample, i)
            stacked.add(np.array([sample, campaign.received[-1 - i]]), [i, i])
        profile = accumulator.utility()
        reference = direct_utility(campaign, array, angles)
        # relative to the largest value: a direction the pilots barely see
        # has no meaningful relative error of its own
        np.testing.assert_allclose(
            profile, reference, rtol=1e-12, atol=1e-12 * np.max(reference)
        )
        # the batch estimators feed the same accumulator in the same order
        assert np.array_equal(ml_utility_profile(campaign, array, angles), profile)
        assert np.array_equal(stacked.utility()[0], profile)
        reversed_campaign = PilotCampaign(
            campaign.config_matrix, campaign.received[::-1], 1.0,
            campaign.coefficients,
        )
        assert np.array_equal(
            stacked.utility()[1],
            ml_utility_profile(reversed_campaign, array, angles),
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 4), points=st.integers(1, 30))
    def test_both_paths_fill_out_with_the_masked_division(self, data, trials, points):
        # arbitrary (trials x directions) sums, reached through add: first
        # with some directions exactly unlit and an inner sum that need not
        # be 0 there, then all lit. Each call writes its own step of the
        # accumulator's two-step buffer and returns it, on the masked and
        # the fast path alike, and both give the bytes of one masked
        # division, 0 wherever the energy is 0
        shape = (trials, points)
        parts = st.floats(-1e100, 1e100)  # no quotient overflows
        inner = data.draw(hnp.arrays(np.float64, shape, elements=parts)) + 1j * (
            data.draw(hnp.arrays(np.float64, shape, elements=parts))
        )
        energy = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(1e-100, 1e100)))
        lit = data.draw(hnp.arrays(np.bool_, shape))
        lit[:, 0] |= ~lit.any(axis=1)  # every run ranks some direction
        accumulator = UtilityAccumulator(
            *unlit_then_lit_tables(inner, energy, lit), (trials,), steps=2
        )
        written = []
        # masked, then fast path
        for step, mask in enumerate((lit, np.ones(shape, dtype=bool))):
            accumulator.add(np.ones(trials), np.arange(trials) + step * trials)
            sums = np.where(mask, energy, 0.0)
            assert accumulator.energy.tobytes() == sums.tobytes()
            expected = np.divide(
                inner.real ** 2 + inner.imag ** 2, sums,
                out=np.zeros_like(sums), where=sums > 0,
            )
            value = accumulator.utility()
            assert np.shares_memory(value, accumulator.utilities[step])
            assert value.tobytes() == expected.tobytes()
            written.append(expected)
        assert accumulator.utilities.tobytes() == np.stack(written).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 4), points=st.integers(1, 30))
    def test_utility_is_within_its_rounding_bounds(self, data, trials, points):
        # re^2, im^2, their sum and the division each round once, so every
        # utility is within 1.5 eps (1 eps = 2^-52) of the exact quotient,
        # which no part, square or quotient here under- or overflows. The
        # hypot route np.abs(inner) ** 2 / energy rounds |inner| within
        # 2 ulp (1.97 measured for numpy's complex abs) before its square
        # and division, so it lies within 5 eps of the exact value and the
        # two routes within 6.5 eps of each other. The sums are reached
        # through add, some directions unlit first, then all lit
        shape = (trials, points)
        magnitudes = st.floats(1e-100, 1e100)
        parts = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))
        inner = data.draw(hnp.arrays(np.float64, shape, elements=parts)) + 1j * (
            data.draw(hnp.arrays(np.float64, shape, elements=parts))
        )
        energy = data.draw(hnp.arrays(np.float64, shape, elements=magnitudes))
        lit = data.draw(hnp.arrays(np.bool_, shape))
        lit[:, 0] |= ~lit.any(axis=1)  # every run ranks some direction
        eps = np.finfo(float).eps
        bound = Fraction(3 * eps / 2) * (1 + Fraction(eps))
        accumulator = UtilityAccumulator(
            *unlit_then_lit_tables(inner, energy, lit), (trials,)
        )
        # masked, then fast path
        for step, mask in enumerate((lit, np.ones(shape, dtype=bool))):
            accumulator.add(np.ones(trials), np.arange(trials) + step * trials)
            value = accumulator.utility()
            for t, j in zip(*np.nonzero(mask)):
                z = inner[t, j]
                exact = (Fraction(z.real) ** 2 + Fraction(z.imag) ** 2) / Fraction(
                    energy[t, j]
                )
                assert abs(Fraction(value[t, j]) - exact) <= bound * exact
            assert np.all(value[~mask] == 0.0)
            hypot_route = np.divide(
                np.abs(inner) ** 2, accumulator.energy,
                out=np.zeros_like(accumulator.energy), where=mask,
            )
            np.testing.assert_allclose(value, hypot_route, rtol=6.5 * eps, atol=0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(), trials=st.integers(1, 3), points=st.integers(1, 12),
        rows=st.integers(1, 6),
    )
    def test_every_step_keeps_the_reference_bytes_before_and_after_lit(
        self, data, trials, points, rows
    ):
        # synthetic tables with many exact zeros, so directions stay unlit
        # for some pilots, plus a last row that lights every direction: at
        # every step of a random add sequence, utility() gives the bytes of
        # the masked reference on the same sums, or its error
        shape = (rows, points)
        parts = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
        projections = data.draw(hnp.arrays(np.float64, shape, elements=parts)) + 1j * (
            data.draw(hnp.arrays(np.float64, shape, elements=parts))
        )
        energies = data.draw(hnp.arrays(
            np.float64, shape, elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
        ))
        projections = np.vstack([projections, np.ones(points)])
        energies = np.vstack([energies, np.ones(points)])
        picks = st.lists(st.integers(0, rows - 1), min_size=trials, max_size=trials)
        steps = [
            *data.draw(st.lists(picks, max_size=6)), [rows] * trials,
            *data.draw(st.lists(picks, max_size=3)),
        ]
        samples = hnp.arrays(np.complex128, trials, elements=st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False,
        ))
        accumulator = UtilityAccumulator(projections, energies, (trials,))
        for pick in steps:
            accumulator.add(data.draw(samples), pick)
            try:
                expected = reference_utility(accumulator.inner, accumulator.energy)
            except DegenerateDirectionError:
                with pytest.raises(DegenerateDirectionError):
                    accumulator.utility()
                continue
            assert accumulator.utility().tobytes() == expected.tobytes()

    def test_callers_cannot_write_the_state(self):
        # the lit flag trusts that energies only grow through add: a 0
        # written into them after a lit call would reach the unmasked
        # division and give inf. The sums and the buffer are read-only to
        # callers, and a refused write changes nothing
        projections = np.array([[1.0, 2.0j, 0.5], [0.5, 1.0, 1.0j]])
        accumulator = UtilityAccumulator(
            projections, np.abs(projections) ** 2, (2,), steps=2
        )
        accumulator.add(np.array([1.0, 1.0j]), [0, 1])
        lit = accumulator.utility().copy()
        assert np.all(accumulator.energy > 0.0)
        for values in (accumulator.energy, accumulator.inner, accumulator.utilities):
            with pytest.raises(ValueError, match="read-only"):
                values[..., 0] = 0.0
        with np.errstate(all="raise"):
            assert accumulator.utility().tobytes() == lit.tobytes()


class TestEstimateAoa:
    def test_noise_free_full_pool_recovers_grid_truth(self, rng):
        # oracle: exhaustive scalar evaluation confirming a unique maximizer
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=801)
        truth = float(grid.angles[517])
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(1.4, 0.9, truth)
        rows = candidate_rows(h, plausible_angles(n), array)
        campaign = make_campaign(rows, h, channel, array, 1.0)
        assert parametric_ml_estimate(campaign, array, grid).aoa == truth
        values = direct_utility(campaign, array, grid.angles)
        best = np.argmax(values)
        assert grid.angles[best] == truth
        others = np.delete(values, best)
        assert np.all(others < values[best])

    def test_zero_signal_breaks_ties_toward_smallest_angle(self):
        n = 4
        array = ArrayModel(n, 0.25)
        h = np.ones(n)
        rows = candidate_rows(h, [-0.5, 0.5], array)
        campaign = PilotCampaign(rows, np.zeros(2), 1.0, h)
        grid = AoaSearchGrid(-1.0, 1.0, 21)
        assert parametric_ml_estimate(campaign, array, grid).aoa == -1.0

    def test_off_grid_truth_lands_within_one_step_of_fine_grid(self, rng):
        # oracle: a 100x finer grid search over the same objective
        n = 12
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(1.0, 0.2, 0.31417)
        rows = candidate_rows(h, [-0.52, 0.47], array)
        campaign = make_campaign(rows, h, channel, array, 1.0)
        coarse = AoaSearchGrid(num_points=201)
        fine = AoaSearchGrid(num_points=20001)
        coarse_estimate = parametric_ml_estimate(campaign, array, coarse)
        fine_estimate = parametric_ml_estimate(campaign, array, fine)
        step = (coarse.upper - coarse.lower) / (coarse.num_points - 1)
        assert abs(coarse_estimate.aoa - fine_estimate.aoa) <= step

    def test_scale_equivariance(self, rng):
        n = 10
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=500)
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(1.0, 2.2, -0.8)
        rows = candidate_rows(h, [-0.8, -0.1, 0.6], array)
        campaign = make_campaign(rows, h, channel, array, 1.0, noise_std=1.0, rng=rng)
        baseline = parametric_ml_estimate(campaign, array, grid).aoa
        for _ in range(10):
            s = complex(rng.normal(), rng.normal())
            scaled = PilotCampaign(rows, s * campaign.received, 1.0, h)
            scaled_estimate = parametric_ml_estimate(scaled, array, grid)
            assert scaled_estimate.aoa == baseline


class TestScalarCoefficient:
    def test_noise_free_recovery(self, rng):
        n = 9
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        truth = LosChannel(gain=0.8, phase=2.9, aoa=-0.41)
        rows = candidate_rows(h, plausible_angles(n)[::2], array)
        campaign = make_campaign(rows, h, truth, array, pilot_power=3.0)
        gain, phase = coefficient_at(campaign, array, -0.41)
        assert gain == pytest.approx(0.8, rel=1e-9)
        assert circular_diff(phase, 2.9) < 1e-9

    def test_zero_signal_convention(self):
        n = 4
        array = ArrayModel(n, 0.25)
        h = np.ones(n)
        rows = candidate_rows(h, [-0.5, 0.5], array)
        campaign = PilotCampaign(rows, np.zeros(2), 1.0, h)
        gain, phase = coefficient_at(campaign, array, 0.3)
        assert gain == 0.0
        assert phase == 0.0

    def test_real_scaling_moves_gain_not_phase(self, rng):
        n = 6
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        channel = LosChannel(1.2, 0.5, 0.2)
        rows = candidate_rows(h, [-0.4, 0.3, 0.9], array)
        campaign = make_campaign(rows, h, channel, array, 1.0, noise_std=0.7, rng=rng)
        gain, phase = coefficient_at(campaign, array, 0.21)
        scaled = PilotCampaign(rows, 3.0 * campaign.received, 1.0, h)
        gain_scaled, phase_scaled = coefficient_at(scaled, array, 0.21)
        assert gain_scaled == pytest.approx(9.0 * gain, rel=1e-12)
        assert circular_diff(phase_scaled, phase) < 1e-12

    @given(
        inner=st.complex_numbers(max_magnitude=1e6, allow_nan=False),
        energy=st.floats(1e-6, 1e6),
        pilot_power=st.floats(1e-6, 1e6),
    )
    # pow rounds this |inner|^2 an ulp away from the product x * x that an
    # array call forms
    @example(inner=-21.37116295454298-0.9005359862433566j, energy=59.13683915764939,
             pilot_power=3.0)
    def test_a_scalar_call_is_its_entry_of_an_array_call(
        self, inner, energy, pilot_power
    ):
        alone = closed_form_gain_and_phase(inner, energy, pilot_power)
        entries = closed_form_gain_and_phase(
            np.array([inner]), np.array([energy]), pilot_power
        )
        assert np.array(alone).tobytes() == np.concatenate(entries).tobytes()

    @given(inner=st.complex_numbers(max_magnitude=1e100, allow_nan=False))
    # the angle 1e-17 wraps -1e-17 up to exactly 2*pi
    @example(inner=1 + 1e-17j)
    def test_every_phase_wraps_into_zero_to_two_pi(self, inner):
        _, alone = closed_form_gain_and_phase(inner, 1.0, 1.0)
        _, entries = closed_form_gain_and_phase(np.array([inner]), np.array([1.0]), 1.0)
        assert 0.0 <= alone < 2 * np.pi
        assert 0.0 <= entries[0] < 2 * np.pi


class TestParametricMl:
    def test_noise_free_composition_recovers_channel(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=901)
        truth_aoa = float(grid.angles[222])
        truth = LosChannel(gain=2.2, phase=4.0, aoa=truth_aoa)
        h = _draw_unit_coefficients(n, rng)
        rows = candidate_rows(h, plausible_angles(n), array)
        campaign = make_campaign(rows, h, truth, array, 1.5)
        result = parametric_ml_estimate(campaign, array, grid)
        g = channel_vector(truth, array)
        assert result.aoa == truth_aoa
        assert np.max(np.abs(channel_vector(result, array) - g)) < 1e-9

    def test_zero_signal_gives_zero_channel(self):
        n = 4
        array = ArrayModel(n, 0.25)
        h = np.ones(n)
        rows = candidate_rows(h, [-0.5, 0.5], array)
        campaign = PilotCampaign(rows, np.zeros(2), 1.0, h)
        result = parametric_ml_estimate(campaign, array, AoaSearchGrid(num_points=50))
        assert np.array_equal(channel_vector(result, array), np.zeros(n, dtype=complex))


class TestLeastSquares:
    def test_exact_recovery_with_full_dft(self, rng):
        # oracle: direct linear solve of B D_h g sqrt(P_p) = y
        n = 8
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        truth = LosChannel(1.3, 0.8, 0.25)
        rows = dft_rows(n)
        campaign = make_campaign(rows, h, truth, array, 2.0)
        estimate = least_squares_estimate(campaign)
        g = channel_vector(truth, array)
        assert np.max(np.abs(estimate - g)) < 1e-9
        solved = np.linalg.solve(
            rows * h[None, :] * np.sqrt(2.0), campaign.received
        )
        assert np.max(np.abs(estimate - solved)) < 1e-9

    def test_minimum_norm_solution_for_single_all_ones_row(self):
        n = 6
        array = ArrayModel(n, 0.25)
        h = np.ones(n)
        truth = LosChannel(1.0, 0.9, 0.6)
        rows = np.ones((1, n), dtype=complex)
        campaign = make_campaign(rows, h, truth, array, 1.0)
        estimate = least_squares_estimate(campaign)
        g = channel_vector(truth, array)
        assert np.allclose(estimate, np.full(n, np.sum(g) / n), atol=1e-12)

    def test_matches_explicit_normal_equations(self, rng):
        # oracle: the (B^H B)^{-1} B^H closed form for full-rank L >= N
        n = 6
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        truth = LosChannel(0.9, 1.7, -0.3)
        extra = candidate_rows(h, [-0.7, 0.1, 0.8], array)
        rows = np.vstack([dft_rows(n), extra])
        campaign = make_campaign(rows, h, truth, array, 1.0, noise_std=1.0, rng=rng)
        estimate = least_squares_estimate(campaign)
        b = campaign.config_matrix
        explicit = (
            np.linalg.inv(b.conj().T @ b)
            @ b.conj().T
            @ campaign.received
            / (np.sqrt(campaign.pilot_power) * h)
        )
        assert np.max(np.abs(estimate - explicit)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        gain=st.floats(0.2, 3.0),
        phase=st.floats(0.0, 2 * np.pi),
        aoa=st.floats(-1.3, 1.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tall_campaigns_recover_channel(self, gain, phase, aoa, seed):
        # 16 DFT rows plus 8 candidate rows: a tall, full-rank campaign whose
        # noise-free estimate is the channel, elementwise to 1e-9
        n = 16
        array = ArrayModel(n, 0.25)
        unit_h = np.ones(n)
        extra = candidate_rows(unit_h, plausible_angles(n)[:8], array)
        rows = np.vstack([dft_rows(n), extra])
        truth = LosChannel(gain, phase, aoa)
        h = _draw_unit_coefficients(n, np.random.default_rng(seed))
        campaign = make_campaign(rows, h, truth, array, 5.0)
        error = least_squares_estimate(campaign) - channel_vector(truth, array)
        assert np.max(np.abs(error)) <= 1e-9

    def test_unbiased_over_many_noisy_trials(self, rng):
        # empirical mean of the estimate stays within 3 standard errors of
        # the truth, entrywise; the estimator is linear so the whole batch
        # can be pushed through one pseudoinverse
        n = 8
        trials = 100000
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        truth = LosChannel(1.0, 0.4, 0.2)
        rows = dft_rows(n)
        g = channel_vector(truth, array)
        base = rows @ (h * g) * np.sqrt(4.0)
        noise = (
            rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
        ) / np.sqrt(2.0)
        pinv = np.linalg.pinv(rows, rcond=1e-12)
        estimates = ((base[None, :] + noise) @ pinv.T) / (
            np.sqrt(4.0) * h[None, :]
        )
        mean = estimates.mean(axis=0)
        stderr = estimates.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean - g) <= 3.0 * (np.abs(stderr) + 1e-15))

    def test_agrees_with_parametric_for_full_rank_noise_free(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        grid = AoaSearchGrid(num_points=4001)
        h = _draw_unit_coefficients(n, rng)
        truth = LosChannel(1.1, 5.1, float(grid.angles[1377]))
        rows = dft_rows(n)
        campaign = make_campaign(rows, h, truth, array, 1.0)
        g_ls = least_squares_estimate(campaign)
        g_ml = channel_vector(parametric_ml_estimate(campaign, array, grid), array)
        g_true = channel_vector(truth, array)

        def effective_under_own_configuration(estimate):
            shifts = np.angle(h) + np.angle(estimate)
            return abs(np.sum(h * g_true * np.exp(-1j * shifts)))

        assert effective_under_own_configuration(g_ls) == pytest.approx(
            effective_under_own_configuration(g_ml), rel=1e-6
        )


def campaign_prefixes(campaign: PilotCampaign) -> np.ndarray:
    """``least_squares_prefix_estimates`` of one campaign."""
    return least_squares_prefix_estimates(
        campaign.config_matrix,
        campaign.received,
        campaign.coefficients,
        campaign.pilot_power,
    )


@st.composite
def dft_prefix_campaigns(draw):
    """Rows from a random subset of DFT columns, random h and y."""
    n = draw(st.integers(2, 40))
    num_pilots = draw(st.integers(1, n))
    columns = draw(st.permutations(range(n)))[:num_pilots]
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = gen.uniform(0.5, 2.0, n) * np.exp(1j * gen.uniform(0, 2 * np.pi, n))
    received = gen.standard_normal(num_pilots) + 1j * gen.standard_normal(num_pilots)
    power = draw(st.floats(1e-3, 1e3))
    return PilotCampaign(dft_rows(n)[columns], received, power, h)


@st.composite
def stacked_dft_campaigns(draw):
    """(rows, samples, coefficients, power) of 1-5 campaigns of one shape."""
    n = draw(st.integers(2, 24))
    num_pilots = draw(st.integers(1, n))
    count = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.stack(
        [dft_rows(n)[gen.permutation(n)[:num_pilots]] for _ in range(count)]
    )
    received = gen.standard_normal((count, num_pilots)) + 1j * gen.standard_normal(
        (count, num_pilots)
    )
    coefficients = gen.uniform(0.5, 2.0, (count, n)) * np.exp(
        1j * gen.uniform(0, 2 * np.pi, (count, n))
    )
    return rows, received, coefficients, draw(st.floats(1e-3, 1e3))


class TestLeastSquaresPrefixes:
    def test_every_dft_row_subset_is_orthogonal(self):
        # the prefix sums take B^+ = B^H / N without checking B B^H = N I;
        # a subset's Gram matrix is a principal submatrix of the full one,
        # so the full rows bound every campaign, here up to N = 256
        for n in range(1, 257):
            rows = dft_rows(n)
            deviation = np.max(np.abs(rows @ np.conj(rows.T) - n * np.eye(n)))
            assert deviation <= 1e-9 * n, (n, deviation)

    @settings(max_examples=60, deadline=None)
    @given(dft_prefix_campaigns())
    def test_every_prefix_matches_pseudoinverse(self, campaign):
        prefixes = campaign_prefixes(campaign)
        assert prefixes.shape == (campaign.num_pilots, campaign.num_elements)
        for length in range(1, campaign.num_pilots + 1):
            reference = least_squares_estimate(
                PilotCampaign(
                    campaign.config_matrix[:length],
                    campaign.received[:length],
                    campaign.pilot_power,
                    campaign.coefficients,
                )
            )
            # relative to the largest entry: an entry that cancels to ~0
            # has no meaningful relative error of its own
            np.testing.assert_allclose(
                prefixes[length - 1],
                reference,
                rtol=1e-12,
                atol=1e-12 * np.max(np.abs(reference)),
            )

    @settings(max_examples=30, deadline=None)
    @given(stacked_dft_campaigns())
    def test_stacked_campaigns_match_their_own_calls(self, stack):
        rows, received, coefficients, power = stack
        prefixes = least_squares_prefix_estimates(rows, received, coefficients, power)
        assert prefixes.shape == rows.shape
        for t in range(rows.shape[0]):
            alone = least_squares_prefix_estimates(
                rows[t], received[t], coefficients[t], power
            )
            assert np.array_equal(prefixes[t], alone)

    def test_mismatched_shapes_raise(self):
        rows = dft_rows(4)[None]
        message = "^samples and BS-RIS channel must match the rows$"
        with pytest.raises(InvalidInputError, match=message):
            least_squares_prefix_estimates(rows, np.ones((1, 3)), np.ones((1, 4)), 1.0)
        with pytest.raises(InvalidInputError, match=message):
            least_squares_prefix_estimates(rows, np.ones((1, 4)), np.ones((1, 5)), 1.0)

    @pytest.mark.parametrize("power", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_power_outside_zero_to_inf(self, power):
        rows, ones = dft_rows(4)[None], np.ones((1, 4))
        with pytest.raises(InvalidInputError, match="positive and finite"):
            least_squares_prefix_estimates(rows, ones, ones, power)

    def test_full_dft_recovers_channel(self, rng):
        n = 8
        array = ArrayModel(n, 0.25)
        h = _draw_unit_coefficients(n, rng)
        truth = LosChannel(1.3, 0.8, 0.25)
        campaign = make_campaign(dft_rows(n), h, truth, array, 2.0)
        prefixes = campaign_prefixes(campaign)
        assert np.max(np.abs(prefixes[-1] - channel_vector(truth, array))) < 1e-12
