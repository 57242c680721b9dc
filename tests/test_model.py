"""Tests for the signal-model primitives."""

import cmath
import math

import numpy as np
import pytest

from rispilot import (
    AngleDomainError,
    ArrayModel,
    DimensionError,
    KnownBsRisChannel,
    LosChannel,
    RisConfiguration,
    SingularChannelError,
    achievable_rate,
    array_response,
    capacity,
    effective_channel,
    expand_channel,
    random_bs_ris_channel,
    steering_matrix,
)


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        response = array_response(ArrayModel(4, 0.25), 0.0)
        assert np.array_equal(response, np.ones(4, dtype=complex))

    def test_endfire_two_elements(self):
        response = array_response(ArrayModel(2, 0.25), np.pi / 2)
        assert response[0] == 1.0
        assert abs(response[1] - (-1j)) < 1e-15

    def test_matches_elementwise_oracle(self):
        # oracle: independent per-element evaluation with cmath
        array = ArrayModel(40, 0.25)
        aoa = -np.pi / 4
        response = array_response(array, aoa)
        for n in range(40):
            expected = cmath.exp(-2j * cmath.pi * 0.25 * n * math.sin(aoa))
            assert abs(response[n] - expected) < 1e-12

    def test_reference_element_is_exactly_one(self, rng):
        array = ArrayModel(8, 0.3)
        for aoa in rng.uniform(-np.pi / 2, np.pi / 2, size=25):
            assert array_response(array, aoa)[0] == 1.0 + 0.0j

    def test_entries_have_unit_modulus(self, rng):
        array = ArrayModel(16, 0.5)
        for aoa in rng.uniform(-np.pi / 2, np.pi / 2, size=25):
            assert np.max(np.abs(np.abs(array_response(array, aoa)) - 1.0)) < 1e-12

    @pytest.mark.parametrize("aoa", [np.pi / 2 + 1e-9, -np.pi / 2 - 1e-9, np.nan])
    def test_rejects_angles_outside_front_half_plane(self, aoa):
        with pytest.raises(AngleDomainError):
            array_response(ArrayModel(4, 0.25), aoa)

    def test_steering_matrix_stacks_responses(self, rng):
        array = ArrayModel(10, 0.25)
        angles = rng.uniform(-1.2, 1.2, size=7)
        matrix = steering_matrix(array, angles)
        for k, aoa in enumerate(angles):
            assert np.allclose(matrix[:, k], array_response(array, aoa), atol=1e-15)

    def test_array_model_validation(self):
        with pytest.raises(ValueError):
            ArrayModel(0, 0.25)
        with pytest.raises(ValueError):
            ArrayModel(4, 0.0)

    @pytest.mark.parametrize(
        "num_elements, spacing_ratio",
        [
            (math.inf, 0.25),
            (math.nan, 0.25),
            (2.5, 0.25),
            (4, math.inf),
            (4, math.nan),
        ],
    )
    def test_array_model_rejects_non_finite(self, num_elements, spacing_ratio):
        with pytest.raises(ValueError):
            ArrayModel(num_elements, spacing_ratio)


class TestChannelTypes:
    def test_expand_unit_gain_broadside(self):
        channel = LosChannel(gain=1.0, phase=0.0, aoa=0.0)
        assert np.allclose(expand_channel(channel, ArrayModel(3, 0.25)), np.ones(3))

    def test_expand_gain_four_phase_pi(self):
        channel = LosChannel(gain=4.0, phase=np.pi, aoa=0.0)
        expanded = expand_channel(channel, ArrayModel(2, 0.25))
        assert np.allclose(expanded, [-2.0, -2.0], atol=1e-12)

    def test_expand_matches_elementwise_oracle(self):
        # oracle: sqrt(beta) e^{j omega} e^{-j 2 pi rho n sin(phi)} per element
        channel = LosChannel(gain=2.5, phase=1.0, aoa=0.3)
        expanded = expand_channel(channel, ArrayModel(40, 0.25))
        for n in range(40):
            expected = (
                math.sqrt(2.5)
                * cmath.exp(1j * 1.0)
                * cmath.exp(-2j * cmath.pi * 0.25 * n * math.sin(0.3))
            )
            assert abs(expanded[n] - expected) < 1e-12

    def test_los_channel_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LosChannel(gain=-0.1, phase=0.0, aoa=0.0)
        with pytest.raises(AngleDomainError):
            LosChannel(gain=1.0, phase=0.0, aoa=2.0)

    @pytest.mark.parametrize(
        "gain, phase",
        [(math.inf, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)],
    )
    def test_los_channel_rejects_non_finite(self, gain, phase):
        with pytest.raises(ValueError):
            LosChannel(gain=gain, phase=phase, aoa=0.0)

    def test_los_channel_wraps_phase(self):
        assert LosChannel(1.0, 2 * np.pi + 0.5, 0.0).phase == pytest.approx(0.5)
        assert LosChannel(1.0, -0.5, 0.0).phase == pytest.approx(2 * np.pi - 0.5)

    def test_ris_configuration_requires_unit_modulus(self):
        RisConfiguration(np.exp(1j * np.array([0.1, 2.0, -1.0])))
        with pytest.raises(ValueError):
            RisConfiguration(np.array([1.0, 1.0 + 1e-6]))

    def test_known_channel_rejects_zero_entries(self):
        with pytest.raises(SingularChannelError):
            KnownBsRisChannel(np.array([1.0, 0.0, 1.0j]))


class TestEffectiveChannel:
    def test_cancellation(self):
        ris = RisConfiguration(np.ones(2))
        h = KnownBsRisChannel(np.ones(2))
        assert effective_channel(ris, h, np.array([1.0, -1.0])) == 0.0

    def test_phase_aligned_configuration_sums_magnitudes(self, rng):
        n = 6
        h = KnownBsRisChannel(
            rng.uniform(0.5, 2, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        )
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        ris = RisConfiguration(np.exp(-1j * (np.angle(h.coefficients) + np.angle(g))))
        value = effective_channel(ris, h, g)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(float(np.sum(np.abs(h.coefficients * g))))

    def test_matches_naive_summation_oracle(self, rng):
        # oracle: explicit python loop over the length-8 vectors
        n = 8
        ris = RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        h = KnownBsRisChannel(rng.normal(size=n) + 1j * rng.normal(size=n))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = sum(ris.phases[k] * h.coefficients[k] * g[k] for k in range(n))
        assert effective_channel(ris, h, g) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        ris = RisConfiguration(np.ones(3))
        h = KnownBsRisChannel(np.ones(2))
        with pytest.raises(DimensionError):
            effective_channel(ris, h, np.ones(2))

    def test_linear_in_channel_vector(self, rng):
        n = 5
        ris = RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        h = KnownBsRisChannel(rng.normal(size=n) + 1j * rng.normal(size=n))
        g1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        g2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha = complex(rng.normal(), rng.normal())
        combined = effective_channel(ris, h, alpha * g1 + g2)
        split = alpha * effective_channel(ris, h, g1) + effective_channel(ris, h, g2)
        assert combined == pytest.approx(split, abs=1e-10)


class TestRates:
    def test_zero_effective_channel_gives_zero_rate(self):
        assert achievable_rate(0.0, 3.7) == 0.0

    def test_unit_received_snr_gives_one_bit(self):
        assert achievable_rate(1.0, 1.0) == pytest.approx(1.0)

    def test_full_array_gain_rate(self):
        # oracle: direct evaluation of log2(1 + N^2 * snr) for N=40
        effective = 40.0  # |h_n g_n| = 1 aligned over 40 elements
        expected = math.log2(1.0 + 1600.0)
        assert achievable_rate(effective, 1.0) == pytest.approx(expected, rel=1e-12)
        assert achievable_rate(effective, 1.0) == pytest.approx(10.645, abs=1e-3)

    def test_capacity_single_element(self):
        h = KnownBsRisChannel(np.array([1.0]))
        assert capacity(h, np.array([1.0]), 1.0) == pytest.approx(1.0)

    def test_capacity_upper_bounds_any_configuration(self, rng):
        n = 7
        h = KnownBsRisChannel(rng.normal(size=n) + 1j * rng.normal(size=n))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        cap = capacity(h, g, 2.0)
        for _ in range(100):
            ris = RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
            assert achievable_rate(effective_channel(ris, h, g), 2.0) <= cap

    def test_capacity_all_unit_products(self):
        h = KnownBsRisChannel(np.ones(40))
        g = np.exp(1j * np.linspace(0, 3, 40))
        assert capacity(h, g, 1.0) == pytest.approx(math.log2(1601.0), rel=1e-12)

    def test_capacity_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            capacity(KnownBsRisChannel(np.ones(3)), np.ones(4), 1.0)


def test_random_bs_ris_channel_unit_magnitude_and_seeded():
    first = random_bs_ris_channel(32, 0)
    second = random_bs_ris_channel(32, 0)
    assert np.array_equal(first.coefficients, second.coefficients)
    assert np.max(np.abs(np.abs(first.coefficients) - 1.0)) < 1e-12
    assert not np.array_equal(
        first.coefficients, random_bs_ris_channel(32, 1).coefficients
    )
