"""Tests for the signal-model primitives."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rispilot import (
    ArrayModel,
    InvalidInputError,
    LosChannel,
    achievable_rate,
    array_response,
)
from rispilot.model import los_vector

from conftest import capacity, effective_channel, reference_array_response

#: The message of the front half-plane rule, whatever the angle it names.
HALF_PLANE = r"^angle .* rad lies outside the front half-plane \[-pi/2, pi/2\]$"


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
        with pytest.raises(InvalidInputError, match=HALF_PLANE):
            array_response(ArrayModel(4, 0.25), aoa)

    def test_steering_matrix_stacks_responses(self, rng):
        # the transposed responses to many angles are the steering matrix,
        # one column per angle, each that angle's own response
        array = ArrayModel(10, 0.25)
        angles = rng.uniform(-1.2, 1.2, size=7)
        matrix = array_response(array, angles).T
        assert matrix.shape == (10, 7)
        for k, aoa in enumerate(angles):
            assert np.array_equal(matrix[:, k], array_response(array, aoa))

    def test_list_of_angles_matches_array_of_angles(self, rng):
        array = ArrayModel(12, 0.25)
        angles = rng.uniform(-1.5, 1.5, size=(3, 5))
        expected = array_response(array, angles)
        assert expected.shape == (3, 5, 12)
        assert array_response(array, angles.tolist()).tobytes() == expected.tobytes()
        assert array_response(array, [0.3]).tobytes() == (
            array_response(array, np.array([0.3])).tobytes()
        )
        with pytest.raises(InvalidInputError, match=HALF_PLANE):
            array_response(array, [0.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 300),
        spacing=st.floats(0.01, 4.0),
        angles=hnp.arrays(
            np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
            elements=st.floats(-np.pi / 2, np.pi / 2),
        ),
    )
    @example(n=40, spacing=0.25, angles=np.array([0.0, -0.0, np.pi / 2, -np.pi / 2]))
    def test_equals_the_complex_exp_reference(self, n, spacing, angles):
        # cos and sin of the real phase are the complex exp's values entry
        # for entry; only the sign of an imaginary zero may differ
        array = ArrayModel(n, spacing)
        response = array_response(array, angles)
        expected = reference_array_response(array, angles)
        assert response.shape == expected.shape
        assert np.all(response == expected)

    def test_one_response_allocates_one_array(self):
        # beyond the result: the G sines, their scaled copy and the two
        # 8192-float buffers of the broadcast multiply; no complex phase
        # array and no complex buffers
        array, points = ArrayModel(40, 0.25), 2000
        angles = np.linspace(-np.pi / 2, np.pi / 2, points)
        array_response(array, angles)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            response = array_response(array, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= response.nbytes + 2 * points * 8 + 2 * 8192 * 8 + 4096

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
        assert np.allclose(los_vector(ArrayModel(3, 0.25), 1.0, 0.0, 0.0), np.ones(3))

    def test_expand_gain_four_phase_pi(self):
        expanded = los_vector(ArrayModel(2, 0.25), 4.0, np.pi, 0.0)
        assert np.allclose(expanded, [-2.0, -2.0], atol=1e-12)

    def test_expand_matches_elementwise_oracle(self):
        # oracle: sqrt(beta) e^{j omega} e^{-j 2 pi rho n sin(phi)} per element
        expanded = los_vector(ArrayModel(40, 0.25), 2.5, 1.0, 0.3)
        for n in range(40):
            expected = (
                math.sqrt(2.5)
                * cmath.exp(1j * 1.0)
                * cmath.exp(-2j * cmath.pi * 0.25 * n * math.sin(0.3))
            )
            assert abs(expanded[n] - expected) < 1e-12

    def test_los_vector_over_arrays_matches_each_channel(self, rng):
        array = ArrayModel(9, 0.25)
        gains = rng.uniform(0.1, 4.0, 6)
        phases = rng.uniform(0.0, 2 * np.pi, 6)
        aoas = rng.uniform(-1.5, 1.5, 6)
        vectors = los_vector(array, gains, phases, aoas)
        assert vectors.shape == (6, 9)
        for t in range(6):
            channel = LosChannel(gains[t], phases[t], aoas[t])
            alone = los_vector(array, channel.gain, channel.phase, channel.aoa)
            assert np.array_equal(vectors[t], alone)

    def test_los_channel_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LosChannel(gain=-0.1, phase=0.0, aoa=0.0)
        with pytest.raises(InvalidInputError, match=HALF_PLANE):
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

    @given(phase=st.floats(allow_nan=False, allow_infinity=False))
    @example(phase=-1e-17)  # % wraps it up to exactly 2*pi
    def test_every_finite_phase_wraps_into_zero_to_two_pi(self, phase):
        assert 0.0 <= LosChannel(1.0, phase, 0.0).phase < 2 * np.pi


class TestEffectiveChannel:
    """The physical end-to-end channel that the pilot and rate references use."""

    def test_cancellation(self):
        ris, h = np.ones(2), np.ones(2)
        assert effective_channel(ris, h, np.array([1.0, -1.0])) == 0.0

    def test_phase_aligned_configuration_sums_magnitudes(self, rng):
        n = 6
        h = rng.uniform(0.5, 2, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        ris = np.exp(-1j * (np.angle(h) + np.angle(g)))
        value = effective_channel(ris, h, g)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(float(np.sum(np.abs(h * g))))

    def test_matches_naive_summation_oracle(self, rng):
        # oracle: explicit python loop over the length-8 vectors
        n = 8
        ris = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = sum(ris[k] * h[k] * g[k] for k in range(n))
        assert effective_channel(ris, h, g) == pytest.approx(expected, abs=1e-12)

    def test_linear_in_channel_vector(self, rng):
        n = 5
        ris = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
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
        assert capacity(np.array([1.0]), np.array([1.0]), 1.0) == pytest.approx(1.0)

    def test_capacity_upper_bounds_any_configuration(self, rng):
        n = 7
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        cap = capacity(h, g, 2.0)
        for _ in range(100):
            ris = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            assert achievable_rate(effective_channel(ris, h, g), 2.0) <= cap

    def test_capacity_all_unit_products(self):
        g = np.exp(1j * np.linspace(0, 3, 40))
        assert capacity(np.ones(40), g, 1.0) == pytest.approx(math.log2(1601.0), rel=1e-12)

    def test_rates_keep_precision_at_tiny_snr(self):
        # log2(1 + x) rounds to 0 for x below 2^-53; log1p keeps x / ln 2
        g = np.exp(1j * np.linspace(0, 3, 40))
        expected = 1600e-20 / math.log(2.0)
        assert math.isclose(capacity(np.ones(40), g, 1e-20), expected, rel_tol=1e-12)
        assert math.isclose(achievable_rate(40.0, 1e-20), expected, rel_tol=1e-12)

    def test_capacity_over_trial_axis_matches_scalar_calls(self, rng):
        coefficients = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 12)))
        g = rng.normal(size=(5, 12)) + 1j * rng.normal(size=(5, 12))
        caps = capacity(coefficients, g, 0.7)
        assert caps.shape == (5,)
        for t in range(5):
            alone = capacity(coefficients[t], g[t], 0.7)
            assert isinstance(alone, float)
            assert caps[t] == alone

    @given(
        real=st.floats(-1e6, 1e6),
        imag=st.floats(-1e6, 1e6),
        snr=st.floats(1e-6, 1e6),
    )
    # a single run's effective channel, |.| = 12 + 2^-49, whose square pow
    # rounds an ulp below the product x * x an array call forms
    @example(real=-8.334738029297263, imag=8.63319998511479, snr=1.0)
    def test_a_scalar_rate_is_its_entry_of_an_array_call(self, real, imag, snr):
        effective = np.complex128(complex(real, imag))
        rates = achievable_rate(np.array([effective]), snr)
        assert achievable_rate(effective, snr) == rates[0]
