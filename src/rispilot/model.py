"""Signal-model primitives for a passive reflecting-surface link.

A uniform linear array (ULA) of phase-shifting elements relays a
single-antenna user toward a single-antenna base station. Conventions
used throughout the package:

* angles are radians and live in the front half-plane [-pi/2, pi/2],
  and so does the angle grid of the ML search,
* element 0 of the array is the phase reference,
* complex values are double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * np.pi


def _check_front_half_plane(aoa) -> None:
    if not np.all((-np.pi / 2 <= aoa) & (aoa <= np.pi / 2)):
        raise InvalidInputError(
            f"angle {aoa!r} rad lies outside the front half-plane [-pi/2, pi/2]"
        )


def _is_integral(value) -> bool:
    """True for finite whole numbers; inf and nan are not integers."""
    try:
        return math.isfinite(value) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class ArrayModel:
    """Uniform linear array geometry.

    ``spacing_ratio`` is the element spacing divided by the carrier
    wavelength; only this ratio enters the array response. The largest
    response phase, 2*pi * spacing_ratio * (N-1), must be finite.
    """

    num_elements: int
    spacing_ratio: float = 0.25

    def __post_init__(self) -> None:
        if not (_is_integral(self.num_elements) and self.num_elements >= 1):
            raise InvalidInputError("num_elements must be a positive integer")
        object.__setattr__(self, "num_elements", int(self.num_elements))
        object.__setattr__(self, "spacing_ratio", float(self.spacing_ratio))
        # Python floats overflow to inf here without a warning
        if not 0 < TWO_PI * self.spacing_ratio * max(self.num_elements - 1, 1) < np.inf:
            raise InvalidInputError("spacing_ratio must be positive and finite, as "
                                    "must its largest array phase 2*pi*rho*(N-1)")


@dataclass(frozen=True)
class LosChannel:
    """Single-path channel from the user to the array.

    Parameterized by a linear power gain, the phase at the reference
    element, and the azimuth angle of arrival. The phase is wrapped to
    [0, 2*pi) on construction.
    """

    gain: float
    phase: float
    aoa: float

    def __post_init__(self) -> None:
        if not 0 <= self.gain < np.inf:
            raise InvalidInputError("gain must be nonnegative and finite")
        if not math.isfinite(self.phase):
            raise InvalidInputError("phase must be finite")
        _check_front_half_plane(self.aoa)
        object.__setattr__(self, "gain", float(self.gain))
        phase = float(self.phase) % TWO_PI  # a tiny negative phase gives 2*pi
        object.__setattr__(self, "phase", phase if phase < TWO_PI else 0.0)
        object.__setattr__(self, "aoa", float(self.aoa))


@dataclass(frozen=True)
class AoaSearchGrid:
    """Uniform angle grid over which the ML objective is evaluated.

    Both endpoints are included. Under adaptive selection every pilot
    after the starting pair is picked at the current grid peak, so the
    granularity changes which pilots a trial sends, not only its cost.
    """

    lower: float = -np.pi / 2
    upper: float = np.pi / 2
    num_points: int = 2000

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise InvalidInputError("grid lower bound must be below the upper bound")
        if not (_is_integral(self.num_points) and self.num_points >= 2):
            raise InvalidInputError(
                "grid needs an integer number of at least two points"
            )
        _check_front_half_plane(self.lower)
        _check_front_half_plane(self.upper)
        object.__setattr__(self, "num_points", int(self.num_points))

    @property
    def angles(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.num_points)


def array_response(array: ArrayModel, aoa) -> np.ndarray:
    """Response of the ULA to a plane wave arriving from ``aoa``.

    Element n carries exp(-1j * 2*pi * spacing_ratio * n * sin(aoa)), so
    the reference element is exactly 1 and every entry has unit modulus.
    This is the one steering formula: an array-like of angles gives each
    angle's own response along a new last axis, and its transpose is the
    steering matrix of the ML search and the adaptive tables. The real
    phase -2*pi * spacing_ratio * sin(aoa) * n is written into the
    imaginary part of the result, its cosine into the real part, and its
    sine in place: the values of the complex ``exp`` of the imaginary
    phase, so a grid's matrix costs one array. Element 0's imaginary zero
    may carry the sign of the phase.
    """
    aoa = np.asarray(aoa, dtype=float)
    _check_front_half_plane(aoa)
    indices = np.arange(array.num_elements, dtype=float)
    response = np.empty((*aoa.shape, array.num_elements), dtype=np.complex128)
    phase = response.imag
    scale = -TWO_PI * array.spacing_ratio * np.sin(aoa)[..., None]
    np.multiply(scale, indices, out=phase)
    np.cos(phase, out=response.real)
    np.sin(phase, out=phase)
    return response


def los_vector(array: ArrayModel, gain, phase, aoa) -> np.ndarray:
    """Vector form sqrt(gain) * e^{j phase} * a(aoa) of a LOS channel.

    It expands the true channels of the Monte Carlo and the checks. Arrays
    of gains, phases and angles broadcast and give one vector per entry
    along a new last axis, each equal to that entry's own.
    """
    coefficient = np.sqrt(gain) * np.exp(1j * np.asarray(phase))
    return coefficient[..., None] * array_response(array, aoa)


def achievable_rate(effective, data_snr_scale: float):
    """Rate log2(1 + |effective|^2 * P_d / sigma^2) in bits/s/Hz.

    Computed as log1p(x) / ln 2, which keeps full precision for tiny x.
    A scalar gives a float, an array of effective channels an array.
    """
    if not data_snr_scale > 0:
        raise InvalidInputError("data_snr_scale must be positive")
    rate = np.log1p(np.square(np.abs(effective)) * data_snr_scale) / np.log(2.0)
    return float(rate) if np.ndim(rate) == 0 else rate


def _draw_unit_coefficients(num_elements: int, rng: np.random.Generator) -> np.ndarray:
    """A trial's unit-magnitude BS-RIS coefficients exp(1j * phase), phases uniform."""
    return np.exp(1j * rng.uniform(0.0, TWO_PI, size=num_elements))
