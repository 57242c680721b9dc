"""Channel estimators for the pilots of one or many campaigns.

Two estimators are provided. The parametric maximum-likelihood (ML)
estimator restricts the channel to the LOS family c * a(aoa) and
reduces to a one-dimensional grid search over the angle followed by
closed-form expressions for the complex coefficient. Its sums live in
one ``UtilityAccumulator`` fed pilot by pilot with rows of the adaptive
setup's tables. The least-squares baseline inverts the pilot equation
B D_h g sqrt(P_p) = y. For mutually orthogonal rows (DFT columns) the
pseudoinverse is B^H / N, so the estimates of all pilot prefixes come
from one cumulative sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, DimensionError, InvalidInputError
from .model import TWO_PI, _check_front_half_plane, _is_integral

#: Tolerance on max |B B^H - N I| / N for rows taken as mutually orthogonal.
ORTHOGONALITY_TOL = 1e-9


@dataclass(frozen=True)
class AoaSearchGrid:
    """Uniform angle grid over which the ML objective is evaluated.

    Both endpoints are included. Granularity only affects computation,
    not the recorded pilot data, so it can be chosen freely.
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


def closed_form_gain_and_phase(inner, energy, pilot_power):
    """Gain |y^H B v|^2 / (P_p ||B v||^4) and phase -arg(y^H B v) in [0, 2*pi).

    ``inner`` and ``energy`` are the sums y^H B v and ||B v||^2 at estimated
    directions v; a zero inner product maps to (0, 0).
    """
    if np.any(energy == 0.0):
        raise DegenerateDirectionError(
            "the estimated direction carries no pilot energy"
        )
    return np.abs(inner) ** 2 / (pilot_power * energy**2), (-np.angle(inner)) % TWO_PI


class UtilityAccumulator:
    """Running sums behind the ML objective, one pilot at a time.

    For the pilots added so far in transmission order it keeps, per
    direction v_j = D_h a(angle_j), the inner product y^H B v_j and the
    energy ||B v_j||^2. ``shape`` is the number of directions, or
    (trials, directions) for a leading axis of independent runs: the
    adaptive loop advances a chunk of trials at once this way. This is
    the one copy of the utility; ``closed_form_gain_and_phase`` turns the
    sums into a gain and phase.
    """

    def __init__(self, shape):
        self.inner = np.zeros(shape, dtype=np.complex128)
        self.energy = np.zeros(shape, dtype=float)

    def add(self, projections: np.ndarray, samples, energies: np.ndarray, picks) -> None:
        """Add one pilot per run t in place: samples[t], row picks[t] of the tables.

        Entry [k, j] of ``projections`` is what pilot row k adds to y^H B v_j
        per unit sample, and of ``energies`` what it adds to ||B v_j||^2; the
        rows are read in place.
        """
        size = self.inner.shape[-1]
        # Python scalars index and multiply as numpy's would, at less cost
        runs = zip(
            self.inner.reshape(-1, size), self.energy.reshape(-1, size),
            np.reshape(picks, -1).tolist(), np.conj(samples).reshape(-1).tolist(),
        )
        for inner, total, k, conj_sample in runs:
            inner += conj_sample * projections[k]
            total += energies[k]

    def utility(self, out: np.ndarray | None = None) -> np.ndarray:
        """ML objective |y^H B v|^2 / ||B v||^2 per direction, into ``out`` if given.

        A direction with exactly zero pilot energy (a kernel null shared by
        all rows) explains nothing and scores 0. If no direction of a run
        carries energy: degenerate-direction error.
        """
        energy = self.energy
        value = np.abs(self.inner, out=out)
        np.square(value, out=value)
        if energy.min() > 0.0:  # the usual case: no masked division needed
            return np.divide(value, energy, out=value)
        lit = energy > 0.0
        if not lit.any(axis=-1).all():
            raise DegenerateDirectionError(
                "no probed direction carries pilot energy; the campaign cannot "
                "rank any angle"
            )
        np.divide(value, energy, out=value, where=lit)
        value[~lit] = 0.0  # |P|^2 can underflow to 0 where the inner sum does not
        return value


def dft_rows(num_elements: int) -> np.ndarray:
    """The N x N DFT configurations of the least-squares baseline, B B^H = N I."""
    n = np.arange(num_elements)
    return np.exp(-2j * np.pi * np.outer(n, n) / num_elements)


def least_squares_prefix_estimates(
    rows: np.ndarray, received: np.ndarray, coefficients: np.ndarray, pilot_power: float
) -> np.ndarray:
    """Least-squares estimates of every pilot prefix of orthogonal campaigns.

    A campaign is configuration rows B, samples y and BS-RIS coefficients
    h; leading axes stack campaigns that share one pilot power, and each
    gives its own call's result bit for bit. Row L-1 of a result is the
    minimum-norm estimate D_h^{-1} B^+ y / sqrt(P_p) from the first L pilots:
    with B B^H = N I the pseudoinverse of any row subset is its conjugate
    transpose over N, so the estimates are the cumulative sums of
    conj(B) * y over N sqrt(P_p) h. Raises ``InvalidInputError`` for a pilot
    power outside (0, inf) or rows of any campaign not mutually orthogonal.
    """
    if not 0 < pilot_power < np.inf:
        raise InvalidInputError("pilot_power must be positive and finite")
    n = rows.shape[-1]
    if received.shape != rows.shape[:-1] or coefficients.shape[-1] != n:
        raise DimensionError("samples and BS-RIS channel must match the rows")
    gram = rows @ np.conj(np.swapaxes(rows, -1, -2))
    deviation = np.max(np.abs(gram - n * np.eye(received.shape[-1])), initial=0.0)
    if not deviation <= ORTHOGONALITY_TOL * n:
        raise InvalidInputError(
            f"configuration rows must be mutually orthogonal "
            f"(worst |B B^H - N I| entry {deviation:.3e})"
        )
    sums = np.cumsum(np.conj(rows) * received[..., None], axis=-2)
    return sums / (n * np.sqrt(pilot_power) * coefficients[..., None, :])
