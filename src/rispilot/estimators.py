"""The parametric maximum-likelihood (ML) estimator's sums and closed forms.

The ML estimator restricts the channel to the LOS family c * a(aoa) and
reduces to a one-dimensional grid search over the angle followed by
closed-form expressions for the complex coefficient. Its sums live in
one ``UtilityAccumulator`` fed pilot by pilot with rows of the adaptive
setup's tables.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirectionError, InvalidInputError
from .model import TWO_PI

#: Entries per block of ``UtilityAccumulator.utility``'s im^2 pass: a
#: 128 KB float scratch, whatever the (trials x grid) shape.
_BLOCK = 16384


def closed_form_gain_and_phase(inner, energy, pilot_power):
    """Gain |y^H B v|^2 / (P_p ||B v||^4) and phase -arg(y^H B v) in [0, 2*pi).

    ``inner`` and ``energy`` are the sums y^H B v and ||B v||^2 at estimated
    directions v; a zero inner product maps to (0, 0).
    """
    if np.any(energy == 0.0):
        raise DegenerateDirectionError(
            "the estimated direction carries no pilot energy"
        )
    gain = np.square(np.abs(inner)) / (pilot_power * np.square(energy))
    phase = (-np.angle(inner)) % TWO_PI
    # a tiny positive angle wraps up to exactly 2*pi, which is 0
    return gain, np.where(phase < TWO_PI, phase, 0.0)[()]


class UtilityAccumulator:
    """Running sums behind the ML objective, one pilot at a time.

    For the pilots added so far in transmission order it keeps, per
    direction v_j = a(angle_j), the inner product y^H B v_j and the
    energy ||B v_j||^2. ``shape`` is the number of directions, or
    (trials, directions) for a leading axis of independent runs: the
    adaptive loop advances a chunk of trials at once this way. This is
    the one copy of the utility; ``closed_form_gain_and_phase`` turns the
    sums into a gain and phase.

    ``inner`` and ``energy`` change only through ``add``, which writes
    each run's sums through row views made once, here. Energies only
    grow, so once a ``utility`` call finds every direction lit (nonzero
    energy) the sums are in the lit state for good, and later calls skip
    the scan for unlit directions.
    """

    def __init__(self, shape):
        self.inner = np.zeros(shape, dtype=np.complex128)
        self.energy = np.zeros(shape, dtype=float)
        size = self.inner.shape[-1]
        self._rows = list(
            zip(self.inner.reshape(-1, size), self.energy.reshape(-1, size))
        )
        self._lit = False

    def add(self, projections: np.ndarray, samples, energies: np.ndarray, picks) -> None:
        """Add one pilot per run t in place: samples[t], row picks[t] of the tables.

        Entry [k, j] of ``projections`` is what pilot row k adds to y^H B v_j
        per unit sample, and of ``energies`` what it adds to ||B v_j||^2; the
        rows are read in place.
        """
        # Python scalars index and multiply as numpy's would, at less cost
        runs = zip(
            self._rows, np.reshape(picks, -1).tolist(),
            np.conj(samples).reshape(-1).tolist(),
        )
        for (inner, total), k, conj_sample in runs:
            inner += conj_sample * projections[k]
            total += energies[k]

    def utility(self, out: np.ndarray | None = None) -> np.ndarray:
        """ML objective |y^H B v|^2 / ||B v||^2 per direction, into ``out`` if given.

        The numerator is re^2 + im^2 of the inner sum: three correctly
        rounded operations, within 1 eps (2^-52) of |y^H B v|^2 short of
        underflow, and the same bits at every numpy SIMD level, as the
        hypot behind ``np.abs`` is not. The im^2 pass runs in blocks of at
        most ``_BLOCK`` entries, so no (trials x grid) scratch is taken.
        ``out`` must be C-contiguous: another layout is an input error,
        raised before anything is written. A direction with exactly zero
        pilot energy (a kernel null shared by all rows) explains nothing
        and scores 0. If no direction of a run carries energy:
        degenerate-direction error. In the lit state no direction is
        unlit, and the division is not masked.
        """
        if out is not None and not out.flags.c_contiguous:
            raise InvalidInputError("the utility's out buffer must be C-contiguous")
        energy = self.energy
        value = np.square(self.inner.real, out=out)
        flat, imag = value.reshape(-1), self.inner.imag.reshape(-1)
        for start in range(0, imag.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            flat[block] += np.square(imag[block])
        self._lit = self._lit or bool(energy.min() > 0.0)
        if self._lit:  # the usual case: no masked division needed
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
