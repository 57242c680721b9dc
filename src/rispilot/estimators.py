"""The parametric maximum-likelihood (ML) estimator's sums and closed forms.

The ML estimator restricts the channel to the LOS family c * a(aoa) and
reduces to a one-dimensional grid search over the angle followed by
closed-form expressions for the complex coefficient. Its sums live in
one ``UtilityAccumulator`` fed pilot by pilot with rows of the adaptive
setup's tables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateDirectionError
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
    energy ||B v_j||^2. Entry [k, j] of ``projections`` is what pilot row
    k adds to y^H B v_j per unit sample, and of ``energies`` what it adds
    to ||B v_j||^2; the accumulator binds both tables once and reads their
    rows in place. ``runs`` is the leading shape of independent runs, ()
    for one: the adaptive loop advances a chunk of trials at once as
    runs=(trials,). This is the one copy of the utility;
    ``closed_form_gain_and_phase`` turns the sums into a gain and phase.

    The accumulator owns ``inner``, ``energy`` and ``utilities``, a
    C-contiguous (steps, *runs, directions) buffer that ``utility``
    fills one step at a time. It takes its private views of the three,
    then marks them read-only, so ``add`` is the only writer of the sums.
    Energies only grow through it, so once a ``utility`` call finds every
    direction lit (nonzero energy) the sums are in the lit state for
    good, and later calls skip the scan for unlit directions.
    """

    def __init__(self, projections: np.ndarray, energies: np.ndarray, runs=(), steps=1):
        self._tables = projections, energies
        g = projections.shape[-1]
        self.inner = np.zeros((*runs, g), dtype=np.complex128)
        self.energy = np.zeros((*runs, g), dtype=float)
        self.utilities = np.empty((steps, *runs, g))
        # views taken before setflags(write=False) stay writable
        self._rows = list(zip(self.inner.reshape(-1, g), self.energy.reshape(-1, g)))
        self._steps = itertools.cycle(list(self.utilities))
        for values in (self.inner, self.energy, self.utilities):
            values.setflags(write=False)
        self._lit = False

    def add(self, samples, picks) -> None:
        """Add one pilot per run r, in place: samples[r] times table row picks[r]."""
        # Python scalars index and multiply as numpy's would, at less cost
        runs = zip(
            self._rows, np.reshape(picks, -1).tolist(),
            np.conj(samples).reshape(-1).tolist(),
        )
        projections, energies = self._tables
        for (inner, total), k, conj_sample in runs:
            inner += conj_sample * projections[k]
            total += energies[k]

    def utility(self) -> np.ndarray:
        """ML objective |y^H B v|^2 / ||B v||^2 per direction.

        Call c writes step c % steps of ``utilities`` and returns that step
        as a writable view: ``np.argmax`` copies a read-only array whole,
        and the sums and the lit flag do not read the buffer. The
        numerator is re^2 + im^2 of the inner sum: three correctly rounded
        operations, within 1 eps (2^-52) of |y^H B v|^2 short of
        underflow, and the same bits at every numpy SIMD level, as the
        hypot behind ``np.abs`` is not. The im^2 pass runs in blocks of at
        most ``_BLOCK`` entries, so no (runs x directions) scratch is
        taken. A direction with exactly zero pilot energy (a kernel null
        shared by all rows) explains nothing and scores 0. If no direction
        of a run carries energy: degenerate-direction error. In the lit
        state no direction is unlit, and the division is not masked.
        """
        value = next(self._steps)
        np.square(self.inner.real, out=value)
        flat, imag = value.reshape(-1), self.inner.imag.reshape(-1)
        for start in range(0, imag.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            flat[block] += np.square(imag[block])
        self._lit = self._lit or bool(self.energy.min() > 0.0)
        if self._lit:  # the usual case: no masked division needed
            return np.divide(value, self.energy, out=value)
        lit = self.energy > 0.0
        if not lit.any(axis=-1).all():
            raise DegenerateDirectionError(
                "no probed direction carries pilot energy; the campaign cannot "
                "rank any angle"
            )
        np.divide(value, self.energy, out=value, where=lit)
        value[~lit] = 0.0  # |P|^2 can underflow to 0 where the inner sum does not
        return value
