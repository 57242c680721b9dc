"""Consistency checks of the exact properties the method rests on.

``rispilot validate`` runs ``CHECKS``; acceptance criteria 4-8 call the same
checks and assert their own bounds on the measured values. Every check runs
the functions that the Monte Carlo and the single run call, looked up through
their modules at call time.
"""

import math
from typing import NamedTuple

import numpy as np

from . import adaptive, estimators, model, simulate


class CheckResult(NamedTuple):
    """What a check measured over how many fixed-seed cases, and in a line."""
    within: bool
    cases: int
    detail: str
    values: dict[str, float]

    @property
    def passed(self) -> bool:
        """A check that ran no case fails whatever it measured."""
        return self.cases > 0 and self.within


def circular_diff(a: float, b: float) -> float:
    """Distance between two phases on the circle."""
    d = abs(a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def noise_free_recovery() -> CheckResult:
    """Noise-free 5-pilot runs, truth on the grid: exact angle, gain, phase.

    The 100 cases are drawn first (target, gain, phase, BS-RIS channel, in
    that order per case), then run as one chunk on one adaptive setup.
    """
    rng = np.random.default_rng(2024)
    array, grid = model.ArrayModel(40, 0.25), estimators.AoaSearchGrid()
    setup = adaptive.build_adaptive_setup(array, grid)
    grid_angles = setup.grid_angles
    draws = []
    for _ in range(100):
        target = rng.choice(setup.angles)
        truth = float(grid_angles[np.argmin(np.abs(grid_angles - target))])
        gain, phase = float(rng.uniform(0.25, 4.0)), float(rng.uniform(0, 2 * np.pi))
        h = model._draw_unit_coefficients(40, rng)
        draws.append((truth, gain, phase, h))
    truths, gains, phases, h_rows = map(np.array, zip(*draws))
    g_rows = model.los_vector(array, gains, phases, truths)
    cases = len(draws)
    noise_free = np.zeros((cases, 5), dtype=np.complex128)
    run = adaptive.advance_trials(setup, np.abs(h_rows) * g_rows, 1.0, noise_free, 5)
    exact = int(np.sum(grid_angles[run.peaks[:, -1]] == truths))
    worst_gain = float(np.max(np.abs(run.gains - gains) / gains))
    worst_phase = max(map(circular_diff, run.phases.tolist(), phases.tolist()))
    detail = (f"exact angle {exact}/{cases}, worst gain rel err {worst_gain:.2e}, "
              f"worst phase err {worst_phase:.2e} rad")
    within = exact == cases and worst_gain <= 1e-9 and worst_phase <= 1e-9 * 2 * np.pi
    values = dict(exact=exact, worst_gain=worst_gain, worst_phase=worst_phase)
    return CheckResult(within, cases, detail, values)


def least_squares_recovery() -> CheckResult:
    """Noise-free LS on all 16 permuted DFT rows returns g elementwise.

    The 20 campaigns go through the Monte Carlo's prefix sums as one stack,
    read at L = N.
    """
    rng = np.random.default_rng(77)
    n, cases = 16, 20
    array = model.ArrayModel(n, 0.25)
    dft = estimators.dft_rows(n)
    draws = []
    for _ in range(cases):
        gain, phase = rng.uniform(0.2, 3.0), rng.uniform(0, 2 * np.pi)
        aoa = rng.uniform(-1.3, 1.3)
        h = model._draw_unit_coefficients(n, rng)
        draws.append((gain, phase, aoa, h, dft[rng.permutation(n)]))
    gains, phases, aoas, h_rows, rows = map(np.array, zip(*draws))
    g_rows = model.los_vector(array, gains, phases, aoas)
    received = (rows @ (h_rows * g_rows)[..., None])[..., 0] * np.sqrt(5.0)
    estimates = estimators.least_squares_prefix_estimates(rows, received, h_rows, 5.0)
    worst = float(np.max(np.abs(estimates[:, -1] - g_rows)))
    detail = f"worst elementwise recovery error {worst:.2e} over {cases} campaigns"
    return CheckResult(worst <= 1e-9, cases, detail, dict(worst=worst))


def capacity_bound() -> CheckResult:
    """No random-phase estimate beats capacity; g itself attains it.

    Rates are the Monte Carlo's phase-matched ones of |h| * g, the capacity
    the ``achievable_rate`` of the aligned sum of |h_n g_n|.
    """
    rng = np.random.default_rng(31)
    cases, violations, worst_equality = 0, 0, 0.0
    for cases in range(1, 10_001):
        n = int(rng.integers(2, 33))
        magnitudes = rng.uniform(0.2, 2.0, n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        channels = magnitudes * g
        snr = float(rng.uniform(0.1, 5.0))
        cap = model.achievable_rate(np.sum(np.abs(channels)), snr)
        estimate = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        violations += simulate._phase_matched_rate(channels, estimate, snr) > cap
        best = simulate._phase_matched_rate(channels, g, snr)
        worst_equality = max(worst_equality, abs(best - cap) / cap)
    detail = (f"{violations} bound violations, worst optimal-config equality "
              f"error {worst_equality:.2e} (relative)")
    within = violations == 0 and worst_equality <= 1e-9
    values = dict(violations=violations, worst_equality=worst_equality)
    return CheckResult(within, cases, detail, values)


def scale_invariance() -> CheckResult:
    """Scaling noisy samples by a nonzero complex number keeps the angle estimate.

    Each case sends 2-6 distinct candidates of the adaptive setup and feeds
    y and c * y to one accumulator as two runs.
    """
    rng = np.random.default_rng(55)
    n = 16
    array, grid = model.ArrayModel(n, 0.25), estimators.AoaSearchGrid(num_points=1200)
    setup = adaptive.build_adaptive_setup(array, grid)
    cases = mismatches = 0
    for cases in range(1, 101):
        num_rows = int(rng.integers(2, 7))
        picks = rng.choice(n, size=num_rows, replace=False)
        phase, aoa = rng.uniform(0, 2 * np.pi), rng.uniform(-1.0, 1.0)
        g = model.los_vector(array, 1.0, phase, aoa)
        noise = rng.standard_normal(num_rows) + 1j * rng.standard_normal(num_rows)
        received = setup.conj_responses[picks] @ g * np.sqrt(10.0) + noise / np.sqrt(2)
        scale = 0.0
        while scale == 0.0:
            scale = complex(rng.normal(), rng.normal())
        accumulator = estimators.UtilityAccumulator((2, grid.num_points))
        for k, sample in zip(picks, received):
            accumulator.add(setup.projections, np.array([sample, scale * sample]),
                            setup.projection_energy, [k, k])
        baseline, scaled = np.argmax(accumulator.utility(), axis=1)
        mismatches += scaled != baseline
    detail = f"{mismatches} argmax changes over {cases} scaled campaigns"
    return CheckResult(mismatches == 0, cases, detail, dict(mismatches=mismatches))


def beam_correlation() -> CheckResult:
    """Candidate-beam |a_k^H a(angle)| is |sin(N x)/sin(x)| of the sine difference.

    Measured on the adaptive setup's table |P|^2, which the loop ranks by.
    """
    rng = np.random.default_rng(101)
    n, rho = 40, 0.25
    setup = adaptive.build_adaptive_setup(model.ArrayModel(n, rho),
                                          estimators.AoaSearchGrid())
    cases, worst = 0, 0.0
    for cases in range(1, 51):
        k, j = int(rng.integers(n)), int(rng.integers(setup.grid_angles.size))
        measured = math.sqrt(setup.projection_energy[k, j])
        x = math.pi * rho * (math.sin(setup.grid_angles[j]) - math.sin(setup.angles[k]))
        analytic = abs(math.sin(n * x) / math.sin(x)) if x else float(n)
        # relative error above 1, absolute at the exact nulls
        worst = max(worst, abs(measured - analytic) / max(analytic, 1.0))
    detail = f"worst kernel mismatch {worst:.2e} over {cases} beam pairs"
    return CheckResult(worst <= 1e-9, cases, detail, dict(worst=worst))


CHECKS = (noise_free_recovery, least_squares_recovery, capacity_bound,
          scale_invariance, beam_correlation)
