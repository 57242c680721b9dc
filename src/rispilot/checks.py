"""Consistency checks of the exact properties the method rests on.

``rispilot validate`` runs ``CHECKS``; acceptance criteria 4-8 call the same
checks and assert their own bounds on the measured values. Checked functions
are looked up through their modules at call time.
"""

import math
from typing import NamedTuple

import numpy as np

from . import adaptive, estimators, model


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


def candidate_rows(h, angles, array: model.ArrayModel) -> np.ndarray:
    """Stack of candidate-configuration rows for the given angles."""
    rows = [adaptive.optimal_configuration(h, float(a), array).phases for a in angles]
    return np.vstack(rows)


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
        h = model.random_bs_ris_channel(40, rng).coefficients
        draws.append((truth, gain, phase, h))
    truths, gains, phases, h_rows = map(np.array, zip(*draws))
    g_rows = model.los_vector(array, gains, phases, truths)
    pilot_power, _ = adaptive.pilot_power_for_snr(np.inf, 1.0, h_rows)
    run = adaptive.advance_trials(setup, h_rows, g_rows, pilot_power, None, 5)
    cases = len(draws)
    exact = int(np.sum(grid_angles[run.peaks[:, -1]] == truths))
    worst_gain = float(np.max(np.abs(run.gains[:, -1] - gains) / gains))
    worst_phase = max(map(circular_diff, run.phases[:, -1].tolist(), phases.tolist()))
    detail = (f"exact angle {exact}/{cases}, worst gain rel err {worst_gain:.2e}, "
              f"worst phase err {worst_phase:.2e} rad")
    within = exact == cases and worst_gain <= 1e-9 and worst_phase <= 1e-9 * 2 * np.pi
    values = dict(exact=exact, worst_gain=worst_gain, worst_phase=worst_phase)
    return CheckResult(within, cases, detail, values)


def least_squares_recovery() -> CheckResult:
    """Noise-free LS on 16 DFT rows, then on 24 rows, returns g elementwise."""
    rng = np.random.default_rng(77)
    n = 16
    array = model.ArrayModel(n, 0.25)
    dft_rows = estimators.dft_rows(n)
    unit_h = model.KnownBsRisChannel(np.ones(n))
    extra = candidate_rows(unit_h, adaptive.plausible_angles(n)[:8], array)
    cases, worst = 0, 0.0
    square_then_tall = [dft_rows] * 10 + [np.vstack([dft_rows, extra])] * 10
    for cases, rows in enumerate(square_then_tall, start=1):
        gain, phase = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0, 2 * np.pi))
        channel = model.LosChannel(gain, phase, float(rng.uniform(-1.3, 1.3)))
        h = model.random_bs_ris_channel(n, rng)
        g = model.expand_channel(channel, array)
        received = rows @ (h.coefficients * g) * np.sqrt(5.0)
        campaign = estimators.PilotCampaign(rows, received, 5.0, h)
        error = estimators.least_squares_estimate(campaign) - g
        worst = max(worst, float(np.max(np.abs(error))))
    detail = f"worst elementwise recovery error {worst:.2e} over {cases} campaigns"
    return CheckResult(worst <= 1e-9, cases, detail, dict(worst=worst))


def capacity_bound() -> CheckResult:
    """No random configuration beats capacity; the phase-aligned one attains it."""
    rng = np.random.default_rng(31)
    cases, violations, worst_equality = 0, 0, 0.0
    for cases in range(1, 10_001):
        n = int(rng.integers(2, 33))
        magnitudes = rng.uniform(0.2, 2.0, n)
        phases = rng.uniform(0, 2 * np.pi, n)
        h = model.KnownBsRisChannel(magnitudes * np.exp(1j * phases))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        snr = float(rng.uniform(0.1, 5.0))
        cap = model.capacity(h.coefficients, g, snr)
        theta = model.RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        rate = model.achievable_rate(model.effective_channel(theta, h, g), snr)
        aligned = np.exp(-1j * (np.angle(h.coefficients) + np.angle(g)))
        aligned_channel = model.effective_channel(model.RisConfiguration(aligned), h, g)
        violations += rate > cap
        best = model.achievable_rate(aligned_channel, snr)
        worst_equality = max(worst_equality, abs(best - cap) / cap)
    detail = (f"{violations} bound violations, worst optimal-config equality "
              f"error {worst_equality:.2e} (relative)")
    within = violations == 0 and worst_equality <= 1e-9
    values = dict(violations=violations, worst_equality=worst_equality)
    return CheckResult(within, cases, detail, values)


def scale_invariance() -> CheckResult:
    """Scaling a noisy y by a nonzero complex number keeps the angle estimate."""
    rng = np.random.default_rng(55)
    n = 16
    array, grid = model.ArrayModel(n, 0.25), estimators.AoaSearchGrid(num_points=1200)
    candidates = adaptive.plausible_angles(n)
    cases = mismatches = 0
    for cases in range(1, 101):
        h = model.random_bs_ris_channel(n, rng)
        num_rows = int(rng.integers(2, 7))
        chosen = rng.choice(candidates, size=num_rows, replace=False)
        rows = candidate_rows(h, chosen, array)
        phase, aoa = float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(-1.0, 1.0))
        g = model.expand_channel(model.LosChannel(1.0, phase, aoa), array)
        noise = rng.standard_normal(num_rows) + 1j * rng.standard_normal(num_rows)
        received = rows @ (h.coefficients * g) * np.sqrt(10.0) + noise / np.sqrt(2)
        campaign = estimators.PilotCampaign(rows, received, 10.0, h)
        baseline = estimators.parametric_ml_estimate(campaign, array, grid).aoa_estimate
        scale = 0.0
        while scale == 0.0:
            scale = complex(rng.normal(), rng.normal())
        scaled = estimators.PilotCampaign(rows, scale * received, 10.0, h)
        estimate = estimators.parametric_ml_estimate(scaled, array, grid)
        mismatches += estimate.aoa_estimate != baseline
    detail = f"{mismatches} argmax changes over {cases} scaled campaigns"
    return CheckResult(mismatches == 0, cases, detail, dict(mismatches=mismatches))


def beam_correlation() -> CheckResult:
    """Candidate-beam |a^H b| is |sin(N x)/sin(x)| of the sine difference."""
    rng = np.random.default_rng(101)
    n, rho = 40, 0.25
    array = model.ArrayModel(n, rho)
    h = model.random_bs_ris_channel(n, rng)
    angles = adaptive.plausible_angles(n)
    configs = [adaptive.optimal_configuration(h, float(a), array) for a in angles]
    cases, worst = 0, 0.0
    for cases in range(1, 51):
        i, j = rng.choice(n, size=2, replace=False)
        measured = adaptive.config_correlation(configs[i], configs[j])
        x = math.pi * rho * (math.sin(angles[j]) - math.sin(angles[i]))
        analytic = abs(math.sin(n * x) / math.sin(x))
        # relative error above 1, absolute at the exact nulls
        worst = max(worst, abs(measured - analytic) / max(analytic, 1.0))
    detail = f"worst kernel mismatch {worst:.2e} over {cases} beam pairs"
    return CheckResult(worst <= 1e-9, cases, detail, dict(worst=worst))


CHECKS = (noise_free_recovery, least_squares_recovery, capacity_bound,
          scale_invariance, beam_correlation)
