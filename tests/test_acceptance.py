"""Acceptance suite: one test per headline behavior, at stated tolerances.

Each test prints a single summary line with the measured values so the
suite reads as a checklist under ``pytest -v -s``.
"""

import math

import numpy as np

from rispilot import (
    AoaSearchGrid,
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    PilotCampaign,
    RisConfiguration,
    achievable_rate,
    capacity,
    config_correlation,
    effective_channel,
    estimate_aoa,
    expand_channel,
    least_squares_estimate,
    local_peak_indices,
    plausible_angles,
    random_bs_ris_channel,
    run_adaptive_estimation,
    run_rate_experiment,
    run_utility_trace,
)
from rispilot.cli import main
from rispilot.simulate import ExperimentConfig

from conftest import circular_diff, pool_config_rows


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_01_fig2a_rate_ratios():
    # SNR_p = 10 dB, SNR_d = 0 dB: ratios 0.76 / 0.93 / 0.96 at L = 2 / 4 / 5
    config = ExperimentConfig(pilot_budgets=(2, 4, 5), num_trials=2000, rng_seed=42)
    points = {p.pilot_budget: p for p in run_rate_experiment(config)}
    targets = {2: 0.76, 4: 0.93, 5: 0.96}
    measured = {L: points[L].ratio_ml for L in targets}
    ok = all(abs(measured[L] - targets[L]) <= 0.04 for L in targets)
    report(
        1,
        ok,
        "adaptive ML ratios "
        + ", ".join(f"L={L}: {measured[L]:.3f} (target {targets[L]:.2f})" for L in targets),
    )
    for L, target in targets.items():
        assert abs(measured[L] - target) <= 0.04


def test_criterion_02_fig2b_low_snr():
    # SNR_p = 0 dB, SNR_d = -10 dB: 0.96 at L = 10 and a clear LS deficit
    config = ExperimentConfig(
        data_snr_db=-10.0, pilot_budgets=(10,), num_trials=2000, rng_seed=42
    )
    point = run_rate_experiment(config)[0]
    ok = abs(point.ratio_ml - 0.96) <= 0.04 and point.ratio_ml - point.ratio_ls >= 0.15
    report(
        2,
        ok,
        f"ML ratio {point.ratio_ml:.3f} (target 0.96), "
        f"LS ratio {point.ratio_ls:.3f}, deficit {point.ratio_ml - point.ratio_ls:.3f}",
    )
    assert abs(point.ratio_ml - 0.96) <= 0.04
    assert point.ratio_ml - point.ratio_ls >= 0.15


def test_criterion_03_ls_convergence():
    # the LS baseline needs L close to N to approach the adaptive ML rate
    config = ExperimentConfig(pilot_budgets=(10, 40), num_trials=2000, rng_seed=42)
    points = {p.pilot_budget: p for p in run_rate_experiment(config)}
    ls_gain = points[40].ratio_ls - points[10].ratio_ls
    closeness = abs(points[40].ratio_ml - points[40].ratio_ls)
    ok = ls_gain > 0 and closeness <= 0.05
    report(
        3,
        ok,
        f"LS ratio {points[10].ratio_ls:.3f} -> {points[40].ratio_ls:.3f} "
        f"(ML at 40: {points[40].ratio_ml:.3f}, |diff| {closeness:.4f})",
    )
    assert points[40].ratio_ls > points[10].ratio_ls
    assert closeness <= 0.05


def test_criterion_04_noise_free_exactness():
    # 100 random channels with the truth on the candidate-angle grid are
    # recovered exactly with 5 noise-free pilots
    rng = np.random.default_rng(2024)
    array = ArrayModel(40, 0.25)
    grid = AoaSearchGrid()
    grid_angles = grid.angles
    candidates = plausible_angles(40).angles
    worst_gain = worst_phase = 0.0
    exact = 0
    for _ in range(100):
        target = rng.choice(candidates)
        truth_aoa = float(grid_angles[np.argmin(np.abs(grid_angles - target))])
        gain = float(rng.uniform(0.25, 4.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        channel = LosChannel(gain, phase, truth_aoa)
        h = random_bs_ris_channel(40, rng)
        record = run_adaptive_estimation(channel, h, array, 5, math.inf, rng, grid)
        exact += record.result.aoa_estimate == truth_aoa
        worst_gain = max(worst_gain, abs(record.result.gain_estimate - gain) / gain)
        worst_phase = max(
            worst_phase, circular_diff(record.result.phase_estimate, channel.phase)
        )
    ok = exact == 100 and worst_gain <= 1e-9 and worst_phase <= 1e-9 * 2 * np.pi
    report(
        4,
        ok,
        f"exact angle {exact}/100, worst gain rel err {worst_gain:.2e}, "
        f"worst phase err {worst_phase:.2e} rad",
    )
    assert exact == 100
    assert worst_gain <= 1e-9
    assert worst_phase <= 1e-9 * 2 * np.pi


def test_criterion_05_ls_exact_recovery():
    # full-rank noise-free campaigns with L >= N reproduce the channel
    # to 1e-9 elementwise
    rng = np.random.default_rng(77)
    n = 16
    array = ArrayModel(n, 0.25)
    dft_rows = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n).T
    extra = pool_config_rows(
        KnownBsRisChannel(np.ones(n)), plausible_angles(n).angles[:8], array
    )
    worst = 0.0
    for rows in (dft_rows, np.vstack([dft_rows, extra])):
        for _ in range(10):
            channel = LosChannel(
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(0.0, 2 * np.pi)),
                float(rng.uniform(-1.3, 1.3)),
            )
            h = random_bs_ris_channel(n, rng)
            g = expand_channel(channel, array)
            received = rows @ (h.coefficients * g) * np.sqrt(5.0)
            campaign = PilotCampaign(rows, received, 5.0, h)
            estimate = least_squares_estimate(campaign)
            worst = max(worst, float(np.max(np.abs(estimate - g))))
    ok = worst <= 1e-9
    report(5, ok, f"worst elementwise recovery error {worst:.2e} over 20 campaigns")
    assert worst <= 1e-9


def test_criterion_06_capacity_bound_suite():
    # 1e4 random draws: no configuration beats the bound, and the
    # phase-aligned configuration attains it to 1e-9 relative
    rng = np.random.default_rng(31)
    violations = 0
    worst_equality = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 33))
        h = KnownBsRisChannel(
            rng.uniform(0.2, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        )
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        snr = float(rng.uniform(0.1, 5.0))
        cap = capacity(h, g, snr)
        theta = RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        rate = achievable_rate(effective_channel(theta, h, g), snr)
        violations += rate > cap
        aligned = RisConfiguration(
            np.exp(-1j * (np.angle(h.coefficients) + np.angle(g)))
        )
        best = achievable_rate(effective_channel(aligned, h, g), snr)
        worst_equality = max(worst_equality, abs(best - cap) / cap)
    ok = violations == 0 and worst_equality <= 1e-9
    report(
        6,
        ok,
        f"{violations} bound violations, worst optimal-config equality "
        f"error {worst_equality:.2e} (relative)",
    )
    assert violations == 0
    assert worst_equality <= 1e-9


def test_criterion_07_argmax_scale_invariance():
    # scaling the received vector by any nonzero complex number leaves
    # the angle estimate exactly unchanged
    rng = np.random.default_rng(55)
    n = 16
    array = ArrayModel(n, 0.25)
    grid = AoaSearchGrid(num_points=1200)
    candidates = plausible_angles(n).angles
    mismatches = 0
    for _ in range(100):
        h = random_bs_ris_channel(n, rng)
        num_rows = int(rng.integers(2, 7))
        rows = pool_config_rows(
            h, rng.choice(candidates, size=num_rows, replace=False), array
        )
        channel = LosChannel(1.0, float(rng.uniform(0, 2 * np.pi)),
                             float(rng.uniform(-1.0, 1.0)))
        g = expand_channel(channel, array)
        noise = rng.standard_normal(num_rows) + 1j * rng.standard_normal(num_rows)
        received = rows @ (h.coefficients * g) * np.sqrt(10.0) + noise / np.sqrt(2)
        campaign = PilotCampaign(rows, received, 10.0, h)
        baseline = estimate_aoa(campaign, array, grid)
        scale = 0.0
        while scale == 0.0:
            scale = complex(rng.normal(), rng.normal())
        scaled = PilotCampaign(rows, scale * received, 10.0, h)
        mismatches += estimate_aoa(scaled, array, grid) != baseline
    ok = mismatches == 0
    report(7, ok, f"{mismatches} argmax changes over 100 scaled campaigns")
    assert mismatches == 0


def test_criterion_08_beam_correlation_formula():
    # candidate-beam inner products follow |sin(N x)/sin(x)| in the sine
    # difference, to 1e-9 (relative above 1, absolute at the exact nulls)
    rng = np.random.default_rng(101)
    n, rho = 40, 0.25
    array = ArrayModel(n, rho)
    h = random_bs_ris_channel(n, rng)
    angles = plausible_angles(n).angles
    configs = [RisConfiguration(row) for row in pool_config_rows(h, angles, array)]
    worst = 0.0
    for _ in range(50):
        i, j = rng.choice(n, size=2, replace=False)
        measured = config_correlation(configs[i], configs[j])
        delta = math.sin(angles[j]) - math.sin(angles[i])
        x = math.pi * rho * delta
        analytic = abs(math.sin(n * x) / math.sin(x))
        worst = max(worst, abs(measured - analytic) / max(analytic, 1.0))
    ok = worst <= 1e-9
    report(8, ok, f"worst kernel mismatch {worst:.2e} over 50 beam pairs")
    assert worst <= 1e-9


def gap_db_between_top_two_peaks(utility_db: np.ndarray) -> float:
    idx = local_peak_indices(utility_db)
    idx = idx[np.isfinite(utility_db[idx])]
    peaks = np.sort(utility_db[idx])[::-1]
    if peaks.size < 2:
        return float("inf")
    return float(peaks[0] - peaks[1])


def test_criterion_09_fig3_utility_evolution():
    # seeded runs at true angle -pi/4: the final argmax sits within one
    # grid step of the truth and the top-two-peak gap opens up with L
    truth = -math.pi / 4
    successes = 0
    details = []
    for seed in range(10):
        config = ExperimentConfig(num_trials=1, rng_seed=seed)
        trace = run_utility_trace(config, truth, 10)
        step = config.grid().step
        first, last = trace.stages[0], trace.stages[-1]
        near_truth = abs(trace.angles[last.argmax_index] - truth) <= step
        gap_grew = gap_db_between_top_two_peaks(
            last.utility_db
        ) > gap_db_between_top_two_peaks(first.utility_db)
        successes += near_truth and gap_grew
        details.append("y" if near_truth and gap_grew else "n")
    ok = successes >= 8
    report(9, ok, f"{successes}/10 seeds converged with a growing peak gap "
                  f"[{''.join(details)}]")
    assert successes >= 8


def test_criterion_10_csv_determinism(tmp_path):
    # identical config and seed produce byte-identical rate-curve CSVs
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "num_elements=16\npilot_budgets=2,4,8\nnum_trials=150\n"
        "grid_points=500\nrng_seed=2718\n"
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["rate-curve", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["rate-curve", "--config", str(cfg), "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report(10, identical, f"{first.stat().st_size}-byte CSVs are byte-identical")
    assert identical
