"""Acceptance suite: one test per headline behavior, at stated tolerances.

Each test prints a single summary line with the measured values so the
suite reads as a checklist under ``pytest -v -s``.
"""

import hashlib
import math

import numpy as np

from rispilot import checks, run_rate_experiment, run_single_estimate
from rispilot.cli import main
from rispilot.io import emit_rate_csv, parse_config
from rispilot.simulate import ExperimentConfig

from conftest import local_peak_indices, utility_db


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {detail}")


#: sha256 of the criteria 1-3 curves' CSVs (numpy 2.4, x86-64): a speedup
#: that moves one pick or one rounding shows here, inside the bounds
CRITERION_01_SHA256 = "d51036ea6427e57a0a45b88a23e6a2faaba08ff0dde075ede126208c057a59ae"
CRITERION_02_SHA256 = "12c86b6abf5409fd2ecaea3a7af326fedf5f59eea019f55735d9a4d39358af62"
CRITERION_03_SHA256 = "679098e8cbb2cc0f94c137154b17f89e0088a1a7109f0b0657bdddc9cc33094c"


def criteria_curve(overrides, tmp_path):
    """The 2000-trial seed-42 curve of the ``--set`` overrides, and its CSV's sha256.

    These are the bytes ``rispilot rate-curve --set num_trials=2000
    --set ... --out FILE`` writes for the same overrides.
    """
    config = parse_config(None, ["num_trials=2000", *overrides])
    points = run_rate_experiment(config)
    out = tmp_path / "criteria.csv"
    emit_rate_csv(points, out)
    return points, hashlib.sha256(out.read_bytes()).hexdigest()


def test_criterion_01_fig2a_rate_ratios(tmp_path):
    # SNR_p = 10 dB, SNR_d = 0 dB: ratios 0.76 / 0.93 / 0.96 at L = 2 / 4 / 5
    curve, digest = criteria_curve(["pilot_budgets=2,4,5"], tmp_path)
    points = {p.pilot_budget: p for p in curve}
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
    assert digest == CRITERION_01_SHA256


def test_criterion_02_fig2b_low_snr(tmp_path):
    # SNR_p = 0 dB, SNR_d = -10 dB: 0.96 at L = 10 and a clear LS deficit
    (point,), digest = criteria_curve(["data_snr_db=-10", "pilot_budgets=10"], tmp_path)
    ok = abs(point.ratio_ml - 0.96) <= 0.04 and point.ratio_ml - point.ratio_ls >= 0.15
    report(
        2,
        ok,
        f"ML ratio {point.ratio_ml:.3f} (target 0.96), "
        f"LS ratio {point.ratio_ls:.3f}, deficit {point.ratio_ml - point.ratio_ls:.3f}",
    )
    assert abs(point.ratio_ml - 0.96) <= 0.04
    assert point.ratio_ml - point.ratio_ls >= 0.15
    assert digest == CRITERION_02_SHA256


def test_criterion_03_ls_convergence(tmp_path):
    # the LS baseline needs L close to N to approach the adaptive ML rate
    curve, digest = criteria_curve(["pilot_budgets=10,40"], tmp_path)
    points = {p.pilot_budget: p for p in curve}
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
    assert digest == CRITERION_03_SHA256


def test_criterion_04_noise_free_exactness():
    # 100 random channels with the truth on the candidate-angle grid are
    # recovered exactly with 5 noise-free pilots
    result = checks.noise_free_recovery()
    v = result.values
    ok = (
        result.cases == 100
        and v["exact"] == 100
        and v["worst_gain"] <= 1e-9
        and v["worst_phase"] <= 1e-9 * 2 * np.pi
    )
    report(4, ok, result.detail)
    assert result.cases == 100
    assert v["exact"] == 100
    assert v["worst_gain"] <= 1e-9
    assert v["worst_phase"] <= 1e-9 * 2 * np.pi


def test_criterion_05_ls_exact_recovery():
    # noise-free campaigns of all N permuted DFT rows reproduce the channel
    # through the Monte Carlo's prefix sums, to 1e-9 elementwise
    result = checks.least_squares_recovery()
    ok = result.cases == 20 and result.values["worst"] <= 1e-9
    report(5, ok, result.detail)
    assert result.cases == 20
    assert result.values["worst"] <= 1e-9


def test_criterion_06_capacity_bound_suite():
    # 1e4 random draws: no random-phase estimate's phase-matched rate beats
    # the bound, and the channel's own phases attain it to 1e-9 relative
    result = checks.capacity_bound()
    v = result.values
    ok = (
        result.cases == 10_000
        and v["violations"] == 0
        and v["worst_equality"] <= 1e-9
    )
    report(6, ok, result.detail)
    assert result.cases == 10_000
    assert v["violations"] == 0
    assert v["worst_equality"] <= 1e-9


def test_criterion_07_argmax_scale_invariance():
    # scaling the received vector by any nonzero complex number leaves
    # the angle estimate exactly unchanged
    result = checks.scale_invariance()
    ok = result.cases == 100 and result.values["mismatches"] == 0
    report(7, ok, result.detail)
    assert result.cases == 100
    assert result.values["mismatches"] == 0


def test_criterion_08_beam_correlation_formula():
    # the setup's candidate-beam projections follow |sin(N x)/sin(x)| in the
    # sine difference, to 1e-9 (relative above 1, absolute at the exact nulls)
    result = checks.beam_correlation()
    ok = result.cases == 50 and result.values["worst"] <= 1e-9
    report(8, ok, result.detail)
    assert result.cases == 50
    assert result.values["worst"] <= 1e-9


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
        summary = run_single_estimate(config, truth, 10)
        grid = config.grid()
        step = (grid.upper - grid.lower) / (grid.num_points - 1)
        first, last = summary.utilities[0], summary.utilities[-1]
        near_truth = abs(summary.grid.angles[np.argmax(last)] - truth) <= step
        gap_grew = gap_db_between_top_two_peaks(
            utility_db(last)
        ) > gap_db_between_top_two_peaks(utility_db(first))
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
