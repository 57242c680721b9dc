"""Command-line interface.

Subcommands: ``rate-curve`` (Monte Carlo rate-vs-pilot-count sweep),
``utility-trace`` (utility evolution of one seeded run), ``estimate-once``
(single-run summary for debugging) and ``validate`` (noise-free
consistency checks). Angles are degrees on this boundary. Exit codes:
0 success, 2 validation or parse error, 3 runtime numerical or I/O
error. The ``RIS_SIM_SEED`` environment variable overrides the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import adaptive, estimators, model
from .errors import (
    AngleDomainError,
    ConfigParseError,
    ConfigValidationError,
    DegenerateDirectionError,
    DimensionError,
    InsufficientPilotsError,
    PoolExhaustedError,
    SingularChannelError,
)
from .io import emit_rate_csv, emit_utility_csv, parse_config
from .simulate import (
    ExperimentConfig,
    run_rate_experiment,
    run_single_estimate,
    run_utility_trace,
)

SEED_ENV_VAR = "RIS_SIM_SEED"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispilot",
        description="LOS channel estimation simulator for a phase-shifting "
        "reflective surface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override a config field (repeatable); angle intervals "
            "are given in degrees",
        )

    rate = sub.add_parser("rate-curve", help="average rate vs pilot count")
    add_config_options(rate)
    rate.add_argument("--out", metavar="CSV", required=True)
    rate.add_argument(
        "--progress", action="store_true", help="print a trial counter to stderr"
    )

    trace = sub.add_parser("utility-trace", help="utility evolution of one run")
    add_config_options(trace)
    trace.add_argument("--true-aoa-deg", type=float, required=True)
    trace.add_argument("--l-max", type=int, required=True)
    trace.add_argument("--out", metavar="CSV", required=True)

    once = sub.add_parser("estimate-once", help="single seeded estimation run")
    add_config_options(once)
    once.add_argument("--true-aoa-deg", type=float, required=True)
    once.add_argument("--l", type=int, required=True)

    sub.add_parser("validate", help="run the noise-free consistency checks")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = parse_config(getattr(args, "config", None), args.overrides)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigValidationError(
                f"rng_seed: {SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from exc
        config = dataclasses.replace(config, rng_seed=seed)
    return config


def estimate_once(config: ExperimentConfig, true_aoa: float, num_pilots: int) -> str:
    """Text summary of one seeded run: estimates, rate, chosen angles."""
    summary = run_single_estimate(config, true_aoa, num_pilots)
    result = summary.record.result
    lines = [
        f"seed: {config.rng_seed}",
        f"true aoa: {true_aoa:.6g} rad ({math.degrees(true_aoa):.6g} deg)",
        f"estimated aoa: {result.aoa_estimate:.6g} rad "
        f"({math.degrees(result.aoa_estimate):.6g} deg)",
        f"gain estimate: {result.gain_estimate:.6g}",
        f"phase estimate: {result.phase_estimate:.6g} rad",
        f"achieved rate: {summary.achieved_rate:.6g} bits/s/Hz",
        f"capacity: {summary.capacity_value:.6g} bits/s/Hz",
        f"capacity ratio: {summary.ratio:.6g}",
    ]
    for step in summary.record.steps:
        mark = (
            ""
            if step.aoa_estimate is None
            else f" -> estimate {math.degrees(step.aoa_estimate):.6g} deg"
        )
        lines.append(
            f"pilot {step.pilot_index}: config angle "
            f"{math.degrees(step.config_angle):.6g} deg{mark}"
        )
    return "\n".join(lines)


def _check_noise_free_recovery() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    array = model.ArrayModel(16, 0.25)
    grid = estimators.AoaSearchGrid(num_points=1500)
    angles = grid.angles
    pool_angles = adaptive.plausible_angles(16).angles
    for _ in range(5):
        target = rng.choice(pool_angles)
        aoa = float(angles[np.argmin(np.abs(angles - target))])
        channel = model.LosChannel(rng.uniform(0.5, 2.0), rng.uniform(0, 6), aoa)
        h = model.random_bs_ris_channel(16, rng)
        record = adaptive.run_adaptive_estimation(
            channel, h, array, 5, math.inf, rng, grid
        )
        if record.result.aoa_estimate != aoa:
            return False, f"angle {aoa} not recovered exactly"
        if abs(record.result.gain_estimate - channel.gain) > 1e-9 * channel.gain:
            return False, "gain estimate off beyond 1e-9"
    return True, "noise-free adaptive runs recover the angle exactly"


def _check_least_squares_recovery() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    n = 16
    array = model.ArrayModel(n, 0.25)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    for _ in range(5):
        channel = model.LosChannel(
            rng.uniform(0.5, 2.0), rng.uniform(0, 6), rng.uniform(-1.0, 1.0)
        )
        h = model.random_bs_ris_channel(n, rng)
        g = model.expand_channel(channel, array)
        received = dft.T @ (h.coefficients * g) * np.sqrt(4.0)
        campaign = estimators.PilotCampaign(dft.T, received, 4.0, h)
        estimate = estimators.least_squares_estimate(campaign)
        if np.max(np.abs(estimate - g)) > 1e-9:
            return False, "full-rank noise-free recovery beyond 1e-9"
    return True, "full-rank noise-free least squares is exact"


def _check_capacity_bound() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    for _ in range(500):
        n = int(rng.integers(2, 24))
        h = model.KnownBsRisChannel(
            rng.uniform(0.2, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        )
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta = model.RisConfiguration(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        cap = model.capacity(h, g, 1.5)
        rate = model.achievable_rate(model.effective_channel(theta, h, g), 1.5)
        if rate > cap:
            return False, "random configuration beat the capacity bound"
        aligned = model.RisConfiguration(
            np.exp(-1j * (np.angle(h.coefficients) + np.angle(g)))
        )
        best = model.achievable_rate(model.effective_channel(aligned, h, g), 1.5)
        if abs(best - cap) > 1e-9 * cap:
            return False, "phase-aligned configuration misses the capacity"
    return True, "capacity bounds hold on 500 random draws"


def _check_scale_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    n = 12
    array = model.ArrayModel(n, 0.25)
    grid = estimators.AoaSearchGrid(num_points=600)
    pool = adaptive.plausible_angles(n)
    for _ in range(20):
        h = model.random_bs_ris_channel(n, rng)
        rows = np.vstack(
            [
                adaptive.optimal_configuration(h, a, array).phases
                for a in rng.choice(pool.angles, size=3, replace=False)
            ]
        )
        received = rng.normal(size=3) + 1j * rng.normal(size=3)
        campaign = estimators.PilotCampaign(rows, received, 1.0, h)
        scale = complex(rng.normal(), rng.normal())
        if scale == 0:
            scale = 1.0
        scaled = estimators.PilotCampaign(rows, scale * received, 1.0, h)
        if estimators.estimate_aoa(campaign, array, grid) != estimators.estimate_aoa(
            scaled, array, grid
        ):
            return False, "angle estimate moved under received-signal scaling"
    return True, "angle estimates are invariant to scaling the received signal"


def _check_beam_correlation() -> tuple[bool, str]:
    rng = np.random.default_rng(19)
    n = 40
    rho = 0.25
    array = model.ArrayModel(n, rho)
    h = model.random_bs_ris_channel(n, rng)
    angles = adaptive.plausible_angles(n).angles
    configs = [adaptive.optimal_configuration(h, a, array) for a in angles]
    for _ in range(20):
        i, j = rng.choice(n, size=2, replace=False)
        measured = adaptive.config_correlation(configs[i], configs[j])
        delta = math.sin(angles[j]) - math.sin(angles[i])
        x = math.pi * rho * delta
        expected = abs(math.sin(n * x) / math.sin(x))
        if abs(measured - expected) > 1e-9 * max(expected, 1.0):
            return False, "beam correlation disagrees with the Dirichlet kernel"
    return True, "beam correlations match the Dirichlet kernel"


VALIDATION_CHECKS = (
    ("noise-free-recovery", _check_noise_free_recovery),
    ("least-squares-recovery", _check_least_squares_recovery),
    ("capacity-bound", _check_capacity_bound),
    ("scale-invariance", _check_scale_invariance),
    ("beam-correlation", _check_beam_correlation),
)


def run_validation(out=None) -> bool:
    """Run all consistency checks, printing one line per check."""
    out = out if out is not None else sys.stdout
    all_ok = True
    for name, check in VALIDATION_CHECKS:
        ok, detail = check()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
    return all_ok


def _cmd_rate_curve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    progress = None
    if args.progress:
        every = max(1, config.num_trials // 20)

        def progress(done: int, total: int) -> None:
            if done % every == 0 or done == total:
                print(f"trial {done}/{total}", file=sys.stderr)

    points = run_rate_experiment(config, progress=progress)
    emit_rate_csv(points, args.out)
    print(f"wrote {len(points)} rate points to {args.out}")
    return EXIT_OK


def _cmd_utility_trace(args: argparse.Namespace) -> int:
    config = _load_config(args)
    trace = run_utility_trace(config, math.radians(args.true_aoa_deg), args.l_max)
    emit_utility_csv(trace, args.out)
    print(f"wrote {len(trace.stages)} utility stages to {args.out}")
    return EXIT_OK


def _cmd_estimate_once(args: argparse.Namespace) -> int:
    config = _load_config(args)
    print(estimate_once(config, math.radians(args.true_aoa_deg), args.l))
    return EXIT_OK


def _cmd_validate(_args: argparse.Namespace) -> int:
    return EXIT_OK if run_validation() else EXIT_INVALID


COMMANDS = {
    "rate-curve": _cmd_rate_curve,
    "utility-trace": _cmd_utility_trace,
    "estimate-once": _cmd_estimate_once,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (
        ConfigParseError,
        ConfigValidationError,
        AngleDomainError,
        DimensionError,
        InsufficientPilotsError,
        PoolExhaustedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (
        DegenerateDirectionError,
        SingularChannelError,
        np.linalg.LinAlgError,
        FloatingPointError,
        OSError,
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
