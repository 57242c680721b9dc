"""Command-line interface.

Subcommands: ``rate-curve`` (Monte Carlo rate-vs-pilot-count sweep),
``utility-trace`` (utility evolution of one seeded run), ``estimate-once``
(summary of the same seeded run, for debugging) and ``validate`` (the
consistency checks in ``checks.py``, which acceptance criteria 4-8 also
run, at the same seeds and sizes). Angles are degrees on this boundary.
Exit codes: 0 success, 2 an ``InvalidInputError`` or a failed check, 3 any
other package, numpy or I/O error, 141 (128 + SIGPIPE) when stdout's reader
has closed the pipe. The seed is the ``rng_seed`` config field.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import checks
from .errors import InvalidInputError, RisPilotError
from .io import emit_rate_csv, emit_utility_csv, parse_config
from .simulate import ExperimentConfig, run_rate_experiment, run_single_estimate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141


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

    sub.add_parser("validate", help="run the consistency checks")
    return parser


def estimate_once(config: ExperimentConfig, true_aoa: float, num_pilots: int) -> str:
    """Text summary of one seeded run: estimates, rate, chosen angles."""
    summary = run_single_estimate(config, true_aoa, num_pilots)
    record = summary.record
    result = record.result
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
    # the first pilot alone gives no estimate
    marks = [""] + [
        f" -> estimate {math.degrees(aoa):.6g} deg" for aoa in record.aoa_estimates
    ]
    for pilot, (angle, mark) in enumerate(zip(record.config_angles, marks), start=1):
        lines.append(
            f"pilot {pilot}: config angle {math.degrees(angle):.6g} deg{mark}"
        )
    return "\n".join(lines)


def _cmd_rate_curve(args: argparse.Namespace) -> int:
    config = parse_config(args.config, args.overrides)
    progress = None
    if args.progress:
        every = max(1, config.num_trials // 20)
        shown = 0

        def progress(done: int, total: int) -> None:
            # counts arrive a chunk of trials at a time: print when one
            # passes the next multiple of ``every``, and always the last
            nonlocal shown
            if done // every > shown // every or done == total:
                shown = done
                print(f"trial {done}/{total}", file=sys.stderr)

    points = run_rate_experiment(config, progress=progress)
    emit_rate_csv(points, args.out)
    print(f"wrote {len(points)} rate points to {args.out}")
    return EXIT_OK


def _cmd_utility_trace(args: argparse.Namespace) -> int:
    config = parse_config(args.config, args.overrides)
    summary = run_single_estimate(config, math.radians(args.true_aoa_deg), args.l_max)
    emit_utility_csv(summary.record, args.out)
    print(f"wrote {len(summary.record.utilities)} utility stages to {args.out}")
    return EXIT_OK


def _cmd_estimate_once(args: argparse.Namespace) -> int:
    config = parse_config(args.config, args.overrides)
    print(estimate_once(config, math.radians(args.true_aoa_deg), args.l))
    return EXIT_OK


def _cmd_validate(_args: argparse.Namespace) -> int:
    all_ok = True
    for check in checks.CHECKS:
        result = check()
        all_ok &= result.passed
        name = check.__name__.replace("_", "-")
        print(f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}")
    return EXIT_OK if all_ok else EXIT_INVALID


COMMANDS = {
    "rate-curve": _cmd_rate_curve,
    "utility-trace": _cmd_utility_trace,
    "estimate-once": _cmd_estimate_once,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the exit-time flush of what stdout still buffers must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (RisPilotError, np.linalg.LinAlgError, FloatingPointError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
