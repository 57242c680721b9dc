"""Benchmark of the rispilot command line, driven in process.

Run from the repository root, for example::

    python3 bench/run_bench.py --workload full_curve --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one caller: ``rispilot.cli.main`` is
called with the next operation's arguments as soon as the previous call
returns, for ``--seconds`` seconds. BLAS and OpenMP run one thread. The
program sees only the ``rng_seed``, true angle and budgets that the
workload seed generates; operation i uses seeded input ``i mod K``, so a
run repeats each input and checks that it writes the same bytes again.

Workloads, all at the reference configuration (N=40, spacing 0.25, a
2000-point angle grid, 0 dB data SNR, pilots 10 dB above it):

* ``full_curve``: ``rate-curve`` with the 11 default budgets up to L=40.
  All 40 pilots run, so per-pilot projection, candidate selection and
  11 least-squares solves per trial dominate.
* ``short_curve``: ``rate-curve`` with budgets 2,4,5. The loop stops after
  5 pilots, so per-trial setup (steering matrix, candidate pool)
  dominates; per-pilot work shows little here.
* ``trace_once``: ``utility-trace --l-max 10`` for one trial, writing an
  18 000-row CSV; the interactive single-trial path, and the only
  workload where ``io`` is heavy.

With ``--trace 0`` the run reports the end-to-end metrics, every one on
every workload: ``trials_per_s``, ``op_ms_p50`` and ``op_ms_p90`` over the
timed operations; ``setup_s``, the median time of ``python -m
rispilot.cli`` running operation 0 in a fresh interpreter, whose CSV must
equal the in-process one; ``peak_rss_mb``; ``ok_rate``, the share of
operations that passed their checks; and ``ratio_ml_L2``/``ratio_ml_L5``,
the ML estimate's share of capacity after 2 and 5 pilots over all inputs
(for ``trace_once`` from the argmax angle of each trace). Times are
reported at a reference machine speed, see ``SpeedReference``. With
``--trace 1`` it alternates untraced operations with operations traced by
``spans.Tracer`` and reports per-layer metrics; the traced and untraced
operations of one input must write identical bytes. Expected movers:
``model.steering_matrix`` and ``adaptive.build_configuration_pool`` move
``trials_per_s`` mainly on ``short_curve``; the per-pilot loop of
``adaptive.run_adaptive_estimation``, candidate selection and
``estimators.least_squares_estimate`` move it on ``full_curve``;
``io.emit_utility_csv`` moves ``op_ms_p50`` on ``trace_once`` only.

Every operation's CSV is checked (``outputs``) and hashed. The hash is
stored by workload, seed, input and ``src/`` digest under
``.bench_out/``, so a later run of the same code that writes other bytes
counts as a failed operation. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the run manifest and the hashes, goes
to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from outputs import (
    OutputError,
    check_rate_csv,
    check_utility_csv,
    steered_capacity_ratio,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = OUT / "work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SEED_ENV_VAR = "RIS_SIM_SEED"

NUM_ELEMENTS = 40
SPACING = 0.25
GRID_POINTS = 2000
DATA_SNR_DB = 0.0
CONFIG = (
    f"num_elements={NUM_ELEMENTS}",
    f"spacing_ratio={SPACING}",
    f"grid_points={GRID_POINTS}",
    f"data_snr_db={DATA_SNR_DB}",
    "pilot_snr_offset_db=10",
    "ue_angle_range=-60,60",
    "search_domain=-90,90",
)
#: True angles of ``trace_once`` stay strictly inside the +-60 degree UE range.
TRACE_AOA_LIMIT_DEG = 59.0
L_MAX = 10
DEFAULT_BUDGETS = (2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40)
QUALITY_BUDGETS = (2, 5)
LS_QUALITY_BUDGET = 10
SETUP_PROBES = 7
#: Times of ``SpeedReference``'s kernel at the speed all times are reported
#: at: the numpy part, and each formatted CSV row.
REFERENCE_KERNEL_S = 0.005
REFERENCE_CSV_ROW_S = 1.5e-6
#: Kernel times on each side of an operation that set its speed factor.
SPEED_WINDOW = 2
#: Formatted rows in the speed kernel of ``trace_once``, whose time goes
#: mostly to writing its CSV.
KERNEL_CSV_ROWS = 3000
PROBE_TIMEOUT_S = 150


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: what an operation runs and how often inputs repeat.

    ``inputs`` seeded inputs are cycled through; the quality metrics
    average over exactly these, so they do not depend on how many
    operations fit in a run.
    """

    name: str
    budgets: tuple[int, ...]  # rate-curve budgets; empty for a utility trace
    trials: int  # Monte Carlo trials per operation
    inputs: int

    @property
    def is_trace(self) -> bool:
        return not self.budgets


WORKLOADS = {
    w.name: w
    for w in (
        Workload("full_curve", DEFAULT_BUDGETS, trials=10, inputs=100),
        Workload("short_curve", (2, 4, 5), trials=20, inputs=60),
        Workload("trace_once", (), trials=1, inputs=360),
    )
}
#: Sizes of the ``--tiny`` runs the self-check makes.
TINY_TRIALS = 2
TINY_INPUTS = 3

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "fraction",
    "ratio_ml_L2": "fraction",
    "ratio_ml_L5": "fraction",
}

#: Spans reported per layer; other wrapped names are summed into ``other_spans``.
SPANS = (
    "model.steering_matrix",
    "adaptive.run_adaptive_estimation",
    "adaptive.ConfigurationPool.take_best_match",
    "adaptive.config_correlation",
    "adaptive.optimal_configuration",
    "adaptive.build_configuration_pool",
    "adaptive.simulate_pilot_reception",
    "estimators.least_squares_estimate",
    "estimators.PilotCampaign",
    "model.capacity",
    "model.achievable_rate",
    "model.random_bs_ris_channel",
    "model.array_response",
    "simulate.collect_trial_rates",
    "simulate.run_utility_trace",
    "io.emit_utility_csv",
    "io.parse_config",
    "io.emit_rate_csv",
    "cli.main",
)
DERIVED_UNITS = {
    "adaptive.pilots_per_trial": "pilots/trial",
    "adaptive.candidates_scored_per_pick": "calls/pick",
    "estimators.ls_solves_per_trial": "solves/trial",
    "adaptive.projection_flop_per_trial": "flop/trial",
    "model.steering_bytes_per_call": "B/call",
    "io.bytes_written_per_op": "B/op",
    "other_spans.self_share": "fraction",
    "unattributed_ms_per_trial": "ms/trial",
    "trace_overhead_pct": "%",
    "ratio_ls_L10": "fraction",
}
PER_LAYER_UNITS = {
    **{
        f"{span}.{suffix}": unit
        for span in SPANS
        for suffix, unit in (
            ("calls_per_trial", "calls/trial"),
            ("self_ms_per_trial", "ms/trial"),
            ("self_share", "fraction"),
        )
    },
    **DERIVED_UNITS,
}


def make_inputs(workload: Workload, seed: int) -> list[tuple[int, float | None]]:
    """(rng_seed, true angle in degrees or None) per input, from the workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [
        (
            rng.getrandbits(63),
            rng.uniform(-TRACE_AOA_LIMIT_DEG, TRACE_AOA_LIMIT_DEG)
            if workload.is_trace
            else None,
        )
        for _ in range(workload.inputs)
    ]


def op_argv(workload: Workload, rng_seed: int, aoa_deg: float | None, out: Path):
    settings = [*CONFIG, f"rng_seed={rng_seed}"]
    if workload.is_trace:
        head = ["utility-trace", "--true-aoa-deg", repr(aoa_deg), "--l-max", str(L_MAX)]
    else:
        head = ["rate-curve"]
        settings += [
            f"num_trials={workload.trials}",
            "pilot_budgets=" + ",".join(map(str, workload.budgets)),
        ]
    return [*head, *(a for s in settings for a in ("--set", s)), "--out", str(out)]


def pinned_env() -> dict[str, str]:
    """Environment for a fresh interpreter running the checkout's package."""
    env = dict(os.environ)
    env.pop(SEED_ENV_VAR, None)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def run_fresh_interpreter(argv: list[str]) -> tuple[int, float]:
    """Run ``python -m rispilot.cli`` as a subprocess; (exit code, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rispilot.cli", *argv],
        cwd=ROOT,
        env=pinned_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    return proc.returncode, time.perf_counter() - start


def src_digest() -> tuple[str, int]:
    """sha256 over the package sources, and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


class HashStore:
    """CSV hashes of earlier runs, keyed by code, workload, seed and input."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.known = {}

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


class Session:
    """Runs operations of one workload, checks their output and keeps tallies."""

    def __init__(self, workload: Workload, seed: int, cli, store: HashStore, code: str):
        self.workload = workload
        self.seed = seed
        self.inputs = make_inputs(workload, seed)
        self.cli = cli
        self.store = store
        self.code = code
        self.out = WORK / f"{workload.name}.csv"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[int, str] = {}
        self.checked: dict[int, dict] = {}
        self.bytes_written: list[int] = []

    def argv(self, index: int) -> list[str]:
        return op_argv(self.workload, *self.inputs[index], self.out)

    def run_in_process(self, argv: list[str]) -> tuple[int, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            return code, time.perf_counter() - start

    def execute(self, index: int, runner=None) -> float | None:
        """Run input ``index`` once; its wall seconds, or None if it failed."""
        self.attempted += 1
        argv = self.argv(index)
        try:
            self.out.unlink(missing_ok=True)
            code, seconds = (runner or self.run_in_process)(argv)
            if code != 0:
                raise OutputError(f"exit code {code}")
            self._accept(index, argv, self.out.read_bytes())
        except Exception:  # an operation's failure is counted, not raised
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"input {index}: {traceback.format_exc()}")
            return None
        return seconds

    def _accept(self, index: int, argv: list[str], data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        self.bytes_written.append(len(data))
        known = self.hashes.setdefault(index, digest)
        if known != digest:
            raise OutputError(f"bytes differ from an earlier run of input {index}")
        if index in self.checked:
            return
        key = hashlib.sha256(
            json.dumps([self.code, self.workload.name, self.seed, argv[:-1]]).encode()
        ).hexdigest()
        stored = self.store.known.setdefault(key, digest)
        if stored != digest:
            raise OutputError(f"bytes differ from a stored run of input {index}")
        if self.workload.is_trace:
            result = check_utility_csv(data, L_MAX, GRID_POINTS)
        else:
            result = check_rate_csv(data, self.workload.budgets, self.workload.trials)
        self.checked[index] = result

    def complete_inputs(self) -> None:
        """Run, untimed, each input the timed loop did not reach."""
        for index in range(len(self.inputs)):
            if index not in self.checked:
                self.execute(index)

    def quality(self) -> dict[str, float]:
        """Capacity ratios averaged over the checked inputs (0 where not measured).

        After ``complete_inputs`` these are all the workload's inputs, so
        the ratios are exact for a given seed.
        """
        data_power = 10.0 ** (DATA_SNR_DB / 10.0)
        per_input: dict[str, list[float]] = {}
        for index, result in sorted(self.checked.items()):
            _, aoa_deg = self.inputs[index]
            for budget in QUALITY_BUDGETS:
                if self.workload.is_trace:
                    ratio = steered_capacity_ratio(
                        math.radians(aoa_deg), result[budget], NUM_ELEMENTS, SPACING,
                        data_power,
                    )
                else:
                    ratio = result[budget][0]
                per_input.setdefault(f"ratio_ml_L{budget}", []).append(ratio)
            if LS_QUALITY_BUDGET in self.workload.budgets:
                per_input.setdefault("ratio_ls_L10", []).append(
                    result[LS_QUALITY_BUDGET][1]
                )
        names = [f"ratio_ml_L{b}" for b in QUALITY_BUDGETS] + ["ratio_ls_L10"]
        return {
            name: statistics.fmean(per_input[name]) if name in per_input else 0.0
            for name in names
        }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class SpeedReference:
    """A fixed kernel, timed after each operation, that tracks machine speed.

    On a shared two-core host the speed of the same code drifts by up to
    ~1.6x over tens of seconds, in CPU time as much as in wall time. The
    kernel is a miniature of the kinds of work the operations do: a
    steering-matrix exponential, pilot projections, small-vector
    correlations and small pseudoinverses, plus, for a workload that
    writes a utility CSV, ``csv_rows`` rows of float formatting. It
    slows down with the operations, so scaling an operation's time by
    ``reference_s / kernel time`` reports it at one reference speed and
    cancels most of the drift. Speed can switch between two levels within
    a run, so each operation uses the kernel times nearest to it. Raw wall
    times are kept in the results file.
    """

    def __init__(self, np, csv_rows: int):
        self._np = np
        self._csv_values = [math.sin(0.001 * i) for i in range(csv_rows)]
        self.reference_s = REFERENCE_KERNEL_S + csv_rows * REFERENCE_CSV_ROW_S
        self._phases = -0.5j * np.pi * np.outer(
            np.arange(NUM_ELEMENTS), np.sin(np.linspace(-1.5, 1.5, GRID_POINTS))
        )
        self._directions = np.exp(self._phases)
        self._row = self._directions[:, 0].conj()
        self._rows = self._directions[:, :LS_QUALITY_BUDGET].T.copy()
        self.kernel_s()  # the first call pays one-off library set-up

    def kernel_s(self) -> float:
        np = self._np
        start = time.perf_counter()
        np.exp(self._phases)
        for _ in range(15):
            np.argmax(np.abs(self._row @ self._directions) ** 2)
        for _ in range(200):
            abs(np.vdot(self._row, self._row))
        for _ in range(5):
            np.linalg.pinv(self._rows)
        "\n".join(
            f"{i},{format(v, '.9g')},{format(3.0 * v, '.9g')},0"
            for i, v in enumerate(self._csv_values)
        )
        return time.perf_counter() - start

    def factor(self, kernel_times: list[float]) -> float:
        """Factor to reference speed, from the median of nearby kernel times."""
        return self.reference_s / statistics.median(kernel_times)


def measure_plain(
    session: Session, seconds: float, probes: int, speed: SpeedReference
) -> tuple[dict, dict]:
    """Untraced run: warm-up, setup probes, timed loop. (metrics, samples)."""
    if session.execute(0) is None:
        raise SystemExit("warm-up operation failed:\n" + "".join(session.failures))
    setup = [
        seconds_taken
        for seconds_taken in (
            session.execute(0, run_fresh_interpreter) for _ in range(probes)
        )
        if seconds_taken is not None
    ]
    # kernel[i] and kernel[i + 1] are timed just before and after operation i;
    # its speed factor uses SPEED_WINDOW kernel times on each side.
    kernel = [speed.kernel_s()]
    raw: list[float | None] = []
    deadline = time.perf_counter() + seconds
    while True:
        raw.append(session.execute(len(raw) % len(session.inputs)))
        kernel.append(speed.kernel_s())
        if time.perf_counter() >= deadline:
            break
    session.complete_inputs()
    times = [
        speed.factor(kernel[max(0, i + 1 - SPEED_WINDOW):i + 1 + SPEED_WINDOW])
        * seconds_taken
        for i, seconds_taken in enumerate(raw)
        if seconds_taken is not None
    ]
    if not times or not setup:
        raise SystemExit("no operation succeeded:\n" + "".join(session.failures))
    quality = session.quality()
    metrics = {
        "trials_per_s": statistics.median(session.workload.trials / t for t in times),
        "op_ms_p50": 1000.0 * statistics.median(times),
        "op_ms_p90": 1000.0 * p90(times),
        # kernel times right after a subprocess read slow, so set-up is
        # scaled by the median kernel time of the whole run
        "setup_s": speed.factor(kernel) * statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (session.attempted - session.failed) / session.attempted,
        "ratio_ml_L2": quality["ratio_ml_L2"],
        "ratio_ml_L5": quality["ratio_ml_L5"],
    }
    samples = {
        "ops_timed": len(times),
        "setup_probes": len(setup),
        "raw_setup_s": setup,
        "raw_op_s": raw,
        "kernel_s": kernel,
    }
    return metrics, samples


def measure_traced(session: Session, seconds: float, tracer) -> tuple[dict, dict]:
    """Traced run: untraced and traced operations alternate on the same inputs."""
    if session.execute(0) is None:
        raise SystemExit("warm-up operation failed:\n" + "".join(session.failures))
    plain: list[float] = []
    traced: list[float] = []
    traced_bytes: list[int] = []

    def execute_traced(index: int) -> float | None:
        tracer.recording = not traced  # keep full span records of one operation
        tracer.install()
        try:
            return session.execute(index)
        finally:
            tracer.uninstall()
            tracer.recording = False

    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        index = j % len(session.inputs)
        for with_trace in (False, True) if j % 2 == 0 else (True, False):
            if not with_trace:
                seconds_taken = session.execute(index)
                if seconds_taken is not None:
                    plain.append(seconds_taken)
                continue
            seconds_taken = execute_traced(index)
            if seconds_taken is not None:
                traced.append(seconds_taken)
                traced_bytes.append(session.bytes_written[-1])
        j += 1
        if time.perf_counter() >= deadline:
            break
    if not traced or not plain:
        raise SystemExit("no operation succeeded:\n" + "".join(session.failures))
    return per_layer_metrics(session, tracer, plain, traced, traced_bytes), {
        "traced_wall_s": sum(traced),
        "ops_traced": len(traced),
        "ops_untraced": len(plain),
        "spans_recorded": len(tracer.records),
    }


def per_layer_metrics(session, tracer, plain, traced, traced_bytes) -> dict:
    trials = len(traced) * session.workload.trials
    wall = sum(traced)
    stats = tracer.stats

    def calls(name: str) -> int:
        return stats[name][0] if name in stats else 0

    metrics = {}
    for span in SPANS:
        self_s = stats[span][2] if span in stats else 0.0
        metrics[f"{span}.calls_per_trial"] = calls(span) / trials
        metrics[f"{span}.self_ms_per_trial"] = 1000.0 * self_s / trials
        metrics[f"{span}.self_share"] = self_s / wall
    pilots = calls("adaptive.simulate_pilot_reception") / trials
    picks = calls("adaptive.ConfigurationPool.take_best_match")
    attributed = sum(s[2] for s in stats.values())
    other = sum(s[2] for name, s in stats.items() if name not in SPANS)
    metrics.update(
        {
            "adaptive.pilots_per_trial": pilots,
            "adaptive.candidates_scored_per_pick": (
                calls("adaptive.config_correlation") / picks if picks else 0.0
            ),
            "estimators.ls_solves_per_trial": calls("estimators.least_squares_estimate")
            / trials,
            "adaptive.projection_flop_per_trial": 8 * NUM_ELEMENTS * GRID_POINTS * pilots,
            "model.steering_bytes_per_call": 16 * NUM_ELEMENTS * GRID_POINTS,
            "io.bytes_written_per_op": statistics.fmean(traced_bytes),
            "other_spans.self_share": other / wall,
            "unattributed_ms_per_trial": 1000.0 * (wall - attributed) / trials,
            "trace_overhead_pct": 100.0
            * (statistics.median(traced) / statistics.median(plain) - 1.0),
            "ratio_ls_L10": session.quality()["ratio_ls_L10"],
        }
    )
    return metrics


def blas_info(np) -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {
        key: blas.get(key) for key in ("name", "version", "openblas configuration")
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="few trials, inputs and probes per run, for the self-check",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rispilot" / "cli.py").is_file():
        print(f"error: no rispilot sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(SEED_ENV_VAR, None)
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()

    import numpy as np
    import rispilot
    import rispilot.cli

    if Path(rispilot.__file__).resolve().parent != SRC / "rispilot":
        print(f"error: imported rispilot from {rispilot.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = dataclasses.replace(
            workload, trials=min(workload.trials, TINY_TRIALS), inputs=TINY_INPUTS
        )
    WORK.mkdir(parents=True, exist_ok=True)
    code, src_lines = src_digest()
    store = HashStore(OUT / "hashes.json")
    session = Session(workload, args.seed, rispilot.cli, store, code)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(rispilot)
        metrics, samples = measure_traced(session, args.seconds, tracer)
        units = PER_LAYER_UNITS
    else:
        probes = 1 if args.tiny else SETUP_PROBES
        metrics, samples = measure_plain(
            session, args.seconds, probes,
            SpeedReference(np, KERNEL_CSV_ROWS if workload.is_trace else 0),
        )
        units = END_TO_END_UNITS
    store.save()

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "manifest": {
            "commit": git_commit(),
            "src_sha256": code,
            "src_lines": src_lines,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(np),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "config": {
                "argv_input0": session.argv(0),
                "trials_per_op": workload.trials,
                "distinct_inputs": workload.inputs,
            },
        },
        "samples": samples,
        "metrics": metrics,
        "csv_sha256": {str(i): h for i, h in sorted(session.hashes.items())},
        "failures": session.failures,
    }
    if tracer is not None:
        record["absent_spans"] = [s for s in SPANS if s not in tracer.names]
        record["spans"] = {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for name, s in sorted(tracer.stats.items())
        }
        origin = tracer.records[0][1] if tracer.records else 0.0
        (OUT / f"{tag}-spans.json").write_text(
            json.dumps(
                {
                    "fields": ["name", "start_us", "end_us", "parent"],
                    "spans": [
                        [n, 1e6 * (s - origin), 1e6 * (e - origin), p]
                        for n, s, e, p in tracer.records
                    ],
                }
            ),
            encoding="utf-8",
        )
    results_path = OUT / f"{tag}.json"
    results_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"results: {results_path.relative_to(ROOT)}")
    counts = {k: v for k, v in samples.items() if not isinstance(v, list)}
    print(f"samples: {json.dumps(counts)}")
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
