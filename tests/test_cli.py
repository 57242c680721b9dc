"""End-to-end tests of the command-line interface."""

import ast
import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rispilot
from rispilot import adaptive, checks, cli, errors, estimators, simulate
from rispilot.cli import main
from rispilot.io import RATE_CSV_HEADER, UTILITY_CSV_HEADER
from rispilot.simulate import _trial_chunk

#: The directory that holds the package under test, for child interpreters.
SRC = str(Path(rispilot.__file__).parents[1])

FAST = [
    "--set", "num_elements=8",
    "--set", "pilot_budgets=2,4",
    "--set", "num_trials=30",
    "--set", "grid_points=200",
]


def test_rate_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", *FAST, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == RATE_CSV_HEADER
    assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4]
    assert "wrote 2 rate points" in capsys.readouterr().out


def test_rate_curve_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["rate-curve", *FAST, "--out", str(first)]) == 0
    assert main(["rate-curve", *FAST, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_rate_curve_progress_ends_with_full_count(tmp_path, capsys):
    # trials run in chunks; a count that is not a multiple of the chunk
    # size must still end stderr with the full count
    trials = _trial_chunk(8, 200) + 5
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", *FAST, "--set", f"num_trials={trials}", "--progress"]
    assert main([*argv, "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) >= 2
    assert lines[-1] == f"trial {trials}/{trials}"
    counts = [int(line.split()[1].split("/")[0]) for line in lines]
    assert counts == sorted(set(counts))


def test_config_file_plus_overrides(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "num_elements=8\npilot_budgets=2,4\nnum_trials=30\ngrid_points=200\n"
    )
    out = tmp_path / "rates.csv"
    assert main(
        ["rate-curve", "--config", str(cfg), "--set", "num_trials=25",
         "--out", str(out)]
    ) == 0
    assert out.read_text().splitlines()[1].endswith(",25")


def test_utility_trace_cli(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        ["utility-trace", *FAST, "--true-aoa-deg", "-45", "--l-max", "5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == UTILITY_CSV_HEADER
    assert len(lines) == 1 + 4 * 200  # stages for L = 2..5


def test_utility_trace_runs_a_small_array_without_budgets(tmp_path):
    # a trace reads no budget; unset, they default to those up to N = 16
    out = tmp_path / "trace.csv"
    argv = ["utility-trace", "--set", "num_elements=16", "--set", "grid_points=200",
            "--true-aoa-deg", "-45", "--l-max", "8", "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 7 * 200  # L = 2..8


def test_estimate_once_runs_a_small_array_without_budgets(capsys):
    argv = ["estimate-once", "--set", "num_elements=16", "--set", "grid_points=200",
            "--true-aoa-deg", "-45", "--l", "8"]
    assert main(argv) == 0
    assert "pilot 8: config angle" in capsys.readouterr().out


#: The benchmark's reference config (N=40, 2000-point grid).
REFERENCE_CONFIG = [
    "--set", "num_elements=40", "--set", "spacing_ratio=0.25",
    "--set", "grid_points=2000", "--set", "data_snr_db=0.0",
    "--set", "pilot_snr_offset_db=10", "--set", "ue_angle_range=-60,60",
    "--set", "search_domain=-90,90",
]
#: The benchmark's reference trace config, L up to 10.
REFERENCE_TRACE = [*REFERENCE_CONFIG, "--l-max", "10"]


@pytest.mark.parametrize("seed, aoa_deg, digest", [
    (8917419684964321736, 31.686752088677537,
     "6b3e0a2a26a2eef4e566db736c7340fbbb72c899a9bfc3837b3adae4fab03191"),
    (8497490805353380566, -18.587694659263,
     "197f4a88ebf92d9be25df66da644b9acfaf41f4f2d0a5b2935d3b2a7c73ed6c7"),
    (7806094663086568147, 48.13856385936623,
     "e3284a7ae48f3bd552b7fab72f4b7488e245c4cc73b22ef4297ea943a12685a7"),
])
def test_utility_trace_golden_bytes(seed, aoa_deg, digest, tmp_path):
    # sha256 of the CSVs that the row-by-row emitter wrote for these inputs
    # (numpy 2.4, x86-64); the near-null grid edges rest on the last bits
    # of sin and exp, so another math library may write other bytes there
    out = tmp_path / "trace.csv"
    argv = ["utility-trace", *REFERENCE_TRACE, "--set", f"rng_seed={seed}",
            "--true-aoa-deg", repr(aoa_deg), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: 40 trials of the reference config, all 11 default budgets.
REFERENCE_CURVE = [*REFERENCE_CONFIG, "--set", "num_trials=40"]


@pytest.mark.parametrize("seed, digest", [
    (1, "37c15898c1df934b4cae13b6354428914a1225ebbd59ff87ba061f9f19b0abe8"),
    (2, "e0592626bff6fa3e516bd4b20fc78922c919b66bf4981290ce2b55b27e7c10fb"),
    (3, "447579119d68731494c70f92c3ff0179c0057392cad8d5fd8485072341322087"),
])
def test_rate_curve_golden_bytes(seed, digest, tmp_path):
    # sha256 of the 40-trial curves, 11 default budgets, that the loop with
    # whole-chunk sums and a gain and phase per step wrote (numpy 2.4,
    # x86-64); another math library may round sin and exp differently and
    # move a near-null argmax, and with it these bytes
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", *REFERENCE_CURVE, "--set", f"rng_seed={seed}", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: Runs the CLI on its arguments, then prints the process's peak resident
#: size in KiB, which ``ru_maxrss`` gives on Linux only.
PEAK_RSS_SCRIPT = """
import sys
from rispilot.cli import main
code = main(sys.argv[1:])
if sys.platform == "linux":
    import resource
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def test_large_rate_curve_bytes_and_peak_rss(tmp_path):
    # a 256-element surface on a 20 000-point grid: N^2 > CHUNK_ENTRIES, so
    # every chunk is one trial, and the setup's N x G tables set the peak
    # (about 190 MB; the complex table alone is 82 MB). A fresh interpreter
    # makes the peak this run's alone; 260 MB catches a build that holds a
    # steering matrix and its temporaries again, as the one before the
    # in-place setup did (about 306 MB). The digest is the bytes that the
    # loop of one-trial chunks wrote (numpy 2.4, x86-64)
    out = tmp_path / "large.csv"
    argv = [
        "rate-curve", "--set", "num_elements=256", "--set", "grid_points=20000",
        "--set", "num_trials=4", "--set", "pilot_budgets=2,5,10", "--out", str(out),
    ]
    env = {
        **os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1", "PYTHONWARNINGS": "error::RuntimeWarning",
    }
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv], capture_output=True,
        text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "218194e9928129e04cd7f899defab12519e15020af30533a5aeeee5f043ae069"
    )
    if sys.platform == "linux":
        peak_mb = int(proc.stdout.splitlines()[-1]) / 1024
        assert peak_mb <= 260, f"peak RSS {peak_mb:.1f} MB (limit 260 MB)"


@pytest.mark.parametrize("seed, aoa_deg, digest", [
    (8917419684964321736, 31.686752088677537,
     "7cc89f98a6482a048cbc641b52ef5e1a60b959d2a1b4c0733d32fdfa4390214a"),
    (8497490805353380566, -18.587694659263,
     "b8ca909307d5ef31f3b1cb0f9a24995d8726a5d1b7cd1737b18f8e0a60d066c5"),
    (7806094663086568147, 48.13856385936623,
     "5e63fb89e87623d3df05962e85e3fb899d79a2c38fffd02b161932ab85f9fb14"),
])
def test_estimate_once_golden_bytes(seed, aoa_deg, digest, capsys):
    # sha256 of the summaries printed for the utility-trace golden inputs
    # (numpy 2.4, x86-64), ten pilots
    argv = ["estimate-once", *REFERENCE_CONFIG, "--set", f"rng_seed={seed}",
            "--true-aoa-deg", repr(aoa_deg), "--l", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_estimate_once_small_array_golden_bytes(capsys):
    # sha256 of the summary that the single run printed when it first ran
    # as one Monte Carlo trial (numpy 2.4, x86-64): N = 13 on the default
    # 2000-point grid, eight pilots
    argv = ["estimate-once", "--set", "num_elements=13", "--true-aoa-deg", "20",
            "--l", "8"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca516e76de1362b3a03d358210e4cb0f5d2466680926d3978aca2358ed8711b9"
    )


def test_estimate_once_prints_summary(capsys):
    code = main(["estimate-once", *FAST, "--true-aoa-deg", "-30", "--l", "4"])
    assert code == 0
    text = capsys.readouterr().out
    for token in ("true aoa", "estimated aoa", "gain estimate", "phase estimate",
                  "achieved rate", "capacity ratio", "pilot 1", "pilot 4", "deg"):
        assert token in text


def test_estimate_once_is_text_deterministic(capsys):
    argv = ["estimate-once", *FAST, "--true-aoa-deg", "20", "--l", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_estimate_once_noise_free_on_grid_truth_prints_unit_ratio(capsys):
    # a 181-point grid over +-90 deg puts -45 deg exactly on the grid,
    # and a +300 dB pilot offset makes the pilots effectively noise-free
    argv = [
        "estimate-once",
        "--set", "num_elements=16",
        "--set", "pilot_budgets=2,8",
        "--set", "grid_points=181",
        "--set", "pilot_snr_offset_db=300",
        "--true-aoa-deg", "-45",
        "--l", "8",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "capacity ratio: 1\n" in out
    assert "estimated aoa: -0.785398 rad (-45 deg)" in out


def test_estimate_once_converges_near_true_angle(capsys):
    # reference setup, true angle -45 deg, ten pilots
    assert main(["estimate-once", "--true-aoa-deg", "-45", "--l", "10"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("estimated aoa"))
    estimated_deg = float(line.split("(")[1].split(" deg")[0])
    assert abs(estimated_deg - (-45.0)) < 1.0


def package_calls(run) -> set:
    """The code object of every package function that ``run()`` calls."""
    package = str(Path(rispilot.__file__).parent) + os.sep
    called = set()

    def record(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            called.add(code)

    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def qualnames(codes) -> set[str]:
    """``module.qualname`` of each code object.

    Before Python 3.11 a code object has no qualname, so methods show as
    ``module.name``.
    """
    return {
        f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"
        for code in codes
    }


def test_validate_passes(capsys, tmp_path):
    statuses = []
    validated = qualnames(package_calls(lambda: statuses.append(main(["validate"]))))
    assert statuses == [0]
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5
    # the report's bytes since the checks moved onto the Monte Carlo's code
    # (numpy 2.4, x86-64)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cef5d329df3d3e1dbd172a6b8a546d46823d3a2f7fb1fa63b3bd8c786da4debc"
    )
    # apart from their own code, the checks call only package functions
    # that a command calls too
    calls = {}
    for argv in (
        ["rate-curve", *FAST, "--out", str(tmp_path / "rates.csv")],
        ["utility-trace", *FAST, "--true-aoa-deg", "-30", "--l-max", "4",
         "--out", str(tmp_path / "trace.csv")],
        ["estimate-once", *FAST, "--true-aoa-deg", "-30", "--l", "4"],
    ):
        calls[argv[0]] = qualnames(package_calls(lambda: statuses.append(main(argv))))
    assert statuses == [0] * 4
    commands = set().union(*calls.values())
    stray = {
        name for name in validated - commands
        if not name.startswith("checks.") and name != "cli._cmd_validate"
    }
    assert stray == set()
    # the single runs are Monte Carlo trials: the chunk function of rate-curve
    for name in ("utility-trace", "estimate-once"):
        assert "simulate._run_trials" in calls[name] & calls["rate-curve"], name


def package_functions() -> dict[tuple[str, int], str]:
    """Every module-level function and class method of the package, by where it starts.

    The key is (file name, first line), the first line being that of the
    first decorator if there is one, as in the code object's
    ``co_firstlineno``; the value is ``module.qualname``.
    """
    found = {}
    for path in sorted(Path(rispilot.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            is_class = isinstance(top, ast.ClassDef)
            for node in top.body if is_class else [top]:
                if isinstance(node, ast.FunctionDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    owner = f"{top.name}." if is_class else ""
                    found[(path.name, first)] = f"{path.stem}.{owner}{node.name}"
    return found


#: Package functions that no command calls, each with the reason inline.
UNREACHED: set[str] = set()


def test_every_package_function_is_reached(tmp_path):
    # code that no command reaches is a second route to keep right: the
    # four commands, the config file's degree parser and the progress
    # counter included, call every function and method the package defines
    config = tmp_path / "range.cfg"
    config.write_text("ue_angle_range=-50,50\n")
    statuses, called = [], set()
    for argv in (
        ["rate-curve", "--config", str(config), *FAST, "--progress",
         "--out", str(tmp_path / "rates.csv")],
        ["utility-trace", *FAST, "--true-aoa-deg", "-30", "--l-max", "4",
         "--out", str(tmp_path / "trace.csv")],
        ["estimate-once", *FAST, "--true-aoa-deg", "-30", "--l", "4"],
        ["validate"],
    ):
        codes = package_calls(lambda: statuses.append(main(argv)))
        called |= {(Path(code.co_filename).name, code.co_firstlineno) for code in codes}
    assert statuses == [0] * 4
    defined = package_functions()
    assert len(defined) >= 50  # the scan finds the package's functions
    unreached = sorted(
        name for key, name in defined.items()
        if key not in called and name not in UNREACHED
    )
    assert unreached == []


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["validate"], True),
        (["estimate-once", "--set", "num_elements=16", "--true-aoa-deg", "-45",
          "--l", "8"], False),
    ],
    ids=["validate", "estimate-once"],
)
def test_closed_stdout_pipe_exits_141_quietly(argv, unbuffered):
    # a reader that stops early (``rispilot validate | head -1``) is not a
    # runtime error: exit as a tool killed by SIGPIPE would, printing nothing.
    # Unbuffered, the closed pipe shows at the first print (and validate
    # stops there); buffered, at the flush after the command
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rispilot.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_validate_failure_exits_nonzero(capsys, monkeypatch):
    def broken():
        return checks.CheckResult(False, 1, "synthetic failure", {})

    def passing():
        return checks.CheckResult(True, 1, "synthetic pass", {})

    # one failing and one passing check keep the mixed report path without
    # rerunning the real checks, which test_validate_passes runs
    monkeypatch.setattr(checks, "CHECKS", (broken, passing))
    assert main(["validate"]) == 2
    out = capsys.readouterr().out
    assert "FAIL broken: synthetic failure" in out
    assert "PASS passing: synthetic pass" in out


# (check, owner, function, how the function's output is distorted); the owner
# is the module or class through which the checked code calls the function
DEFECTS = [
    ("noise-free-recovery", adaptive, "closed_form_gain_and_phase",
     lambda out, *_: (out[0] * (1 + 1e-6), out[1])),
    ("least-squares-recovery", estimators, "least_squares_prefix_estimates",
     lambda out, *_: out + 1e-6),
    ("capacity-bound", simulate, "_phase_matched_rate",
     lambda out, *_: out * (1 + 1e-6)),
    ("scale-invariance", estimators.UtilityAccumulator, "utility",
     # a fixed ramp over the grid, which scaling the samples does not scale
     lambda out, *_: out + 1e-3 * np.arange(out.shape[-1])),
    ("beam-correlation", adaptive, "build_adaptive_setup",
     lambda out, *_: dataclasses.replace(
         out, projection_energy=out.projection_energy * (1 + 1e-6)
     )),
]


@pytest.mark.parametrize(
    "name, owner, function, distort", DEFECTS, ids=[d[0] for d in DEFECTS]
)
def test_validate_fails_on_a_defect(name, owner, function, distort, capsys,
                                    monkeypatch):
    # only the covered check runs, to keep the suite fast
    monkeypatch.setattr(checks, "CHECKS", (getattr(checks, name.replace("-", "_")),))
    original = getattr(owner, function)
    monkeypatch.setattr(
        owner, function, lambda *args: distort(original(*args), *args)
    )
    assert main(["validate"]) == 2
    assert capsys.readouterr().out.startswith(f"FAIL {name}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["rate-curve", "--set", "wavelength=3", "--out", "x.csv"],
        ["rate-curve", "--set", "num_trials=0", "--out", "x.csv"],
        # linear powers that overflow or underflow to 0
        ["rate-curve", "--set", "data_snr_db=4000", "--out", "x.csv"],
        ["rate-curve", "--set", "data_snr_db=-4000", "--out", "x.csv"],
        ["rate-curve", "--set", "pilot_snr_offset_db=-4000", "--out", "x.csv"],
        ["utility-trace", *FAST, "--true-aoa-deg", "80", "--l-max", "5",
         "--out", "x.csv"],  # outside the configured UE range
        ["utility-trace", *FAST, "--true-aoa-deg", "0", "--l-max", "40",
         "--out", "x.csv"],  # more pilots than pool configurations
        # a given budget beyond N, though the trace reads none
        ["utility-trace", "--set", "num_elements=16", "--set", "pilot_budgets=2,17",
         "--true-aoa-deg", "0", "--l-max", "5", "--out", "x.csv"],
        # data powers whose capacity log2(1 + N^2 P_d) rounds to 0
        ["rate-curve", "--set", "data_snr_db=-300", "--set", "num_trials=5",
         "--set", "pilot_budgets=2,5", "--out", "x.csv"],
        ["rate-curve", "--set", "data_snr_db=-3200", "--set", "num_trials=5",
         "--set", "pilot_budgets=2,5", "--out", "x.csv"],
        # an up-front array of N x max(N, grid_points) complex entries over 1 GiB
        ["rate-curve", "--set", "grid_points=1000000000000000", "--out", "x.csv"],
        ["rate-curve", "--set", "num_elements=1000000000000000",
         "--set", "pilot_budgets=2", "--out", "x.csv"],
        ["utility-trace", "--set", "grid_points=1000000000000000",
         "--true-aoa-deg", "0", "--l-max", "5", "--out", "x.csv"],
        # per-trial rates of 22 float64 values a trial over 1 GiB
        ["rate-curve", "--set", "num_trials=10000000000", "--out", "x.csv"],
    ],
)
def test_invalid_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "override, key",
    [
        ("spacing_ratio=0", "spacing_ratio"),
        ("spacing_ratio=nan", "spacing_ratio"),
        ("search_domain=-100,90", "search_domain"),
        ("search_domain=30,-30", "search_domain"),
        ("grid_points=1", "grid_points"),
        ("search_domain=10,10", "search_domain"),
        ("pilot_budgets=1,4", "pilot_budgets"),
        ("pilot_budgets=2,41", "pilot_budgets"),
    ],
)
def test_delegated_config_rules_name_the_key(override, key, capsys):
    # ArrayModel, AoaSearchGrid and the budget check own these rules; the
    # config re-raises their errors under the keys they read
    assert main(["rate-curve", "--set", override, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_overflowing_spacing_exits_2_without_a_warning(capsys):
    # 2*pi*1e308 overflows: the array phases would be NaN and no direction lit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["rate-curve", "--set", "spacing_ratio=1e308", "--out", "x.csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "spacing_ratio" in err
    assert "RuntimeWarning" not in err and caught == []


INPUT_ERRORS = [
    errors.InvalidInputError, errors.AngleDomainError, errors.DimensionError,
    errors.PoolExhaustedError,
    errors.InsufficientPilotsError, errors.ConfigParseError,
    errors.ConfigValidationError,
]
RUNTIME_ERRORS = [
    errors.DegenerateDirectionError, errors.RisPilotError, np.linalg.LinAlgError,
    FloatingPointError, OSError,
]


@pytest.mark.parametrize(
    "error, code, prefix",
    [(e, 2, "error: ") for e in INPUT_ERRORS]
    + [(e, 3, "runtime error: ") for e in RUNTIME_ERRORS],
    ids=[e.__name__ for e in INPUT_ERRORS + RUNTIME_ERRORS],
)
def test_exit_code_follows_the_error_family(error, code, prefix, capsys,
                                            monkeypatch):
    def fail(_args):
        raise error("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "validate", fail)
    assert main(["validate"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}synthetic failure\n"
    assert captured.out == ""


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"num_trials=5\n# caf\xff\n")
    assert main(["rate-curve", "--config", str(cfg), "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_exact_single_trial_estimate_meets_capacity_bound(tmp_path):
    # noise-free pilots make the LS estimate exact, so its rate equals the
    # capacity up to rounding, with no stderr from a single trial
    out = tmp_path / "x.csv"
    argv = [
        "rate-curve",
        "--set", "num_trials=1",
        "--set", "pilot_snr_offset_db=300",
        "--set", "num_elements=4",
        "--set", "pilot_budgets=4",
        "--set", "grid_points=400",
        "--set", "rng_seed=6",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_text().splitlines()[1].startswith("4,")


def test_missing_config_file_reports_io_error(tmp_path, capsys):
    code = main(
        ["rate-curve", "--config", str(tmp_path / "nope.cfg"), "--out", "x.csv"]
    )
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "rates.csv"
    assert main(["rate-curve", *FAST, "--out", str(out)]) == 3
    assert "runtime error" in capsys.readouterr().err
