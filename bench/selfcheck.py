"""Fast self-check of the benchmark; run from the repository root::

    python3 bench/selfcheck.py

It runs every workload at a tiny size, untraced and traced, and asserts:

* the last line of standard output is the result object, with every
  operation correct;
* the untraced run prints exactly the end-to-end metrics of
  ``BENCHMARK.json`` and the traced run exactly its per-layer metrics,
  each with the unit given there;
* the traced run attributes at least 90% of its wall time to named spans;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits nonzero without printing a result.

The runs themselves check each CSV, byte equality between traced and
untraced operations and between the in-process and the subprocess
command line, so ``correct`` covers those too.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ATTRIBUTED = 0.9
TIMEOUT_S = 180


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run_bench.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
    )


def check_workload(spec: dict, workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        expect(proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, lines[-1])
        expect(result["correct"] and result["failed"] == 0, proc.stdout)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(printed == declared, f"{workload} trace={trace}: {printed} != {declared}")
        if trace:
            path = next(line for line in lines if line.startswith("results: "))
            record_path = ROOT / path.removeprefix("results: ")
            record = json.loads(record_path.read_text(encoding="utf-8"))
            attributed = sum(s["self_s"] for s in record["spans"].values())
            share = attributed / record["samples"]["traced_wall_s"]
            expect(share >= MIN_ATTRIBUTED, f"{workload}: spans cover {share:.1%}")
            print(f"ok {workload}: spans cover {share:.1%}, absent {record['absent_spans']}")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        proc = run(bare, "full_curve", 0)
        expect(proc.returncode != 0, "benchmark ran without the program's sources")
        expect('"correct"' not in proc.stdout, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: exits nonzero without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(spec, workload)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
