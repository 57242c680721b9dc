"""Checks on the CSV files one benchmark operation writes, and its quality.

The checks restate the documented file formats independently of the
package, so a change that breaks a format fails the operation instead of
passing through. Each check returns the numbers the benchmark averages
into its quality metrics.
"""

from __future__ import annotations

import math

RATE_HEADER = (
    "L,mean_rate_ml,mean_rate_ls,mean_capacity,ratio_ml,ratio_ls,"
    "stderr_ml,stderr_ls,trials"
)
UTILITY_HEADER = "L,angle_rad,utility_db,is_argmax"
RATIO_SLACK = 1e-9


class OutputError(Exception):
    """An operation wrote a file that breaks its documented format."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _lines(data: bytes, header: str) -> list[str]:
    lines = data.decode("utf-8").split("\n")
    _require(lines[-1] == "", "file does not end with a newline")
    _require(lines[0] == header, f"header is {lines[0]!r}, expected {header!r}")
    return lines[1:-1]


def check_rate_csv(
    data: bytes, budgets: tuple[int, ...], trials: int
) -> dict[int, tuple[float, float]]:
    """Check a ``rate-curve`` CSV; return {L: (ratio_ml, ratio_ls)}.

    The file has one row per configured budget in ascending order, finite
    values, the requested trial count, and capacity ratios of at most one.
    """
    rows = [line.split(",") for line in _lines(data, RATE_HEADER)]
    _require(
        [row[0] for row in rows] == [str(b) for b in sorted(budgets)],
        f"budget column is {[row[0] for row in rows]}, expected {sorted(budgets)}",
    )
    ratios = {}
    for row in rows:
        _require(len(row) == 9, f"row {row} does not have 9 fields")
        values = [float(field) for field in row[1:8]]
        _require(all(math.isfinite(v) for v in values), f"non-finite value in {row}")
        _require(int(row[8]) == trials, f"trials {row[8]} != requested {trials}")
        ratio_ml, ratio_ls = values[3], values[4]
        _require(
            max(ratio_ml, ratio_ls) <= 1.0 + RATIO_SLACK,
            f"capacity ratio above one in {row}",
        )
        ratios[int(row[0])] = (ratio_ml, ratio_ls)
    return ratios


def check_utility_csv(data: bytes, l_max: int, grid_points: int) -> dict[int, float]:
    """Check a ``utility-trace`` CSV; return {L: angle of the argmax row}.

    The file holds L = 2..l_max in order, one row per grid point per L,
    and exactly one ``is_argmax=1`` row per L.
    """
    lines = _lines(data, UTILITY_HEADER)
    expected = list(range(2, l_max + 1))
    _require(
        len(lines) == len(expected) * grid_points,
        f"{len(lines)} rows, expected {len(expected)} x {grid_points}",
    )
    argmax = {}
    for k, pilots in enumerate(expected):
        block = [line.split(",") for line in lines[k * grid_points:(k + 1) * grid_points]]
        _require(
            all(row[0] == str(pilots) for row in block),
            f"rows {k * grid_points}..{(k + 1) * grid_points} are not all L={pilots}",
        )
        marked = [row for row in block if row[3] == "1"]
        _require(len(marked) == 1, f"L={pilots} has {len(marked)} argmax rows")
        _require(
            all(row[3] in ("0", "1") for row in block), f"L={pilots}: bad is_argmax"
        )
        argmax[pilots] = float(marked[0][1])
    return argmax


def steered_capacity_ratio(
    true_aoa: float, aoa_estimate: float, num_elements: int, spacing: float,
    data_power: float,
) -> float:
    """Capacity share reached by steering a unit-|h| surface to ``aoa_estimate``.

    The phase-matched gain is the Dirichlet kernel |sin(N x) / sin(x)| with
    x = pi * spacing * (sin(true) - sin(estimate)); the capacity has gain N.
    """
    x = math.pi * spacing * (math.sin(true_aoa) - math.sin(aoa_estimate))
    gain = num_elements if math.sin(x) == 0.0 else abs(
        math.sin(num_elements * x) / math.sin(x)
    )
    return math.log2(1.0 + data_power * gain**2) / math.log2(
        1.0 + data_power * num_elements**2
    )
