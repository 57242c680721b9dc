"""Config-file parsing and CSV serialization.

The config format is flat ``key=value`` text, one pair per line, with
``#`` comments. Keys mirror :class:`~rispilot.simulate.ExperimentConfig`
fields; the two angle intervals are given in degrees at this boundary
and converted to radians.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigParseError, InvalidInputError
from .simulate import ExperimentConfig, RateCurvePoint, SingleRunSummary

RATE_CSV_HEADER = (
    "L,mean_rate_ml,mean_rate_ls,mean_capacity,ratio_ml,ratio_ls,"
    "stderr_ml,stderr_ls,trials"
)
UTILITY_CSV_HEADER = "L,angle_rad,utility_db,is_argmax"


def _parse_list(raw: str, parse: Callable[[str], object] = int) -> tuple:
    """The comma-separated items of a list value, parsed; an empty item is refused."""
    if any(not part.strip() for part in raw.split(",")):
        raise ConfigParseError(f"empty item in {raw!r}")
    return tuple(map(parse, raw.split(",")))


def _parse_degrees(raw: str) -> tuple[float, ...]:
    return tuple(map(math.radians, _parse_list(raw, float)))


#: Value parser per configuration key. Degrees are converted here so the
#: math core never sees them; the config checks that an interval is a pair.
FIELD_PARSERS: dict[str, Callable[[str], object]] = {
    "num_elements": int,
    "spacing_ratio": float,
    "data_snr_db": float,
    "pilot_snr_offset_db": float,
    "pilot_budgets": _parse_list,
    "num_trials": int,
    "ue_angle_range": _parse_degrees,
    "search_domain": _parse_degrees,
    "grid_points": int,
    "rng_seed": int,
}


def _parse_pair(text: str, where: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigParseError(f"{where}: expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    parser = FIELD_PARSERS.get(key)
    if parser is None:
        raise ConfigParseError(
            f"{where}: unknown key {key!r} (known: {', '.join(sorted(FIELD_PARSERS))})"
        )
    try:
        return key, parser(raw.strip())
    except ValueError as exc:
        raise ConfigParseError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config(
    path: str | Path | None, overrides: Sequence[str] = ()
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from an optional file plus overrides.

    Overrides are ``key=value`` strings applied after the file. With no
    file and no overrides the defaults reproduce the reference setup
    (40 elements, quarter-wavelength spacing, 10 dB pilot offset, UE
    angles within +-60 degrees, search domain +-90 degrees).
    """
    values: dict[str, object] = {}
    if path is not None:
        try:
            # utf-8-sig drops a leading byte-order mark instead of keying on it
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"{path}: not UTF-8 text ({exc})") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, value = _parse_pair(stripped, f"{path}:{lineno}")
            values[key] = value
    for override in overrides:
        key, value = _parse_pair(override, f"override {override!r}")
        values[key] = value
    return ExperimentConfig(**values)


def emit_rate_csv(points: Sequence[RateCurvePoint], path: str | Path) -> None:
    """Write rate-curve points as CSV, one row per budget, ascending."""
    if not points:
        raise InvalidInputError("no rate points to write")
    lines = [RATE_CSV_HEADER]
    for p in sorted(points, key=lambda point: point.pilot_budget):
        lines.append(
            f"{p.pilot_budget},{p.mean_rate_ml:.6g},{p.mean_rate_ls:.6g},"
            f"{p.mean_capacity:.6g},{p.ratio_ml:.6g},{p.ratio_ls:.6g},"
            f"{p.stderr_ml:.6g},{p.stderr_ls:.6g},{p.trial_count}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def emit_utility_csv(record: SingleRunSummary, path: str | Path) -> None:
    """Write a single run's grid utility in long format, one row per (L, angle).

    Each row of the run's utilities, L = 2 onward, gives the utility in
    dB (-inf where it is 0), with ``is_argmax`` 1 on the row of the estimate.

    The angle column is formatted once per run, by one ``%`` over
    ``"%.9g,%%.9g,0\\n"`` rows; a ``%.9g`` angle holds no ``%`` and no
    line break, so the result splits back into one ``"angle,%.9g,0\\n"``
    row per angle. Each stage is then one ``%`` over those rows, each
    prefixed with ``L,`` and the peak's ending in ``,1``, and is written
    to the open file as it is formatted. ``'%.9g' % v`` and
    ``format(v, '.9g')`` both format through CPython's ``float`` repr
    code, ``-inf``, ``nan`` and ``-0`` included, so every field has the
    bytes of a per-value ``format``.
    """
    with np.errstate(divide="ignore"):
        utility_db = 10.0 * np.log10(record.utilities)
    peaks = np.argmax(record.utilities, axis=1).tolist()
    angles = record.grid.angles.tolist()
    cells = (("%.9g,%%.9g,0\n" * len(angles)) % tuple(angles)).splitlines(keepends=True)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(UTILITY_CSV_HEADER + "\n")
        for pilots, (peak, values) in enumerate(zip(peaks, utility_db), start=2):
            stage = cells.copy()
            stage[peak] = stage[peak][:-2] + "1\n"
            prefix = f"{pilots},"
            out.write((prefix + prefix.join(stage)) % tuple(values.tolist()))
