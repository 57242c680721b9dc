"""Tests for config parsing and CSV serialization."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rispilot import (
    AoaSearchGrid,
    InvalidInputError,
    RateCurvePoint,
    emit_rate_csv,
    emit_utility_csv,
    parse_config,
    run_single_estimate,
    snr_to_powers,
)
from rispilot.io import RATE_CSV_HEADER, UTILITY_CSV_HEADER
from rispilot.simulate import ExperimentConfig

from conftest import reference_utility_csv


def make_point(budget: int, ml: float = 5.0, ls: float = 3.0) -> RateCurvePoint:
    return RateCurvePoint(
        pilot_budget=budget,
        mean_rate_ml=ml,
        mean_rate_ls=ls,
        mean_capacity=10.123456789,
        ratio_ml=ml / 10.123456789,
        ratio_ls=ls / 10.123456789,
        trial_count=100,
        stderr_ml=0.0123456789,
        stderr_ls=0.02,
    )


class TestParseConfig:
    def test_no_file_gives_reference_defaults(self):
        config = parse_config(None)
        assert config == ExperimentConfig()
        assert config.num_elements == 40
        assert config.pilot_snr_offset_db == 10.0

    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text(
            "# low-SNR operating point\n"
            "data_snr_db = -10\n"
            "pilot_budgets = 2, 4, 10\n"
            "ue_angle_range = -60, 60\n"
            "\n"
            "num_trials = 500   # comment after value\n"
        )
        config = parse_config(path, ["grid_points=700", "rng_seed=9"])
        assert config.data_snr_db == -10.0
        assert config.pilot_budgets == (2, 4, 10)
        assert config.num_trials == 500
        assert config.grid_points == 700
        assert config.rng_seed == 9
        assert config.ue_angle_range == pytest.approx((-math.pi / 3, math.pi / 3))
        data_power, pilot_power = snr_to_powers(config)
        assert data_power == pytest.approx(0.1)
        assert pilot_power == pytest.approx(1.0)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(
            b"\xef\xbb\xbfnum_elements=8\npilot_budgets=2,4\nrng_seed=3\n"
        )
        config = parse_config(path)
        assert config.num_elements == 8
        assert config.pilot_budgets == (2, 4)
        assert config.rng_seed == 3

    def test_angle_fields_are_degrees_at_the_boundary(self):
        config = parse_config(None, ["search_domain=-90,90", "ue_angle_range=-45,45"])
        assert config.search_domain == pytest.approx((-math.pi / 2, math.pi / 2))
        assert config.ue_angle_range == pytest.approx((-math.pi / 4, math.pi / 4))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_elements=8\nwavelength=3\n")
        message = r"bad\.cfg:2: unknown key 'wavelength'"
        with pytest.raises(InvalidInputError, match=message):
            parse_config(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_elements=8\njust some words\n")
        with pytest.raises(InvalidInputError, match=r"bad\.cfg:2: expected key=value"):
            parse_config(path)

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_trials=many\n")
        message = r"bad\.cfg:1: bad value for 'num_trials'"
        with pytest.raises(InvalidInputError, match=message):
            parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("pilot_budgets", "2,,4"),
        ("pilot_budgets", "2,4,"),
        ("pilot_budgets", ",2"),
        ("pilot_budgets", ""),
        ("ue_angle_range", "-60,,60"),
        ("search_domain", "-90, ,90"),
    ])
    def test_empty_list_item_rejected_naming_the_key(self, key, value, tmp_path):
        # an empty item is an error on both routes, never dropped
        path = tmp_path / "lists.cfg"
        path.write_text(f"{key}={value}\n")
        for overrides, source in (([f"{key}={value}"], None), ([], path)):
            with pytest.raises(InvalidInputError, match=f"'{key}': empty item"):
                parse_config(source, overrides)

    def test_unknown_override_rejected(self):
        with pytest.raises(InvalidInputError, match="^override 'wavelength=3': unknown"):
            parse_config(None, ["wavelength=3"])

    def test_validation_error_names_field(self):
        with pytest.raises(InvalidInputError, match="^num_trials: must be a positive"):
            parse_config(None, ["num_trials=0"])


class TestRateCsv:
    def test_single_point_two_lines(self, tmp_path):
        path = tmp_path / "rates.csv"
        emit_rate_csv([make_point(2)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == RATE_CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("2,")

    def test_rows_sorted_by_budget(self, tmp_path):
        path = tmp_path / "rates.csv"
        emit_rate_csv([make_point(10), make_point(2), make_point(4)], path)
        budgets = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert budgets == [2, 4, 10]

    def test_round_trip_preserves_six_significant_digits(self, tmp_path):
        path = tmp_path / "rates.csv"
        point = make_point(3, ml=7.654321987, ls=1.23456789e-3)
        emit_rate_csv([point], path)
        header, row = path.read_text().splitlines()
        fields = row.split(",")
        parsed = dict(zip(header.split(","), fields))
        assert float(parsed["mean_rate_ml"]) == float(f"{point.mean_rate_ml:.6g}")
        assert float(parsed["mean_rate_ls"]) == float(f"{point.mean_rate_ls:.6g}")
        assert float(parsed["ratio_ml"]) == float(f"{point.ratio_ml:.6g}")
        assert float(parsed["stderr_ml"]) == float(f"{point.stderr_ml:.6g}")
        assert int(parsed["trials"]) == point.trial_count
        # six significant digits keep a 1e-6 relative round trip
        assert float(parsed["mean_rate_ml"]) == pytest.approx(
            point.mean_rate_ml, rel=1e-6
        )

    def test_identical_bytes_across_writes(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        points = [make_point(2), make_point(4)]
        emit_rate_csv(points, first)
        emit_rate_csv(points, second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_rate_csv([], tmp_path / "rates.csv")

    def test_unwritable_path_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            emit_rate_csv([make_point(2)], tmp_path / "missing" / "rates.csv")


class TestUtilityCsv:
    @pytest.fixture
    def record(self):
        config = ExperimentConfig(
            num_elements=8, pilot_budgets=(2, 4), num_trials=1,
            grid_points=50, rng_seed=6,
        )
        return run_single_estimate(config, 0.2, 4)

    def test_row_counts_and_argmax_markers(self, tmp_path, record):
        path = tmp_path / "trace.csv"
        emit_utility_csv(record, path)
        lines = path.read_text().splitlines()
        assert lines[0] == UTILITY_CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 50  # steps for L = 2, 3, 4
        for pilots, aoa in enumerate(record.aoa_estimates, start=2):
            markers = [r for r in rows if r[0] == str(pilots) and r[3] == "1"]
            assert len(markers) == 1
            # the marked row is the estimate's angle
            assert float(markers[0][1]) == pytest.approx(aoa, abs=1e-8)

    def test_db_values_match_linear_utilities(self, tmp_path, record):
        path = tmp_path / "trace.csv"
        emit_utility_csv(record, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        sampled = rows[37]
        utility = record.utilities[int(sampled[0]) - 2]  # row 0 is L = 2
        idx = 37 % 50
        assert float(sampled[1]) == pytest.approx(record.grid.angles[idx], abs=1e-8)
        assert float(sampled[2]) == pytest.approx(
            10.0 * math.log10(utility[idx]), abs=1e-6
        )
        linear = 10.0 ** (float(sampled[2]) / 10.0)
        assert 10.0 * math.log10(linear) == pytest.approx(float(sampled[2]), abs=1e-9)

    def test_reference_config_matches_row_by_row_reference(self, tmp_path):
        config = ExperimentConfig(rng_seed=11)
        record = run_single_estimate(config, math.radians(-20.0), 10)
        path = tmp_path / "trace.csv"
        emit_utility_csv(record, path)
        assert path.read_bytes() == reference_utility_csv(record).encode()


#: Utilities that stress the formatting: exact zero (-inf dB), the smallest
#: subnormal, a subnormal, the smallest normal, and huge values.
SPECIAL_UTILITIES = (
    0.0, 5e-324, 1e-310, sys.float_info.min, 1e300, sys.float_info.max,
)


@st.composite
def utility_records(draw):
    """A record-like object: (L-1) x G utilities over a random grid."""
    points = draw(st.integers(2, 300))
    num_elements = draw(st.integers(2, 40))
    stages = draw(st.integers(1, num_elements - 1))
    lower = draw(st.floats(-math.pi / 2, math.pi / 2))
    upper = draw(st.floats(-math.pi / 2, math.pi / 2))
    assume(lower < upper)
    values = st.one_of(
        st.sampled_from(SPECIAL_UTILITIES),
        st.floats(min_value=0.0, max_value=sys.float_info.max),
    )
    utilities = draw(hnp.arrays(np.float64, (stages, points), elements=values))
    # tie each row's maximum at a second index, and zero some rows out
    for row in utilities:
        row[draw(st.integers(0, points - 1))] = np.max(row)
        if draw(st.booleans()) and draw(st.booleans()):
            row[:] = 0.0
    grid = AoaSearchGrid(lower, upper, points)
    return SimpleNamespace(utilities=utilities, grid=grid)


@settings(max_examples=60, deadline=None)
@given(record=utility_records())
def test_utility_csv_equals_row_by_row_reference(record, tmp_path_factory):
    # whole-stage rendering writes exactly the per-value format bytes,
    # ties going to the first index in both
    path = tmp_path_factory.getbasetemp() / "property-trace.csv"
    emit_utility_csv(record, path)
    assert path.read_bytes() == reference_utility_csv(record).encode()


@pytest.mark.parametrize(
    "value", [-0.0, 0.0, math.nan, -math.inf, math.inf, 5e-324, 1e300, 123456789.5]
)
def test_percent_format_agrees_with_format(value):
    # the emitter's templates rely on this for every dB value
    assert "%.9g" % value == format(value, ".9g")
    assert "%.9g" % np.float64(value) == format(np.float64(value), ".9g")
