"""The README's quick start, export count and config table match the package."""

import dataclasses
import re
from pathlib import Path

import pytest

import rispilot
from rispilot import ExperimentConfig, io

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    # the README has one python block; executing it catches API drift in
    # the documented calls
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_export_count_is_the_packages():
    # the stated size of the public API follows __all__ without a hand edit
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"exports (\d+) names", text) == [str(len(rispilot.__all__))]


def test_config_table_is_the_configs():
    # a key added to the config, or a changed default, must show in the
    # table; each default cell is read by the key's own parser
    text = README.read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `(\w+)` *\| `([^`]*)` *\|", text, flags=re.M))
    fields = [field.name for field in dataclasses.fields(ExperimentConfig)]
    assert list(table) == fields == list(io.FIELD_PARSERS)
    defaults = ExperimentConfig()
    for key, cell in table.items():
        expected = getattr(defaults, key)
        if key == "pilot_budgets":  # the default list, elided as 2,3,...,40
            head, last = cell.split(",...,")
            assert expected[:2] == io.FIELD_PARSERS[key](head)
            assert expected[-1] == int(last)
        else:
            assert io.FIELD_PARSERS[key](cell) == pytest.approx(expected), key
