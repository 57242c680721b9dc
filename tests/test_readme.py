"""The README's library quick start runs against the package as it is."""

import re
from pathlib import Path

import rispilot

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
