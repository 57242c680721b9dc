"""The error contract: every rejection is a package error of one family."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import rispilot
from rispilot import (
    AoaSearchGrid,
    ArrayModel,
    InvalidInputError,
    LosChannel,
    RateCurvePoint,
    RisPilotError,
    achievable_rate,
    array_response,
    emit_rate_csv,
    least_squares_prefix_estimates,
    plausible_angles,
)

SOURCES = sorted(Path(rispilot.__file__).parent.glob("*.py"))
TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))


def raised_classes(path: Path):
    """(line, class) of every ``raise Name(...)`` in a module of the package."""
    module = importlib.import_module(f"rispilot.{path.stem}")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            assert isinstance(func, ast.Name), ast.dump(func)
            yield node.lineno, getattr(module, func.id)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_raise_is_a_package_error(path):
    strays = [
        (line, cls.__name__)
        for line, cls in raised_classes(path)
        if not issubclass(cls, RisPilotError)
    ]
    assert strays == []


def test_the_scan_sees_the_raise_sites():
    # the scan above passes vacuously if it finds nothing to check; the
    # package has 27 raise sites
    assert sum(len(list(raised_classes(path))) for path in SOURCES) >= 25


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name a module imports and never reads.

    Names listed in ``__all__`` count as read; ``__future__`` imports are
    compiler directives and are skipped.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", SOURCES + TEST_SOURCES,
    ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TEST_SOURCES],
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: The underscore names one package module may import from another, each
#: a rule shared on purpose; every other private helper stays in its module.
SHARED_RULES = {
    "_check_budget",  # the core's budget rule, reused by the config and the single run
    "_check_front_half_plane",  # one angle-domain rule for angles and grid bounds
    "_is_integral",  # one integer rule for counts, budgets and seeds
    "_draw_unit_coefficients",  # one BS-RIS draw for every trial
}


def test_private_helpers_stay_in_their_module():
    imported = [
        (path.name, node.lineno, alias.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert [entry for entry in imported if entry[2] not in SHARED_RULES] == []
    # every shared rule is seen, so the scan cannot pass by finding nothing
    assert {name for _, _, name in imported} == SHARED_RULES


def test_the_import_scan_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .model import array_response, los_vector\n"
        "from .estimators import AoaSearchGrid\n"
        "__all__ = ['AoaSearchGrid']\n"
        "def f(array) -> np.ndarray:\n"
        "    return array_response(array, 0.0)\n"
    )
    assert unused_imports(source) == [(3, "los_vector")]


REJECTIONS = {
    "ArrayModel-spacing": lambda: ArrayModel(4, 0.0),
    "ArrayModel-elements": lambda: ArrayModel(0, 0.25),
    "AoaSearchGrid-order": lambda: AoaSearchGrid(0.5, -0.5),
    "AoaSearchGrid-points": lambda: AoaSearchGrid(num_points=1),
    "AoaSearchGrid-half-plane": lambda: AoaSearchGrid(-2.0, 1.0),
    "LosChannel-gain": lambda: LosChannel(-1.0, 0.0, 0.0),
    "LosChannel-phase": lambda: LosChannel(1.0, math.nan, 0.0),
    "LosChannel-angle": lambda: LosChannel(1.0, 0.0, 2.0),
    "achievable_rate": lambda: achievable_rate(1.0, 0.0),
    "plausible_angles": lambda: plausible_angles(0),
    "plausible_angles-fraction": lambda: plausible_angles(2.5),
    "non-orthogonal-rows": lambda: least_squares_prefix_estimates(
        np.ones((2, 3), dtype=complex), np.zeros(2, dtype=complex),
        np.ones(3, dtype=complex), 1.0,
    ),
    "RateCurvePoint": lambda: RateCurvePoint(2, 5.0, 1.0, 1.0, 5.0, 1.0, 10, 0.0, 0.0),
    "emit_rate_csv-empty": lambda: emit_rate_csv([], "unused.csv"),
}


@pytest.mark.parametrize("reject", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejections_are_invalid_input_and_value_errors(reject):
    with pytest.raises(InvalidInputError) as caught:
        reject()
    assert isinstance(caught.value, ValueError)


def test_overflowing_array_phases_are_rejected_up_front():
    # 2*pi*1e308 overflows, and inf * 0 at element 0 would make the response NaN
    with pytest.raises(InvalidInputError, match="spacing_ratio"):
        ArrayModel(40, 1e308)
    # a numpy scalar is checked as a float, without an overflow RuntimeWarning
    # (an error in this suite)
    with pytest.raises(InvalidInputError, match="spacing_ratio"):
        ArrayModel(40, np.float64(1e308))
    # the rule is on the largest phase 2*pi*rho*(N-1), not on rho alone
    with pytest.raises(InvalidInputError):
        ArrayModel(40, 1e306)
    response = array_response(ArrayModel(2, 1e306), np.linspace(-1.5, 1.5, 7))
    assert np.all(np.isfinite(response))
