"""The paper's direct formulas stay reference functions for the tests.

Production code runs one path per operation.  ``step_mul_nonneg_formula``
and ``_lattice_by_formula`` evaluate the paper's formulas at every
candidate threshold; the tests compare the kernels with them, and no
code in ``specker`` may call, import or export them.  These tests read
the source, so a use added anywhere in the package is caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import specker
import specker.steps

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "specker").glob("*.py"))
REFERENCES = {"step_mul_nonneg_formula", "_lattice_by_formula"}


# the field holding the name: of a load or call, of a module attribute,
# and of an imported name
_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _uses(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every reference to a reference formula."""
    return [
        (node.lineno, getattr(node, field))
        for node in ast.walk(tree)
        if (field := _NAME_FIELD.get(type(node))) and getattr(node, field) in REFERENCES
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_library_code_uses_a_reference_formula(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _uses(tree) == [], f"{path.name} uses a reference formula"


def test_reference_formulas_are_defined_but_not_exported():
    defined = {
        node.name
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    assert REFERENCES <= defined
    assert not REFERENCES & set(specker.steps.__all__)
    assert not REFERENCES & set(specker.__all__)


def test_the_guard_sees_a_call():
    tree = ast.parse("def f(s, t):\n    return steps.step_mul_nonneg_formula(s, t)\n")
    assert _uses(tree) == [(2, "step_mul_nonneg_formula")]
