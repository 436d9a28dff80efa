"""One path per operation: the reference formulas live in the tests.

``step_mul_nonneg_formula`` and ``_lattice_by_formula`` evaluate the
paper's formulas at every candidate threshold, and ``orth_to_decreasing``
reads the decreasing decomposition straight off the orthogonal one, and
``leq_pairs`` builds ``<=`` as its 3^n pairs, which ``ProxRel`` does not
store; ``tests/helpers.py`` defines them, and the tests compare the library
with them.  No code in ``specker`` may define, call, import or export
them, nor bring back ``_related_pair``, ``_lift`` or ``_approximant``,
the unchecked twins of ``sample_related_pair``, ``lift_morphism`` and
``positive_approximant``, nor the names that only their own tests
reached: ``ba_apply`` with ``_CONNECTIVE_ARITY`` (a second spelling of
``~``, ``&`` and ``|``), ``is_idempotent``, and ``functor_sp_morphism``
and ``functor_id_morphism`` (aliases of ``lift_morphism`` and
``restrict_prox_morphism``), nor ``_morphism_from_json`` and its
``bounded`` flag, which refused a morphism side over the exhaustive
bound before ``<=`` was built, nor ``PointFn.value_at``, which nothing
called, nor ``_require_lift_operands`` and the ``homes`` parameter of
both ``_fill`` functions, which worded the refusal of operands from two
algebras their own way, nor ``oracle_diff``'s ``overrides``, which only
the fault-injection tests set (they patch the module instead).  That refusal is ``boolalg._check_same_algebra`` with its
one message: no other module holds a string saying "different algebra"
or "mixed algebras".  These tests read the source, so a
definition or use added anywhere in the package is caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import helpers
from specker.boolalg import _MIXED

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "specker").glob("*.py"))
REFERENCES = {
    "step_mul_nonneg_formula",
    "_lattice_by_formula",
    "orth_to_decreasing",
    "leq_pairs",
}
ABSENT = REFERENCES | {
    "_related_pair",
    "_lift",
    "_approximant",
    "ba_apply",
    "_CONNECTIVE_ARITY",
    "is_idempotent",
    "functor_sp_morphism",
    "functor_id_morphism",
    "_morphism_from_json",
    "bounded",
    "value_at",
    "_require_lift_operands",
    "homes",
    "overrides",
}
MIXED_WORDS = ("different algebra", "mixed algebras")


# the field holding the name: of a definition, of a parameter, of a load
# or call, of a module attribute, and of an imported name
_NAME_FIELD = {
    ast.FunctionDef: "name",
    ast.arg: "arg",
    ast.Name: "id",
    ast.Attribute: "attr",
    ast.alias: "name",
}


def _uses(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every definition of or reference to an absent name."""
    return [
        (node.lineno, getattr(node, field))
        for node in ast.walk(tree)
        if (field := _NAME_FIELD.get(type(node))) and getattr(node, field) in ABSENT
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_library_code_uses_a_reference_formula(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _uses(tree) == [], f"{path.name} defines or uses an absent name"


def test_reference_formulas_are_defined_but_not_exported():
    assert all(callable(getattr(helpers, name)) for name in REFERENCES)
    assert len(SOURCES) > 1


def test_the_guard_sees_a_call():
    tree = ast.parse(
        "def _lift(m):\n    return steps.step_mul_nonneg_formula(m, m)\n"
    )
    assert _uses(tree) == [(1, "_lift"), (2, "step_mul_nonneg_formula")]


def _mixed_wordings(path: Path) -> list[tuple[int, str]]:
    """``(line, text)`` of every string constant that words a mixed-algebra refusal."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(words in node.value for words in MIXED_WORDS)
    ]


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "boolalg.py"], ids=lambda path: path.name
)
def test_only_boolalg_words_the_mixed_algebra_refusal(path):
    assert _mixed_wordings(path) == [], f"{path.name} refuses mixed algebras in its own words"


def test_boolalg_holds_the_one_wording():
    boolalg = next(path for path in SOURCES if path.name == "boolalg.py")
    assert _MIXED in [text for _, text in _mixed_wordings(boolalg)]
