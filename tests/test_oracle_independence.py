"""The pointwise oracle shares no arithmetic with the code it checks.

``specker.pointwise`` may take only the two element types from the
orthogonal and step layers at module level (to build elements and to
evaluate them); ``oracle_diff`` looks the operations under test up on
their modules only when it runs.  In the other direction the core layers
(``boolalg``, ``scalars``, ``orthogonal``, ``steps``) never import the
oracle, not even lazily inside a function.  These tests read the source,
so an import added anywhere in those modules is caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specker"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports(nodes) -> list[tuple[str, tuple[str, ...]]]:
    """``(module, names)`` of every import among ``nodes``, relative ones as ``.x``."""
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.append((module, tuple(alias.name for alias in node.names)))
        elif isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
    return found


def test_pointwise_takes_only_element_types_from_the_layers_it_checks():
    top_level = _imports(_tree("pointwise").body)
    assert (".orthogonal", ("OrthElem",)) in top_level
    assert (".steps", ("StepElem",)) in top_level
    for module, names in top_level:
        if module in (".orthogonal", ".steps", "specker.orthogonal", "specker.steps"):
            assert names in (("OrthElem",), ("StepElem",)), (module, names)


@pytest.mark.parametrize("module", ["boolalg", "scalars", "orthogonal", "steps"])
def test_core_layers_never_import_the_oracle(module):
    for imported, names in _imports(ast.walk(_tree(module))):
        assert "pointwise" not in imported, (module, imported)
        # ``from . import pointwise``
        assert "pointwise" not in names, (module, imported, names)
