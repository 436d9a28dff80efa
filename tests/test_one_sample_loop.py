"""The sampled checks share one case loop.

P2-P10, M2-M7 and the eta-square each hand a ``(name, draw, holds)``
row to ``proximity._record_sampled``, which decides how many samples
run, in what order, where a check stops and what its witness is.  No other code in ``specker`` may loop
over ``samples`` itself; ``pointwise``, the independent oracle, keeps its
own.  These tests read the source, so a loop added anywhere in the
package is caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specker"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "pointwise.py")

# the field holding what a loop runs over
_LOOP_FIELD = {ast.For: "iter", ast.comprehension: "iter", ast.While: "test"}


def _sample_loops(tree: ast.AST, function: str | None = None) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every loop that reads ``samples``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, ast.FunctionDef) else function
        field = _LOOP_FIELD.get(type(node))
        if field:
            over = getattr(node, field)
            if any(isinstance(n, ast.Name) and n.id == "samples" for n in ast.walk(over)):
                found.append((inner, over.lineno))
        found += _sample_loops(node, inner)
    return found


def _package_loops(sources: dict[str, str]) -> list[tuple[str, str]]:
    return [
        (name, function)
        for name, text in sources.items()
        for function, _ in _sample_loops(ast.parse(text))
    ]


def _read() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in SOURCES}


def test_the_runner_holds_the_one_loop_over_samples():
    assert _package_loops(_read()) == [("proximity.py", "_record_sampled")]


def test_the_guard_sees_a_planted_loop():
    sources = _read()
    sources["morphisms.py"] += (
        "\n\ndef planted(samples):\n"
        "    def cases():\n"
        "        for _ in range(samples):\n"
        "            yield None\n"
        "    return cases()\n"
    )
    assert _package_loops(sources) == [
        ("morphisms.py", "cases"),
        ("proximity.py", "_record_sampled"),
    ]


def test_the_guard_sees_comprehensions_and_while_loops():
    tree = ast.parse(
        "def f(samples):\n"
        "    xs = [0 for _ in range(samples)]\n"
        "    while len(xs) < samples:\n"
        "        xs.append(0)\n"
    )
    assert _sample_loops(tree) == [("f", 2), ("f", 3)]
