"""Golden CLI outputs: exit codes and stdout of fixed runs, byte for byte.

The runs cover the de Vries and morphism checkers (with counterexample
witnesses), the sampled lifted-proximity and morphism axioms (seeded), the
lift round trips and star composition, the normal form and atom values of
terms with rational powers, and the conversion of rational elements, in
text and ``--json`` form.  The expected outputs in ``golden_cli.json`` were
captured from the eager object-based checkers (the term and conversion
cases from the ``Fraction`` kernel, before it ran on scaled integers); the
code of today must reproduce them exactly.

To regenerate the file (only when an output change is intended), run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from specker.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

B3 = ["a", "b", "c"]
A4 = ["a0", "a1", "a2", "a3"]

# rational bases under "^": the terms workload's repeated orth_mul
RATIONAL_POW = "(x_a0 * 3/2 + 1/3)^7 - x_a1 * 5/4 + meet(x_a2, 2/3)"
# integral and proper rational classes in one result
MIXED = "(x_a0 * 1/2 + x_a1 * 2)^4 + join(x_a2 * 3/2, 1/2) * 2 - meet(x_a3, 4/3) * 3/2"


def _leq_pairs(n: int) -> list[tuple[int, int]]:
    return [(e, f) for e in range(1 << n) for f in range(1 << n) if e & f == e]


def _literal(atoms: list[str], mask: int) -> str:
    if mask == 0:
        return "0"
    if mask == (1 << len(atoms)) - 1:
        return "1"
    return "[" + ",".join(a for i, a in enumerate(atoms) if mask >> i & 1) + "]"


def _relation(atoms: list[str], pairs) -> dict:
    return {
        "proximity": {
            "pairs": [
                [_literal(atoms, e), _literal(atoms, f)] for e, f in sorted(pairs)
            ]
        }
    }


def _morphism(source: list[str], target: list[str], table: list[int]) -> dict:
    return {
        "source": {"algebra": {"atoms": source}, "proximity": "leq"},
        "target": {"algebra": {"atoms": target}, "proximity": "leq"},
        "map": {
            _literal(source, mask): _literal(target, value)
            for mask, value in enumerate(table)
        },
    }


def _hom(source: list[str], dual: list[int]) -> list[int]:
    """Boolean homomorphism from its dual map (target atom -> source atom)."""
    return [
        sum(1 << t for t, s in enumerate(dual) if mask >> s & 1)
        for mask in range(1 << len(source))
    ]


def _inputs() -> dict[str, object]:
    leq3 = _leq_pairs(3)
    broken = _hom(B3, [1, 0, 2])
    broken[5] = 3
    return {
        "b2.json": {"atoms": ["x"]},
        "b3.json": {"atoms": B3},
        "b4.json": {"atoms": ["p", "q"]},
        "b16.json": {"atoms": ["v0", "v1", "v2", "v3"]},
        "b32.json": {"atoms": ["w0", "w1", "w2", "w3", "w4"]},
        # D1, D4, D5
        "no_bottom.json": _relation(B3, set(leq3) - {(0, 0)}),
        # D4, D5, D7
        "no_atom.json": _relation(B3, set(leq3) - {(1, 1)}),
        # D2, D3, D4, D5
        "beyond_leq.json": _relation(B3, set(leq3) | {(1, 2)}),
        # D3, D5, D6, D7
        "no_interpolant.json": _relation(B3, {(0, 0), (0, 7), (7, 7), (1, 3)}),
        # the workload case: <= minus one pair (D3, D5)
        "leq_minus_one.json": _relation(B3, set(leq3) - {(1, 3)}),
        "hom3.json": _morphism(B3, B3, _hom(B3, [1, 0, 2])),
        "not_hom3.json": _morphism(B3, B3, broken),
        "hom4_2.json": _morphism(["p", "q"], ["x"], _hom(["p", "q"], [0])),
        "inner.json": _morphism(B3, ["p", "q"], _hom(B3, [2, 0])),
        "outer.json": _morphism(["p", "q"], ["x"], _hom(["p", "q"], [1])),
        "s.json": {
            "rep": "perp",
            "entries": [{"value": "2", "idem": ["p"]}, {"value": "0", "idem": ["q"]}],
        },
        "t.json": {
            "rep": "perp",
            "entries": [{"value": "3", "idem": ["p"]}, {"value": "1", "idem": ["q"]}],
        },
        "a4.json": {"atoms": A4},
        "r_steps.json": {
            "rep": "flat",
            "steps": [
                {"upto": "-3/2", "idem": "1"},
                {"upto": "1/3", "idem": ["a0", "a1", "a2"]},
                {"upto": "2", "idem": ["a1", "a2"]},
                {"upto": "11/4", "idem": ["a2"]},
            ],
        },
        "r_orth.json": {
            "rep": "perp",
            "entries": [
                {"value": "5/6", "idem": ["a0", "a3"]},
                {"value": "2", "idem": ["a1"]},
                {"value": "-1/4", "idem": ["a2"]},
            ],
        },
    }



def _devries(relation: str) -> list[str]:
    return ["check-devries", "--algebra", "b3.json", "--proximity", relation]


_BASE = {
    "devries-no-bottom": _devries("no_bottom.json"),
    "devries-no-atom": _devries("no_atom.json"),
    "devries-beyond-leq": _devries("beyond_leq.json"),
    "devries-no-interpolant": _devries("no_interpolant.json"),
    "devries-leq-32": ["check-devries", "--algebra", "b32.json"],
    "prox-1-atom": ["check-prox", "--algebra", "b2.json", "--samples", "30", "--seed", "4"],
    "prox-2-atoms": ["check-prox", "--algebra", "b4.json", "--samples", "15"],
    "prox-4-atoms": [
        "check-prox", "--algebra", "b16.json", "--samples", "10", "--seed", "1",
    ],
    "prox-leq-minus-one": [
        "check-prox", "--algebra", "b3.json", "--proximity", "leq_minus_one.json",
    ],
    "morphism-hom": ["check-morphism", "--morphism", "hom3.json", "--samples", "15"],
    "morphism-hom-to-b2": [
        "check-morphism", "--morphism", "hom4_2.json", "--samples", "15", "--seed", "2",
    ],
    "morphism-changed-entry": ["check-morphism", "--morphism", "not_hom3.json"],
    "lift-restrict": ["lift", "--algebra", "b3.json"],
    "lift-morphism": ["lift", "--morphism", "hom3.json"],
    "compose": ["compose", "outer.json", "inner.json"],
    "equiv-check": ["equiv-check", "--samples", "6"],
    # the 27 homs b3 -> b3
    "equiv-check-b3": ["equiv-check", "--algebra", "b3.json", "--samples", "6"],
    "oracle-1-atom": ["oracle-diff", "--algebra", "b2.json", "--samples", "20"],
    "oracle-1-atom-seed-7": [
        "oracle-diff", "--algebra", "b2.json", "--samples", "20", "--seed", "7",
    ],
    "oracle-2-atoms": ["oracle-diff", "--algebra", "b4.json", "--samples", "20"],
    "oracle-2-atoms-seed-7": [
        "oracle-diff", "--algebra", "b4.json", "--samples", "20", "--seed", "7",
    ],
    "normalize-rational-pow": ["normalize", "--algebra", "a4.json", "--expr", RATIONAL_POW],
    "eval-rational-pow": ["eval", "--algebra", "a4.json", "--expr", RATIONAL_POW],
    "normalize-mixed": ["normalize", "--algebra", "a4.json", "--expr", MIXED],
    "eval-mixed": ["eval", "--algebra", "a4.json", "--expr", MIXED],
    "convert-rational-steps": ["convert", "--algebra", "a4.json", "r_steps.json"],
    "convert-rational-orth": ["convert", "--algebra", "a4.json", "r_orth.json"],
}

CASES = {
    **_BASE,
    **{f"{name}--json": argv + ["--json"] for name, argv in _BASE.items()},
    "lift-related": ["lift", "--algebra", "b4.json", "s.json", "t.json"],
    "lift-not-related": ["lift", "--algebra", "b4.json", "t.json", "s.json"],
}


def _write_inputs(directory: Path) -> None:
    for name, obj in _inputs().items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, inputs):
    assert _run(CASES[name]) == golden[name]


def _capture() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            return {name: _run(argv) for name, argv in sorted(CASES.items())}
        finally:
            os.chdir(here)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
