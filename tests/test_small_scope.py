"""P2-P10, M2-M7, the eta-square and the oracle's rows on every operand
tuple of a small scope, with no seed.

The sampled suite draws 200 tuples from one seed; a pass says nothing
about the tuples it did not draw.  Here the predicates of
``proximity._proximity_checks`` run on every step element of 1 and 2
atoms whose atom values lie in {-1, 0, 1} ({0, 1} for an operand that
must be nonnegative: P8's pairs, P3's shifts and P10's element), and of
1 atom with values in {-1, -1/2, 0, 1/2, 1} ({0, 1/2, 1}), in the
manner of SmallCheck (Runciman, Naylor and Lindblad, Haskell Symposium
2008).  Under ``<=`` two elements are related exactly when they are
ordered at every atom, so the related pairs are enumerated from the atom
values, not drawn through ``sample_related_pair``; so are P3's shifted
ends, P4's meet and P7's pairs, related or not, with P7's scalar in
1..2.  P9's interpolant and P10's approximant are built by
``interpolate_lifted`` and ``positive_approximant``, as their draws
build them.  The table is built without a generator: a predicate that
drew would fail here.

M2-M7 (``morphisms._morphism_checks``) and the eta-square of
``naturality_check`` run the same way for each of the 8 lifted homs
between the 1- and 2-atom algebras, on every element of the source with
values in {-1, 0, 1}, with a scalar in {-1, 0, 1} ({0, 1} for M6) and
M3 on related pairs only.  M4's ``holds`` draws its approximant
combinations from a seeded generator.  The 18 rows of ``oracle_diff``
run on every operand tuple at 2 atoms: the 81 pairs, the 9 single
elements, a scalar in {-1, 0, 1} ({1, 2} where it must be positive), and
16 pairs with values in {0, 1} where both must be nonnegative.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from specker import morphisms, orthogonal, pointwise, steps
from specker.boolalg import _first_failure, make_algebra
from specker.morphisms import (
    _morphism_checks,
    enumerate_boolean_homs,
    lift_morphism,
    naturality_check,
)
from specker.pointwise import _ORACLE, PointFn, _oracle_cases, steps_of_pointfn
from specker.proximity import (
    _proximity_checks,
    interpolate_lifted,
    leq_proximity,
    positive_approximant,
)

HALF = Fraction(1, 2)
# scope: the atom values, and those of an operand that must be nonnegative
SCOPES = {"int": ((-1, 0, 1), (0, 1)), "fraction": ((-1, -HALF, 0, HALF, 1), (0, HALF, 1))}
# (scope, atoms): the operand tuples each axiom checks
EXPECTED = {
    ("int", 1): {"P2": 6, "P3": 24, "P4": 36, "P5": 6, "P6": 36, "P7": 18, "P8": 9, "P9": 6,
                 "P10": 1},
    ("int", 2): {
        "P2": 36,
        "P3": 576,
        "P4": 1296,
        "P5": 36,
        "P6": 1296,
        "P7": 162,
        "P8": 81,
        "P9": 36,
        "P10": 3,
    },
    ("fraction", 1): {"P2": 15, "P3": 135, "P4": 225, "P5": 15, "P6": 225, "P7": 50, "P8": 36,
                      "P9": 15, "P10": 2},
}  # fmt: skip


def _tuples(algebra, choices) -> list[tuple]:
    """Every operand tuple whose values at each atom are one of ``choices``."""
    return [
        tuple(steps_of_pointfn(PointFn(algebra, side)) for side in zip(*per_atom))
        for per_atom in itertools.product(choices, repeat=len(algebra.atoms))
    ]


def _ordered(values) -> list[tuple]:
    return [(a, b) for a in values for b in values if a <= b]


@pytest.mark.parametrize("atoms", [1, 2])
def test_lifted_axioms_hold_on_every_related_tuple_of_the_scope(atoms):
    _check_scope("int", atoms)


def test_lifted_axioms_hold_on_every_related_tuple_of_the_fraction_scope():
    _check_scope("fraction", 1)


def _check_scope(scope: str, atoms: int) -> None:
    algebra = make_algebra([f"a{i}" for i in range(atoms)])
    rel = leq_proximity(algebra)
    checks = _proximity_checks(rel, None, 1)
    holds = {name: predicate for name, _, predicate in checks}
    values, shifts = SCOPES[scope]
    pairs = _tuples(algebra, _ordered(values))
    nonneg = _tuples(algebra, _ordered(shifts))
    positive = [
        steps_of_pointfn(PointFn(algebra, at))
        for at in itertools.product(shifts, repeat=atoms)
        if any(at)
    ]
    tuples = {
        "P2": pairs,
        # t - down, t, r, r + up for related t, r and nonnegative down, up
        "P3": _tuples(
            algebra,
            [
                (t - down, t, r, r + up)
                for t, r in _ordered(values)
                for down, up in itertools.product(shifts, repeat=2)
            ],
        ),
        # the meet of s1 and s2, then t and r, for related (s1, t), (s2, r)
        "P4": _tuples(
            algebra,
            [
                (min(s1, s2), t, r)
                for (s1, t), (s2, r) in itertools.product(_ordered(values), repeat=2)
            ],
        ),
        "P5": pairs,
        "P6": [p + q for p, q in itertools.product(pairs, repeat=2)],
        "P7": [
            (a, *st)
            for a in (1, 2)
            for st in _tuples(algebra, list(itertools.product(values, repeat=2)))
        ],
        "P8": [p + q for p, q in itertools.product(nonneg, repeat=2)],
        "P9": [(s, interpolate_lifted(rel, s, t), t) for s, t in pairs],
        "P10": [(positive_approximant(rel, s), s) for s in positive],
    }
    checked = {name: len(cases) for name, cases in tuples.items()}
    failing = {
        name: next((case for case in cases if not holds[name](*case)), None)
        for name, cases in tuples.items()
    }
    assert failing == dict.fromkeys(tuples), f"checked {checked}: {failing}"
    assert checked == EXPECTED[scope, atoms], f"checked {checked}"


SMALL = [make_algebra([f"a{i}" for i in range(atoms)]) for atoms in (1, 2)]
HOMS = {
    f"{len(source.atoms)}to{len(target.atoms)}-{i}": hom
    for source in SMALL
    for target in SMALL
    for i, hom in enumerate(enumerate_boolean_homs(source, target))
}
# source atoms: the operand tuples each check takes
EXPECTED_HOM = {
    1: {"M2": 9, "M3": 6, "M4": 3, "M5": 9, "M6": 6, "M7": 9, "eta-square": 3},
    2: {"M2": 81, "M3": 36, "M4": 9, "M5": 27, "M6": 18, "M7": 27, "eta-square": 9},
}


def _eta_square(hom, monkeypatch):
    """``("eta-square", holds)`` for ``hom``, as ``naturality_check`` builds it."""
    rows = []
    with monkeypatch.context() as patched:
        patched.setattr(morphisms, "_record_sampled", lambda _, __, checks: rows.extend(checks))
        naturality_check(hom, samples=1)
    ((name, _, holds),) = rows
    return name, holds


def test_the_small_algebras_have_8_homs():
    assert len(HOMS) == 8


@pytest.mark.parametrize("name", sorted(HOMS))
def test_morphism_axioms_hold_on_every_tuple_of_the_scope(name, monkeypatch):
    hom = HOMS[name]
    algebra = hom.source.algebra
    checks = _morphism_checks(lift_morphism(hom), random.Random(0), 1)
    holds = {check: predicate for check, _, predicate in checks}
    holds.update([_eta_square(hom, monkeypatch)])
    values, nonneg = SCOPES["int"]
    elements = _tuples(algebra, [(v,) for v in values])
    signed = [(s, a) for (s,) in elements for a in values]
    tuples = {
        "M2": _tuples(algebra, list(itertools.product(values, repeat=2))),
        "M3": _tuples(algebra, _ordered(values)),
        "M4": elements,
        "M5": signed,
        "M6": [(s, a) for (s,) in elements for a in nonneg],
        "M7": signed,
        "eta-square": elements,
    }
    checked = {check: len(cases) for check, cases in tuples.items()}
    failing = {
        check: next((case for case in cases if not holds[check](*case)), None)
        for check, cases in tuples.items()
    }
    assert failing == dict.fromkeys(tuples), f"checked {checked}: {failing}"
    assert checked == EXPECTED_HOM[len(algebra.atoms)], f"checked {checked}"


# operand shape: the tuples each oracle row of that shape takes at 2 atoms
EXPECTED_ORACLE = {"pair": 81, "one": 9, "nonneg pair": 16, "scalar": 27, "positive scalar": 18}


def test_oracle_rows_hold_on_every_operand_tuple_at_2_atoms(monkeypatch):
    algebra = SMALL[1]
    values, nonneg = SCOPES["int"]
    points = [PointFn(algebra, at) for at in itertools.product(values, repeat=2)]
    positive = [PointFn(algebra, at) for at in itertools.product(nonneg, repeat=2)]
    operands = {
        "one": [(p,) for p in points],
        "pair": list(itertools.product(points, repeat=2)),
        "nonneg pair": list(itertools.product(positive, repeat=2)),
        "scalar": [(a, p) for a in values for p in points],
        "positive scalar": [(a, p) for a in (1, 2) for p in points],
    }
    checked, failing = {}, {}
    for row in _ORACLE:
        name, shape = row[:2]
        cases = iter(operands[shape])
        # each case takes the next tuple where the oracle draws one
        monkeypatch.setattr(pointwise, "_draw", lambda *args: next(cases))
        op = getattr(orthogonal if name.startswith("orth_") else steps, name)
        checked[name], failing[name] = _first_failure(
            _oracle_cases(row, op, None, algebra, 1, len(operands[shape]), "int")
        )
    assert failing == dict.fromkeys(checked), f"checked {checked}: {failing}"
    expected = {name: EXPECTED_ORACLE[shape] for name, shape, *_ in _ORACLE}
    assert len(expected) == 18 and checked == expected, f"checked {checked}"
