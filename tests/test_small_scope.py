"""P2-P10 on every operand tuple of a small scope, with no seed.

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
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from specker.boolalg import make_algebra
from specker.pointwise import PointFn, steps_of_pointfn
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
