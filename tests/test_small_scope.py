"""P2, P5, P6 and P8 on every related tuple of a small scope, with no seed.

The sampled suite draws 200 tuples from one seed; a pass says nothing
about the tuples it did not draw.  Here the predicates of
``proximity._proximity_checks`` run on every step element of 1 and 2
atoms whose atom values lie in {-1, 0, 1} ({0, 1} for P8, whose pairs
are nonnegative), in the manner of SmallCheck (Runciman, Naylor and
Lindblad, Haskell Symposium 2008).  Under ``<=`` two elements are
related exactly when they are ordered at every atom, so the related
pairs are enumerated from the atom values, not drawn through
``sample_related_pair``.  The table is built without a generator: a
predicate that drew would fail here.
"""

from __future__ import annotations

import itertools

import pytest

from specker.boolalg import make_algebra
from specker.pointwise import PointFn, steps_of_pointfn
from specker.proximity import _proximity_checks, leq_proximity

# atoms: the related pairs, and the tuples P6 and P8 check
EXPECTED = {
    1: {"P2": 6, "P5": 6, "P6": 36, "P8": 9},
    2: {"P2": 36, "P5": 36, "P6": 1296, "P8": 81},
}


def _related_pairs(algebra, values) -> list[tuple]:
    """Every pair of elements with atom values in ``values``, ordered at each atom."""
    atoms = len(algebra.atoms)
    ordered = [(a, b) for a in values for b in values if a <= b]
    return [
        tuple(steps_of_pointfn(PointFn(algebra, side)) for side in zip(*per_atom))
        for per_atom in itertools.product(ordered, repeat=atoms)
    ]


@pytest.mark.parametrize("atoms", sorted(EXPECTED))
def test_lifted_axioms_hold_on_every_related_tuple_of_the_scope(atoms):
    algebra = make_algebra([f"a{i}" for i in range(atoms)])
    checks = _proximity_checks(leq_proximity(algebra), None, 1)
    holds = {name: predicate for name, _, predicate in checks}
    pairs = _related_pairs(algebra, (-1, 0, 1))
    nonneg = _related_pairs(algebra, (0, 1))
    tuples = {
        "P2": pairs,
        "P5": pairs,
        "P6": [p + q for p, q in itertools.product(pairs, repeat=2)],
        "P8": [p + q for p, q in itertools.product(nonneg, repeat=2)],
    }
    checked = {name: len(cases) for name, cases in tuples.items()}
    failing = {
        name: next((case for case in cases if not holds[name](*case)), None)
        for name, cases in tuples.items()
    }
    assert failing == dict.fromkeys(tuples), f"checked {checked}: {failing}"
    assert checked == EXPECTED[atoms]
