"""How the work of the kernel operations grows with the atoms, by counting.

A count repeats exactly on any host, where a timing would not.  Each row
runs one operation on seeded operands at 4, 8, 16, 32 and 64 atoms, one
value per atom drawn from -1000..1000, so that nearly every atom is a
class of its own.  The operation runs once to warm up (a first read
builds cached state), then once under ``sys.setprofile``, counting
``call`` and ``c_call`` events: the kernels walk their atoms and classes
inside builtins called from Python, which only ``c_call`` events see.
An operation linear in the atoms may at most double its count per
doubling of the atoms, and a constant part makes the ratio smaller; a
bound of 2.5x leaves room for an ``n log n`` sort and fails on anything
quadratic.

``normalize_term`` runs one fixed term over three generators, so that
only the algebra grows: a sum over all n generators would grow the term
with it.  ``sample_proximity_axioms`` runs one sample of each of P2-P10
on ``<=``, at its default seed and coefficient bound.  ``orth_scale``,
``step_scale`` and ``step_neg`` have no row: they work in
comprehensions, which no event sees, so their counts stay constant.

``ProxRel.pair_at`` on ``<=`` unranks its pair in two loops over the
atoms that call nothing, so its row counts ``line`` events under
``sys.settrace`` instead, at a seeded index per size.

``step_add`` still evaluates its formula at every pair of thresholds,
about 15x per doubling; its row is an expected failure until it runs on
the atom-value kernel, as ``steps._sum`` does.
"""

from __future__ import annotations

import random
import sys

import pytest

from helpers import capped
from specker.boolalg import make_algebra
from specker.proximity import leq_proximity, lift_check, sample_proximity_axioms
from specker.orthogonal import (
    orth_add,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
    orth_sub,
    random_orth,
)
from specker.steps import (
    _sum,
    compatible_decreasing,
    decreasing_decomposition,
    random_steps,
    step_add,
    step_join,
    step_leq,
    step_meet,
    step_mul,
    step_mul_nonneg,
    step_sub,
    step_zero,
    to_orth,
    to_steps,
)
from specker.terms import normalize_term, parse_term

ATOMS = (4, 8, 16, 32, 64)
BOUND = 1000
PER_DOUBLING = 2.5


def _operands(atoms: int, draw) -> tuple:
    algebra = make_algebra([f"a{i}" for i in range(atoms)])
    rng = random.Random(atoms)
    return draw(rng, algebra, BOUND), draw(rng, algebra, BOUND)


def _count(op, args: tuple) -> int:
    op(*args)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        op(*args)
    finally:
        sys.setprofile(previous)
    return count


def _nonneg(f, g) -> tuple:
    zero = step_zero(f.algebra)
    return step_join(f, zero), step_join(g, zero)


TERM = parse_term("(x_a0 + 2*x_a1 - 3)^3 * meet(x_a2, 1)")


def _algebra(rng, algebra, bound):
    return algebra


# name: (operation, operand draw, the arguments it takes from two operands)
ROWS = {
    "_sum": (_sum, random_steps, lambda f, g: (f, g)),
    "step_sub": (step_sub, random_steps, lambda f, g: (f, g)),
    "step_mul": (step_mul, random_steps, lambda f, g: (f, g)),
    "step_mul_nonneg": (step_mul_nonneg, random_steps, _nonneg),
    "step_meet": (step_meet, random_steps, lambda f, g: (f, g)),
    "step_join": (step_join, random_steps, lambda f, g: (f, g)),
    # a related pair, so that the order walks every threshold
    "step_leq": (step_leq, random_steps, lambda f, g: (step_meet(f, g), g)),
    "compatible_decreasing": (compatible_decreasing, random_steps, lambda f, g: (f, g)),
    "decreasing_decomposition": (decreasing_decomposition, random_steps, lambda f, g: (f,)),
    "orth_add": (orth_add, random_orth, lambda f, g: (f, g)),
    "orth_sub": (orth_sub, random_orth, lambda f, g: (f, g)),
    "orth_mul": (orth_mul, random_orth, lambda f, g: (f, g)),
    "orth_meet": (orth_meet, random_orth, lambda f, g: (f, g)),
    "orth_join": (orth_join, random_orth, lambda f, g: (f, g)),
    # a related pair, so that the order reads every atom
    "orth_leq": (orth_leq, random_orth, lambda f, g: (orth_meet(f, g), g)),
    "to_steps": (to_steps, random_orth, lambda f, g: (f,)),
    "to_orth": (to_orth, random_steps, lambda f, g: (f,)),
    "normalize_term": (normalize_term, _algebra, lambda a, b: (TERM, a)),
    # a related pair under <=, so that the lift walks every threshold
    "lift_check": (
        lift_check,
        random_steps,
        lambda f, g: (leq_proximity(f.algebra), step_meet(f, g), g),
    ),
    # one sample of each of P2-P10 on <=, at the suite's default seed
    "sample_proximity_axioms": (
        sample_proximity_axioms,
        _algebra,
        lambda a, b: (leq_proximity(a), 1),
    ),
}


def _counts(op, draw, arguments, sizes) -> list[int]:
    return [_count(op, arguments(*_operands(atoms, draw))) for atoms in sizes]


def _assert_linear(counts: list[int]) -> None:
    ratios = [after / before for before, after in zip(counts, counts[1:])]
    assert max(ratios) <= PER_DOUBLING, f"counts {counts}"


@pytest.mark.parametrize("name", sorted(ROWS))
def test_work_grows_at_most_linearly(name):
    _assert_linear(_counts(*ROWS[name], ATOMS))


def _lines(op, args: tuple) -> int:
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        op(*args)
    finally:
        sys.settrace(previous)
    return count


def test_leq_pair_at_work_grows_at_most_linearly():
    counts = []
    with capped():  # a <= that built its 3^n pairs fails here, not after gigabytes
        for atoms in ATOMS:
            leq = leq_proximity(make_algebra([f"a{i}" for i in range(atoms)]))
            counts.append(_lines(leq.pair_at, (random.Random(atoms).randrange(leq.count()),)))
    _assert_linear(counts)


@pytest.mark.xfail(strict=True, reason="step_add runs its formula, not the kernel")
def test_step_add_work_grows_at_most_linearly():
    _assert_linear(_counts(step_add, random_steps, lambda f, g: (f, g), ATOMS[:3]))
