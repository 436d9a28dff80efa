"""The mask kernel of ``specker.steps`` against the brute-force reference.

Elements are drawn as atom valuations on 1-6 atoms, with integer or
rational values, and built with the constructor alone; every operation
is compared with the docstring formula evaluated in ``helpers``.
Addition is also drawn on 1-8 atoms with int, ``Fraction`` and integral
``Fraction`` values in one operand, and held equal to
``helpers.step_add_formula`` in every threshold's value and type.
Subtraction runs on
the atom-value kernel: it is held equal to the formula route
``f + (-g)`` and, on seeded draws at 1-16 atoms, to the pointwise
oracle.  Meet and join are also drawn on 8-64 atoms, with int and
``Fraction`` values mixed, in the shapes that end their one walk early
or late, and held equal to the ``_merged`` composition they replaced.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ref_add,
    ref_from_decomposition,
    ref_join,
    ref_leq,
    ref_meet,
    ref_merged_lattice,
    ref_mul_nonneg,
    ref_neg,
    ref_scale_pos,
    step_add_formula,
    steps_from_values,
    table_of,
)
from specker.boolalg import make_algebra
from specker.pointwise import atom_values, pointwise_apply, random_pointfn, steps_of_pointfn
from specker.steps import (
    StepElem,
    _assemble_masks,
    _sum,
    from_decomposition,
    step_add,
    step_join,
    step_leq,
    step_meet,
    step_mul_nonneg,
    step_neg,
    step_from_json,
    step_scale_pos,
    step_sub,
)

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 9)}

ints = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
kernel = settings(max_examples=60, deadline=None)


@st.composite
def operands(draw, count=2, nonneg=False):
    """An algebra and ``count`` step elements on it, in one scalar domain."""
    algebra = ALGEBRAS[draw(st.integers(1, 6))]
    scalar = draw(st.sampled_from([ints, fractions]))
    if nonneg:
        scalar = scalar.map(abs)
    n = len(algebra.atoms)
    elems = [
        steps_from_values(algebra, draw(st.lists(scalar, min_size=n, max_size=n)))
        for _ in range(count)
    ]
    return algebra, elems


@kernel
@given(operands())
def test_add_matches_reference(case):
    _, (f, g) = case
    total = step_add(f, g)
    assert table_of(total) == ref_add(f, g)
    # the kernel sum of the sampled axiom suites, also in its printed form
    assert _sum(f, g) == total and str(_sum(f, g)) == str(total)


# an int, a ``Fraction``, or a ``Fraction`` that is an integer
any_scalar = st.one_of(ints, fractions, ints.map(Fraction))


@st.composite
def mixed_pairs(draw):
    """Two step elements on 1-8 atoms, each taking values of all three kinds."""
    algebra = ALGEBRAS[draw(st.integers(1, 8))]
    n = len(algebra.atoms)
    return [
        steps_from_values(algebra, draw(st.lists(any_scalar, min_size=n, max_size=n)))
        for _ in range(2)
    ]


def _typed(f: StepElem) -> tuple[list, tuple[int, ...]]:
    return [(t, type(t)) for t in f.thresholds], f._masks


@settings(max_examples=200, deadline=None)
@given(mixed_pairs())
def test_add_matches_its_formula_in_values_types_and_masks(pair):
    f, g = pair
    assert _typed(step_add(f, g)) == _typed(step_add_formula(f, g))


@kernel
@given(operands())
def test_sub_matches_the_formula_route(case):
    _, (f, g) = case
    difference = step_sub(f, g)
    formula = step_add(f, step_neg(g))
    assert difference == formula and str(difference) == str(formula)
    assert table_of(difference) == ref_add(f, step_neg(g))


def test_sub_matches_pointwise_oracle():
    # the oracle has no "sub": f - g is f + (-g) there, on plain scalars
    rng = random.Random(53)
    for n in range(1, 17):
        algebra = make_algebra([f"a{i}" for i in range(n)])
        for domain in ("int", "fraction"):
            for _ in range(12):
                pa, pb = (random_pointfn(rng, algebra, 1000, domain) for _ in range(2))
                expected = pointwise_apply("add", [pa, pointwise_apply("neg", [pb])])
                difference = step_sub(steps_of_pointfn(pa), steps_of_pointfn(pb))
                assert atom_values(difference) == expected
                assert difference == steps_of_pointfn(expected)


@kernel
@given(operands(nonneg=True))
def test_mul_nonneg_matches_reference(case):
    _, (f, g) = case
    assert table_of(step_mul_nonneg(f, g)) == ref_mul_nonneg(f, g)


@kernel
@given(operands(count=1), st.one_of(st.integers(1, 5), fractions.filter(lambda b: b > 0)))
def test_scale_pos_matches_reference(case, b):
    _, (f,) = case
    assert table_of(step_scale_pos(b, f)) == ref_scale_pos(b, f)


@kernel
@given(operands(count=1))
def test_neg_matches_reference(case):
    _, (f,) = case
    assert table_of(step_neg(f)) == ref_neg(f)


WIDE = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(8, 65)}
mixed = st.one_of(ints, fractions)


@st.composite
def wide_operands(draw):
    """Two step elements on 8-64 atoms, int and ``Fraction`` values mixed.

    The shapes: independent values; one chain ending first, as some atoms
    move past every value of the other; supports that split, so the meet
    reaches 0 before either chain ends; identical operands; a constant.
    """
    algebra = WIDE[draw(st.integers(8, 64))]
    n = len(algebra.atoms)
    values = st.lists(mixed, min_size=n, max_size=n)
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    u = draw(values)
    shape = draw(st.sampled_from(["independent", "ends-first", "split", "same", "const"]))
    if shape == "independent":
        v = draw(values)
    elif shape == "ends-first":
        past = max(u) - min(u) + 1
        v = [x + past if up else x for x, up in zip(u, draw(bits))]
    elif shape == "split":
        high = draw(bits)
        u = [abs(x) + 1 if h else -abs(x) - 1 for x, h in zip(u, high)]
        v = [-abs(x) - 1 if h else abs(x) + 1 for x, h in zip(draw(values), high)]
    elif shape == "same":
        v = u
    else:
        v = [draw(mixed)] * n
    elems = [steps_from_values(algebra, u), steps_from_values(algebra, v)]
    return algebra, draw(st.permutations(elems))


@settings(max_examples=150, deadline=None)
@given(st.one_of(operands(), wide_operands()))
def test_meet_join_leq_match_reference(case):
    _, (f, g) = case
    meet, join = step_meet(f, g), step_join(f, g)
    assert table_of(meet) == ref_meet(f, g)
    assert table_of(join) == ref_join(f, g)
    # the composition the one walk replaced
    assert meet == ref_merged_lattice(f, g, True)
    assert join == ref_merged_lattice(f, g, False)
    assert step_leq(f, g) == ref_leq(f, g)
    # comparable pairs, so that both answers of step_leq are exercised
    assert step_leq(meet, f) and ref_leq(meet, f)
    assert step_leq(f, join) and ref_leq(f, join)


@st.composite
def decompositions(draw):
    """``a0`` and pairs ``(b, e)`` with arbitrary, not nested, idempotents."""
    algebra = ALGEBRAS[draw(st.integers(1, 6))]
    scalar = draw(st.sampled_from([ints, fractions]))
    idem = st.integers(0, algebra.full_mask).map(algebra.from_mask)
    pairs = draw(st.lists(st.tuples(scalar, idem), max_size=6))
    return algebra, draw(scalar), pairs


@kernel
@given(decompositions())
def test_from_decomposition_matches_per_atom_sum(case):
    algebra, a0, pairs = case
    assert table_of(from_decomposition(algebra, a0, pairs)) == ref_from_decomposition(
        algebra, a0, pairs
    )


def test_from_decomposition_positive_non_nested(b8):
    # approximants as in the morphism axiom M4: positive gaps, idempotents
    # that neither contain nor avoid each other
    a, b, c = b8.atom("a"), b8.atom("b"), b8.atom("c")
    pairs = [(2, a | b), (3, b | c), (Fraction(1, 2), a | c)]
    result = from_decomposition(b8, -1, pairs)
    assert table_of(result) == ref_from_decomposition(b8, -1, pairs)
    assert result == StepElem(
        b8, (Fraction(3, 2), Fraction(5, 2), 4), (b8.one, b | c, b)
    )


def test_mixed_algebras_rejected_with_old_messages(b4, b2):
    p = b4.atom("p")
    with pytest.raises(ValueError, match="^mixed algebras"):
        StepElem(b4, (0, 1), (b4.one, b2.one))
    with pytest.raises(ValueError, match="^mixed algebras"):
        StepElem(b4, (0, 1), (b2.one, p))
    with pytest.raises(ValueError, match="^mixed algebras"):
        StepElem(b4, (0,), (b2.one,))
    with pytest.raises(ValueError, match="^mixed algebras"):
        from_decomposition(b4, 0, [(1, p), (2, b2.one)])
    one4, one2 = StepElem(b4, (0,), (b4.one,)), StepElem(b2, (0,), (b2.one,))
    for op in (step_add, _sum, step_sub):
        with pytest.raises(ValueError, match="^mixed algebras"):
            op(one4, one2)


def test_equal_algebras_are_one_algebra(b4):
    # an equal algebra built separately is the same algebra, as before
    twin = make_algebra(["p", "q"])
    f = StepElem(b4, (0, 1), (b4.one, twin.atom("p")))
    g = StepElem(twin, (0, 2), (twin.one, twin.atom("p")))
    assert step_leq(f, g)
    assert step_add(f, g) == StepElem(b4, (0, 3), (b4.one, b4.atom("p")))


def test_non_decreasing_components_rejected_with_old_messages(b4):
    p, q = b4.atom("p"), b4.atom("q")
    with pytest.raises(ValueError, match="^components must strictly decrease$"):
        StepElem(b4, (0, 1, 2), (b4.one, p, q))
    with pytest.raises(ValueError, match="^components must strictly decrease$"):
        StepElem(b4, (0, 1), (b4.one, b4.one))
    with pytest.raises(ValueError, match="^thresholds must strictly increase$"):
        StepElem(b4, (1, 1), (b4.one, p))
    with pytest.raises(ValueError, match="^the first step must have component 1$"):
        StepElem(b4, (0,), (p,))
    with pytest.raises(ValueError, match="^the last step must have a nonzero component$"):
        StepElem(b4, (0, 1), (b4.one, b4.zero))
    with pytest.raises(ValueError, match="^assembly requires decreasing sampled values$"):
        _assemble_masks(b4, [(0, b4.full_mask), (1, p.mask), (2, q.mask)])
    with pytest.raises(ValueError, match="^assembly requires the first sampled value to be 1$"):
        _assemble_masks(b4, [(0, p.mask)])
    with pytest.raises(ValueError, match="^cannot assemble a step function from no points$"):
        _assemble_masks(b4, [])
    # the JSON loader assembles its points the same way
    def load(*steps):
        items = [{"upto": upto, "idem": idem} for upto, idem in steps]
        return step_from_json(b4, {"rep": "flat", "steps": items})

    with pytest.raises(ValueError, match="^assembly requires decreasing sampled values$"):
        load(("0", "1"), ("1", ["p"]), ("2", ["q"]))
    with pytest.raises(ValueError, match="^assembly requires the first sampled value to be 1$"):
        load(("0", ["p"]))
    with pytest.raises(ValueError, match="^cannot assemble a step function from no points$"):
        load()
