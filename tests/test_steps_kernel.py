"""The mask kernel of ``specker.steps`` against the brute-force reference.

Elements are drawn as atom valuations on 1-6 atoms, with integer or
rational values, and built with the constructor alone; every operation
is compared with the docstring formula evaluated in ``helpers``, and the
one-pass join of many elements with pairwise joins.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ref_add,
    ref_from_decomposition,
    ref_join,
    ref_leq,
    ref_meet,
    ref_mul_nonneg,
    ref_neg,
    ref_scale_pos,
    steps_from_values,
    table_of,
)
from specker.boolalg import make_algebra
from specker.steps import (
    StepElem,
    _assemble,
    _join_all,
    from_decomposition,
    step_add,
    step_join,
    step_leq,
    step_meet,
    step_mul_nonneg,
    step_neg,
    step_scale_pos,
)

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 7)}

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
    assert table_of(step_add(f, g)) == ref_add(f, g)


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


@kernel
@given(operands())
def test_meet_join_leq_match_reference(case):
    _, (f, g) = case
    meet, join = step_meet(f, g), step_join(f, g)
    assert table_of(meet) == ref_meet(f, g)
    assert table_of(join) == ref_join(f, g)
    assert step_leq(f, g) == ref_leq(f, g)
    # comparable pairs, so that both answers of step_leq are exercised
    assert step_leq(meet, f) and ref_leq(meet, f)
    assert step_leq(f, join) and ref_leq(f, join)


@kernel
@given(st.integers(1, 5).flatmap(lambda count: operands(count=count)))
def test_join_all_matches_pairwise_joins(case):
    _, elems = case
    joined = _join_all(iter(elems))
    assert joined == reduce(step_join, elems)
    if len(elems) == 2:
        assert table_of(joined) == ref_join(*elems)


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


def test_mixed_algebras_rejected_with_old_messages(b4, b2, b8):
    p = b4.atom("p")
    with pytest.raises(ValueError, match="^components must strictly decrease$"):
        StepElem(b4, (0, 1), (b4.one, b2.one))
    with pytest.raises(ValueError, match="^mixed algebras"):
        StepElem(b4, (0, 1), (b2.one, p))
    with pytest.raises(ValueError, match="^component from a different algebra$"):
        StepElem(b4, (0,), (b2.one,))
    with pytest.raises(ValueError, match="^mixed algebras"):
        _assemble(b4, [(0, b4.one), (1, b2.one)])
    with pytest.raises(ValueError, match="^components must strictly decrease$"):
        _assemble(b4, [(0, b8.one), (1, b8.atom("a"))])
    with pytest.raises(ValueError, match="^component from a different algebra$"):
        _assemble(b4, [(0, b2.one), (1, b2.zero)])
    with pytest.raises(ValueError, match="^mixed algebras"):
        from_decomposition(b4, 0, [(1, p), (2, b2.one)])
    with pytest.raises(ValueError, match="^mixed algebras"):
        _join_all([StepElem(b4, (0,), (b4.one,)), StepElem(b2, (0,), (b2.one,))])
    with pytest.raises(ValueError, match="^cannot assemble a step function from no"):
        _join_all([])


def test_equal_algebras_are_one_algebra(b4):
    # an equal algebra built separately is the same algebra, as before
    twin = make_algebra(["p", "q"])
    f = StepElem(b4, (0, 1), (b4.one, twin.atom("p")))
    g = StepElem(twin, (0, 2), (twin.one, twin.atom("p")))
    assert step_leq(f, g)
    assert step_add(f, g) == StepElem(b4, (0, 3), (b4.one, b4.atom("p")))
    assert _assemble(b4, [(0, twin.one), (1, twin.atom("q"))]) == StepElem(
        b4, (0, 1), (b4.one, b4.atom("q"))
    )


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
        _assemble(b4, [(0, b4.one), (1, p), (2, q)])
    with pytest.raises(ValueError, match="^assembly requires the first sampled value to be 1$"):
        _assemble(b4, [(0, p)])
    with pytest.raises(ValueError, match="^cannot assemble a step function from no points$"):
        _assemble(b4, [])
