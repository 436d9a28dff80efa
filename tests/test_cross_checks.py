"""Each operation against a second derivation of the same result.

The library runs one path per operation.  These tests compare that path
with another way to compute the same thing: the atom-value kernel of
orthogonal arithmetic, meet, join and order with the pair refinement of
the convolution formula (and meet and join with ``_lattice_by_formula``),
the atom-value kernel of step multiplication and scaling with transport
through orthogonal form and with the direct step formulas (nonnegative
multiplication also with ``step_mul_nonneg_formula``), the
decompositions with their reconstructions, the order-theoretic
idempotence test with squaring, the sampled related pairs with the
lifted relation, and the lifted action of a morphism with the
decomposition formula ``a0 + sum(b_i * m(e_i))`` and with the
idempotent embedding.  The bijection, meet and join, the annihilator and
the round trip of the lift are compared in ``test_steps.py``,
``test_orthogonal.py`` and ``test_proximity.py``.

Elements are drawn as atom valuations on 1-5 atoms (1-8 for the kernels,
on equal but distinct algebras, with 1..n value classes) with integer or
rational values; relations are ``<=`` (on a finite algebra the only de
Vries proximity); morphisms are boolean homomorphisms drawn as dual atom
maps.
"""

import random
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _lattice_by_formula,
    orth_to_decreasing,
    ref_mul_nonneg,
    ref_orth_by_refinement,
    step_mul_nonneg_formula,
    steps_from_values,
    table_of,
)
from specker.boolalg import make_algebra
from specker.morphisms import DVMorphism, apply_prox_morphism, lift_morphism
from specker.orthogonal import (
    orth_add,
    orth_const,
    orth_is_nonneg,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
    orth_normalize,
    orth_scale,
    orth_sub,
)
from specker.proximity import leq_proximity, lift_check, sample_related_pair
from specker.steps import (
    compatible_decreasing,
    decreasing_decomposition,
    from_decomposition,
    step_const,
    step_embed,
    step_leq,
    step_meet,
    step_mul,
    step_mul_nonneg,
    step_neg,
    step_one,
    step_scale,
    step_scale_pos,
    step_zero,
    to_orth,
    to_steps,
)

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 6)}

ints = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# 0/1 valuations are the idempotents, which random values rarely hit
bits = st.integers(0, 1)
cross = settings(max_examples=60, deadline=None)


@st.composite
def operands(draw, count=2, nonneg=False):
    """An algebra and ``count`` step elements on it, in one scalar domain."""
    algebra = ALGEBRAS[draw(st.integers(1, 5))]
    scalar = draw(st.sampled_from([ints, fractions, bits]))
    if nonneg:
        scalar = scalar.map(abs)
    n = len(algebra.atoms)
    elems = [
        steps_from_values(algebra, draw(st.lists(scalar, min_size=n, max_size=n)))
        for _ in range(count)
    ]
    return algebra, elems


@st.composite
def homomorphisms(draw):
    """A boolean homomorphism between ``<=`` relations on 1-3 atoms."""
    source = ALGEBRAS[draw(st.integers(1, 3))]
    target = ALGEBRAS[draw(st.integers(1, 3))]
    n, m = len(source.atoms), len(target.atoms)
    dual = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    table = tuple(
        sum(1 << t for t, s in enumerate(dual) if mask >> s & 1)
        for mask in range(source.size)
    )
    return DVMorphism(leq_proximity(source), leq_proximity(target), table)


@st.composite
def orth_pairs(draw, nonneg=False):
    """Two orthogonal elements on 1-8 atoms, of equal but distinct algebras.

    Each takes exactly k distinct values for a drawn k in 1..n; the values
    are integers, rationals, or both mixed, and nonnegative if asked.
    """
    n = draw(st.integers(1, 8))
    names = [f"a{i}" for i in range(n)]
    scalar = draw(st.sampled_from([ints, fractions, st.one_of(ints, fractions)]))
    if nonneg:
        scalar = scalar.map(abs)
    elems = []
    for algebra in (make_algebra(names), make_algebra(names)):
        k = draw(st.integers(1, n))
        values = draw(st.lists(scalar, min_size=k, max_size=k, unique=True))
        classes = list(range(k)) + draw(
            st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k)
        )
        classes = draw(st.permutations(classes))
        elems.append(
            orth_normalize(
                algebra, [(values[c], algebra.atom(a)) for c, a in zip(classes, names)]
            )
        )
    return elems


@settings(max_examples=150, deadline=None)
@given(orth_pairs())
def test_orth_kernel_matches_pair_refinement(pair):
    f, g = pair
    assert f.algebra is not g.algebra
    assert orth_add(f, g) == ref_orth_by_refinement(f, g, add)
    assert orth_sub(f, g) == ref_orth_by_refinement(f, g, sub)
    assert orth_mul(f, g) == ref_orth_by_refinement(f, g, mul)
    for op, pick in ((orth_meet, min), (orth_join, max)):
        result = op(f, g)
        assert result == ref_orth_by_refinement(f, g, pick)
        assert result == _lattice_by_formula(f, g, pick)
    assert orth_leq(f, g) == orth_is_nonneg(ref_orth_by_refinement(g, f, sub))
    assert orth_leq(f, f) and orth_leq(g, f) == (orth_meet(f, g) == g)


@pytest.mark.parametrize(
    "op", [orth_add, orth_sub, orth_mul, orth_meet, orth_join, orth_leq]
)
def test_orth_kernel_rejects_mixed_algebras(op):
    # same atom count, other names: the atom values would line up
    f = orth_const(make_algebra(["p", "q"]), 1)
    g = orth_const(make_algebra(["p", "r"]), 2)
    with pytest.raises(ValueError, match="^mixed algebras: operands belong to"):
        op(f, g)
    with pytest.raises(ValueError, match="^mixed algebras: operands belong to"):
        ref_orth_by_refinement(f, g, add)


@settings(max_examples=150, deadline=None)
@given(orth_pairs(nonneg=True))
def test_step_mul_nonneg_matches_formula_and_reference(pair):
    s, t = map(to_steps, pair)
    assert s.algebra is not t.algebra
    result = step_mul_nonneg(s, t)
    assert result == step_mul_nonneg_formula(s, t)
    assert table_of(result) == ref_mul_nonneg(s, t)
    assert result == to_steps(orth_mul(*pair))


@settings(max_examples=150, deadline=None)
@given(orth_pairs(), st.one_of(ints, fractions))
def test_step_mul_and_scale_match_transport(pair, b):
    f, g = pair
    s, t = to_steps(f), to_steps(g)
    assert to_orth(s) == f and to_orth(t) == g
    assert step_mul(s, t) == to_steps(orth_mul(f, g))
    assert step_scale(b, s) == to_steps(orth_scale(b, f))


@pytest.mark.parametrize("op", [step_mul, step_mul_nonneg, step_mul_nonneg_formula])
def test_step_products_reject_mixed_algebras(op):
    # same atom count, other names: the atom values would line up
    f = step_const(make_algebra(["p", "q"]), 1)
    g = step_const(make_algebra(["p", "r"]), 2)
    with pytest.raises(ValueError, match="^mixed algebras: operands belong to"):
        op(f, g)


def test_step_mul_nonneg_rejects_a_negative_factor():
    b4 = make_algebra(["p", "q"])
    positive = step_const(b4, 2)
    negative = to_steps(orth_normalize(b4, [(-1, b4.atom("p")), (3, b4.atom("q"))]))
    message = "^both factors must be nonnegative; use step_mul instead$"
    for f, g in ((negative, positive), (positive, negative)):
        with pytest.raises(ValueError, match=message):
            step_mul_nonneg(f, g)


@cross
@given(operands(nonneg=True))
def test_step_mul_matches_mul_nonneg(case):
    _, (f, g) = case
    assert step_mul(f, g) == step_mul_nonneg(f, g)


@cross
@given(operands(count=1), st.one_of(ints, fractions))
def test_step_scale_matches_scale_pos_and_neg(case, b):
    _, (f,) = case
    if b > 0:
        assert step_scale(b, f) == step_scale_pos(b, f)
    elif b < 0:
        assert step_scale(b, f) == step_neg(step_scale_pos(-b, f))
    assert step_scale(-1, f) == step_neg(f)


@cross
@given(operands(count=1))
def test_decreasing_decomposition_round_trip(case):
    algebra, (f,) = case
    a0, pairs = decreasing_decomposition(f)
    assert from_decomposition(algebra, a0, pairs) == f
    assert all(b > 0 for b, _ in pairs)
    idems = [algebra.one] + [e for _, e in pairs]
    assert all(
        later <= earlier and later != earlier
        for earlier, later in zip(idems, idems[1:])
    )


@cross
@given(operands(count=1))
def test_orth_to_decreasing_matches_step_decomposition(case):
    algebra, (f,) = case
    decomposition = orth_to_decreasing(to_orth(f))
    assert decomposition == decreasing_decomposition(f)
    assert from_decomposition(algebra, *decomposition) == f


@cross
@given(operands())
def test_compatible_decreasing_reconstructs_both(case):
    algebra, (s, t) = case
    shared = compatible_decreasing(s, t)
    grid = shared.thresholds
    assert set(s.thresholds) | set(t.thresholds) <= set(grid)
    assert list(grid) == sorted(set(grid))
    zero = step_zero(algebra)
    if step_leq(zero, s) and step_leq(zero, t):
        assert grid[0] == 0
    for elem, values in ((s, shared.left), (t, shared.right)):
        assert values[0].is_one
        pairs = [(grid[i] - grid[i - 1], values[i]) for i in range(1, len(grid))]
        assert from_decomposition(algebra, grid[0], pairs) == elem


@cross
@given(operands(count=1))
def test_is_idempotent_matches_orth_square(case):
    algebra, (f,) = case
    g = to_orth(f)
    idempotent = step_meet(step_scale_pos(2, f), step_one(algebra)) == f
    assert idempotent == (orth_mul(g, g) == g)


@cross
@given(
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.booleans(),
)
def test_sample_related_pair_is_related(atoms, seed, coeff_bound, nonneg):
    rel = leq_proximity(ALGEBRAS[atoms])
    s, t = sample_related_pair(random.Random(seed), rel, coeff_bound, nonneg=nonneg)
    assert lift_check(rel, s, t)
    if nonneg:
        zero = step_zero(rel.algebra)
        assert step_leq(zero, s) and step_leq(zero, t)


@cross
@given(homomorphisms())
def test_lift_morphism_square_with_embedding(m):
    pm = lift_morphism(m)
    for e in m.source.algebra.elements():
        assert pm.action(step_embed(e)) == step_embed(m.apply(e))


@cross
@given(homomorphisms(), st.data())
def test_lifted_action_matches_decomposition_formula(m, data):
    pm = lift_morphism(m)
    n = len(m.source.algebra.atoms)
    scalar = data.draw(st.sampled_from([ints, fractions]))
    f = steps_from_values(
        m.source.algebra, data.draw(st.lists(scalar, min_size=n, max_size=n))
    )
    a0, pairs = decreasing_decomposition(f)
    expected = from_decomposition(
        m.target.algebra, a0, [(b, m.apply(e)) for b, e in pairs]
    )
    assert apply_prox_morphism(pm, f) == expected
