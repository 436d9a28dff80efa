import itertools
import random
from fractions import Fraction

import pytest

from helpers import _lattice_by_formula
from specker.orthogonal import (
    OrthElem,
    annihilator_idempotent,
    orth_add,
    orth_const,
    orth_embed,
    orth_from_json,
    orth_is_nonneg,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
    orth_neg,
    orth_normalize,
    orth_scale,
    orth_sub,
    orth_to_json,
    orth_unit,
    orth_zero,
)
from specker.pointwise import atom_values, orth_of_pointfn, pointwise_apply, random_pointfn


def test_normalize_examples(b4, s_elem):
    p, q = b4.atom("p"), b4.atom("q")
    assert orth_normalize(b4, [(2, p), (0, q)]) == s_elem
    # coverage completion: the missing atom q gets value 0
    assert orth_normalize(b4, [(2, p)]) == s_elem
    # duplicate values merge by join
    assert orth_normalize(b4, [(1, p), (1, q)]) == orth_unit(b4)
    # zero components are dropped before any checks
    assert orth_normalize(b4, [(2, p), (5, b4.zero)]) == s_elem


def test_normalize_rejects_overlap(b4):
    p = b4.atom("p")
    with pytest.raises(ValueError, match="orthogonal"):
        orth_normalize(b4, [(1, p), (2, p)])
    with pytest.raises(ValueError, match="orthogonal"):
        orth_normalize(b4, [(1, b4.one), (2, p)])


def test_canonical_invariants_enforced(b4):
    p, q = b4.atom("p"), b4.atom("q")
    with pytest.raises(ValueError):
        OrthElem(b4, ((2, p),))  # does not cover 1
    with pytest.raises(ValueError):
        OrthElem(b4, ((2, p), (2, q)))  # duplicate value
    with pytest.raises(ValueError):
        OrthElem(b4, ((1, b4.zero), (0, b4.one)))  # zero component


def test_add_examples(b4, s_elem, t_elem):
    p, q = b4.atom("p"), b4.atom("q")
    assert orth_add(s_elem, t_elem) == orth_normalize(b4, [(5, p), (1, q)])
    assert orth_add(s_elem, orth_zero(b4)) == s_elem
    assert orth_add(s_elem, orth_neg(s_elem)) == orth_zero(b4)


def test_mul_examples(b4, s_elem, t_elem):
    p, q = b4.atom("p"), b4.atom("q")
    assert orth_mul(s_elem, t_elem) == orth_normalize(b4, [(6, p), (0, q)])
    assert orth_mul(s_elem, orth_unit(b4)) == s_elem
    assert orth_mul(s_elem, orth_zero(b4)) == orth_zero(b4)


def test_scale_examples(b4, s_elem, t_elem):
    p, q = b4.atom("p"), b4.atom("q")
    assert orth_scale(3, s_elem) == orth_normalize(b4, [(6, p), (0, q)])
    assert orth_scale(0, t_elem) == orth_zero(b4)
    assert orth_scale(-1, s_elem) == orth_normalize(b4, [(-2, p), (0, q)])


def test_embed_examples(b4):
    p, q = b4.atom("p"), b4.atom("q")
    assert orth_embed(p) == orth_normalize(b4, [(1, p), (0, q)])
    assert orth_embed(b4.one) == orth_unit(b4)
    assert orth_embed(b4.zero) == orth_zero(b4)


def test_nonneg_and_leq_examples(b4, s_elem, t_elem):
    assert orth_is_nonneg(s_elem)
    assert not orth_is_nonneg(orth_scale(-1, s_elem))
    assert orth_is_nonneg(orth_zero(b4))
    assert orth_leq(s_elem, t_elem)
    assert not orth_leq(t_elem, s_elem)
    assert orth_leq(s_elem, s_elem)


def test_meet_join_examples(b4, s_elem, t_elem):
    p, q = b4.atom("p"), b4.atom("q")
    assert orth_meet(s_elem, t_elem) == orth_normalize(b4, [(2, p), (0, q)])
    assert orth_join(s_elem, t_elem) == orth_normalize(b4, [(3, p), (1, q)])
    assert orth_meet(s_elem, s_elem) == s_elem


def test_mixed_algebra_rejected(b4, b2, s_elem):
    other = orth_unit(b2)
    for op in (orth_add, orth_mul, orth_meet, orth_join):
        with pytest.raises(ValueError, match="mixed"):
            op(s_elem, other)
    with pytest.raises(ValueError, match="mixed"):
        orth_leq(s_elem, other)


def test_annihilator_examples(b4, s_elem):
    q = b4.atom("q")
    assert annihilator_idempotent([s_elem]) == q
    assert annihilator_idempotent([orth_unit(b4)]) == b4.zero
    assert annihilator_idempotent([orth_zero(b4)]) == b4.one
    with pytest.raises(ValueError):
        annihilator_idempotent([])


def _all_small_elements(algebra, bound):
    """Every element with atom values in [-bound, bound]."""
    from specker.pointwise import PointFn

    span = range(-bound, bound + 1)
    for values in itertools.product(span, repeat=len(algebra.atoms)):
        yield orth_of_pointfn(PointFn(algebra, values))


def test_annihilator_postconditions_small(b4):
    elems = list(_all_small_elements(b4, 1))
    zero = orth_zero(b4)
    for gens in itertools.combinations(elems, 2):
        e = annihilator_idempotent(list(gens))
        embedded = orth_embed(e)
        assert all(orth_mul(embedded, g) == zero for g in gens)
        for h in elems:
            if all(orth_mul(h, g) == zero for g in gens):
                assert orth_mul(embedded, h) == h


def test_agrees_with_pointwise_oracle(b4, b8):
    rng = random.Random(7)
    for algebra in (b4, b8):
        for _ in range(200):
            pa = random_pointfn(rng, algebra, 10)
            pb = random_pointfn(rng, algebra, 10)
            f, g = orth_of_pointfn(pa), orth_of_pointfn(pb)
            assert orth_add(f, g) == orth_of_pointfn(pointwise_apply("add", [pa, pb]))
            assert orth_mul(f, g) == orth_of_pointfn(pointwise_apply("mul", [pa, pb]))
            b = rng.randint(-10, 10)
            assert orth_scale(b, f) == orth_of_pointfn(
                pointwise_apply("scalar", [pa], scalar=b)
            )
            assert atom_values(orth_sub(f, g)) == pointwise_apply(
                "add", [pa, pointwise_apply("neg", [pb])]
            )


def test_commutative_ring_axioms_random(b4):
    rng = random.Random(11)
    unit = orth_unit(b4)
    zero = orth_zero(b4)
    for _ in range(150):
        f = random_pointfn(rng, b4, 8)
        g = random_pointfn(rng, b4, 8)
        h = random_pointfn(rng, b4, 8)
        f, g, h = map(orth_of_pointfn, (f, g, h))
        assert orth_add(orth_add(f, g), h) == orth_add(f, orth_add(g, h))
        assert orth_add(f, g) == orth_add(g, f)
        assert orth_mul(orth_mul(f, g), h) == orth_mul(f, orth_mul(g, h))
        assert orth_mul(f, g) == orth_mul(g, f)
        assert orth_mul(f, orth_add(g, h)) == orth_add(orth_mul(f, g), orth_mul(f, h))
        assert orth_mul(f, unit) == f
        assert orth_add(f, zero) == f


def test_lattice_algebra_laws_random(b4):
    rng = random.Random(13)
    zero = orth_zero(b4)
    for _ in range(150):
        f = orth_of_pointfn(random_pointfn(rng, b4, 8))
        g = orth_of_pointfn(random_pointfn(rng, b4, 8))
        h = orth_of_pointfn(random_pointfn(rng, b4, 8))
        # lattice laws
        assert orth_meet(f, g) == orth_meet(g, f)
        assert orth_join(f, g) == orth_join(g, f)
        assert orth_meet(f, orth_join(f, g)) == f
        assert orth_join(f, orth_meet(f, g)) == f
        # translation invariance
        if orth_leq(f, g):
            assert orth_leq(orth_add(f, h), orth_add(g, h))
        # positive cone closed under + and *
        fa = orth_join(f, zero)
        ga = orth_join(g, zero)
        assert orth_is_nonneg(orth_add(fa, ga))
        assert orth_is_nonneg(orth_mul(fa, ga))
        # antisymmetry at the cone: P meet -P = {0}
        if orth_is_nonneg(f) and orth_is_nonneg(orth_neg(f)):
            assert f == zero


def test_f_ring_law_on_disjoint_supports(b4):
    rng = random.Random(17)
    zero = orth_zero(b4)
    for _ in range(150):
        split = rng.randint(0, b4.full_mask)
        values_f = [
            rng.randint(1, 8) if split >> i & 1 else 0 for i in range(len(b4.atoms))
        ]
        values_g = [
            0 if split >> i & 1 else rng.randint(1, 8) for i in range(len(b4.atoms))
        ]
        from specker.pointwise import PointFn

        f = orth_of_pointfn(PointFn(b4, tuple(values_f)))
        g = orth_of_pointfn(PointFn(b4, tuple(values_g)))
        h = orth_join(orth_of_pointfn(random_pointfn(rng, b4, 8)), zero)
        assert orth_meet(f, g) == zero
        assert orth_meet(orth_mul(h, f), g) == zero


def test_meet_join_paths_agree(b4, b8):
    rng = random.Random(19)
    for algebra in (b4, b8):
        for _ in range(100):
            f = orth_of_pointfn(random_pointfn(rng, algebra, 8))
            g = orth_of_pointfn(random_pointfn(rng, algebra, 8))
            assert orth_meet(f, g) == _lattice_by_formula(f, g, min)
            assert orth_join(f, g) == _lattice_by_formula(f, g, max)


def test_rational_coefficients(b4):
    p, q = b4.atom("p"), b4.atom("q")
    f = orth_normalize(b4, [(Fraction(1, 2), p), (Fraction(-2, 3), q)])
    g = orth_add(f, f)
    assert g == orth_normalize(b4, [(1, p), (Fraction(-4, 3), q)])
    assert orth_scale(Fraction(2, 1), f) == g
    assert orth_leq(f, orth_join(f, orth_zero(b4)))
    # integer and rational spellings of the same value are the same element
    assert orth_const(b4, Fraction(2, 1)) == orth_const(b4, 2)


def test_json_round_trip(b4, s_elem, t_elem):
    for elem in (s_elem, t_elem, orth_zero(b4), orth_neg(t_elem)):
        assert orth_from_json(b4, orth_to_json(elem)) == elem
    with pytest.raises(ValueError):
        orth_from_json(b4, {"rep": "nope"})
