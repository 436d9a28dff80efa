import random
from fractions import Fraction

import pytest

from helpers import orth_to_decreasing
from specker.orthogonal import (
    orth_add,
    orth_const,
    orth_embed,
    orth_mul,
    orth_normalize,
    orth_scale,
    orth_zero,
)
from specker.pointwise import (
    orth_of_pointfn,
    random_pointfn,
    steps_of_pointfn,
)
from specker.steps import (
    StepElem,
    compatible_decreasing,
    decreasing_decomposition,
    from_decomposition,
    step_add,
    step_const,
    step_embed,
    step_from_json,
    step_join,
    step_leq,
    step_meet,
    step_mul,
    step_mul_nonneg,
    step_neg,
    step_one,
    step_scale,
    step_scale_pos,
    step_sub,
    step_to_json,
    step_zero,
    to_orth,
    to_steps,
)


@pytest.fixture
def s_steps(s_elem):
    return to_steps(s_elem)


@pytest.fixture
def t_steps(t_elem):
    return to_steps(t_elem)


def test_canonical_invariants_enforced(b4):
    p, q = b4.atom("p"), b4.atom("q")
    with pytest.raises(ValueError):
        StepElem(b4, (0, 1), (b4.one, b4.one))  # not strictly decreasing
    with pytest.raises(ValueError):
        StepElem(b4, (1, 0), (b4.one, p))  # thresholds out of order
    with pytest.raises(ValueError):
        StepElem(b4, (0,), (p,))  # first component must be 1
    with pytest.raises(ValueError):
        StepElem(b4, (0, 1), (b4.one, b4.zero))  # trailing zero component
    with pytest.raises(ValueError):
        StepElem(b4, (0, 1), (b4.one, q | p))  # q|p is 1, not a decrease


def test_to_steps_examples(b4, s_elem, s_steps):
    p = b4.atom("p")
    assert s_steps.thresholds == (0, 2)
    assert s_steps.idems == (b4.one, p)
    assert to_steps(orth_zero(b4)) == step_zero(b4)
    assert to_steps(orth_embed(p)) == StepElem(b4, (0, 1), (b4.one, p))


def test_to_orth_examples(b4, s_elem, t_elem, s_steps, t_steps):
    assert to_orth(s_steps) == s_elem
    assert to_orth(step_zero(b4)) == orth_zero(b4)
    # the non-top class at the lowest value is the complement of the next step
    assert to_orth(t_steps) == t_elem


def test_step_value_convention(b4, t_steps):
    p = b4.atom("p")
    assert t_steps.value(-5) == b4.one
    assert t_steps.value(1) == b4.one
    assert t_steps.value(2) == p
    assert t_steps.value(3) == p
    assert t_steps.value(4) == b4.zero
    assert t_steps.value(Fraction(3, 2)) == p


def test_add_examples(b4, s_steps, t_steps):
    p = b4.atom("p")
    total = step_add(s_steps, t_steps)
    assert total == StepElem(b4, (1, 5), (b4.one, p))
    assert step_add(s_steps, step_zero(b4)) == s_steps
    assert step_add(s_steps, step_neg(s_steps)) == step_zero(b4)


def test_scale_pos_examples(b4, s_steps, t_steps):
    p = b4.atom("p")
    assert step_scale_pos(3, s_steps) == StepElem(b4, (0, 6), (b4.one, p))
    assert step_scale_pos(1, s_steps) == s_steps
    assert step_scale_pos(2, t_steps) == StepElem(b4, (2, 6), (b4.one, p))
    with pytest.raises(ValueError):
        step_scale_pos(0, s_steps)
    with pytest.raises(ValueError):
        step_scale_pos(-2, s_steps)


def test_mul_nonneg_examples(b4, s_steps, t_steps):
    p = b4.atom("p")
    assert step_mul_nonneg(s_steps, t_steps) == StepElem(b4, (0, 6), (b4.one, p))
    assert step_mul_nonneg(s_steps, step_one(b4)) == s_steps
    assert step_mul_nonneg(s_steps, step_zero(b4)) == step_zero(b4)
    with pytest.raises(ValueError, match="nonnegative"):
        step_mul_nonneg(step_neg(s_steps), t_steps)


def test_neg_examples(b4, s_steps, t_steps):
    q = b4.atom("q")
    assert step_neg(s_steps) == StepElem(b4, (-2, 0), (b4.one, q))
    assert step_neg(step_zero(b4)) == step_zero(b4)
    assert step_neg(step_neg(t_steps)) == t_steps


def test_general_ops_examples(b4, s_steps, t_steps):
    assert step_scale(-1, s_steps) == step_neg(s_steps)
    assert step_mul(s_steps, t_steps) == step_mul_nonneg(s_steps, t_steps)
    assert step_scale(-2, step_one(b4)) == step_const(b4, -2)
    assert step_scale(0, t_steps) == step_zero(b4)


def test_meet_join_leq_examples(b4, s_steps, t_steps):
    p = b4.atom("p")
    assert step_meet(s_steps, t_steps) == StepElem(b4, (0, 2), (b4.one, p))
    assert step_join(s_steps, t_steps) == t_steps
    assert step_leq(s_steps, t_steps)
    assert not step_leq(t_steps, s_steps)
    assert step_leq(s_steps, s_steps)


def test_mixed_algebra_rejected(b4, b2, s_steps):
    other = step_one(b2)
    for op in (step_add, step_meet, step_join, step_mul):
        with pytest.raises(ValueError, match="mixed"):
            op(s_steps, other)
    with pytest.raises(ValueError, match="mixed"):
        step_leq(s_steps, other)


def test_decomposition_examples(b4, s_steps, t_steps):
    p = b4.atom("p")
    assert decreasing_decomposition(s_steps) == (0, ((2, p),))
    assert decreasing_decomposition(t_steps) == (1, ((2, p),))
    assert decreasing_decomposition(step_zero(b4)) == (0, ())


def test_orth_to_decreasing_examples(b4, s_elem, t_elem):
    p = b4.atom("p")
    assert orth_to_decreasing(s_elem) == (0, ((2, p),))
    assert orth_to_decreasing(t_elem) == (1, ((2, p),))
    assert orth_to_decreasing(orth_const(b4, 5)) == (5, ())


def test_compatible_decreasing_examples(b4, s_steps, t_steps):
    p = b4.atom("p")
    shared = compatible_decreasing(s_steps, t_steps)
    assert shared.thresholds == (0, 1, 2, 3)
    assert shared.left == (b4.one, p, p, b4.zero)
    assert shared.right == (b4.one, b4.one, p, p)

    own = compatible_decreasing(s_steps, s_steps)
    assert own.thresholds == s_steps.thresholds

    consts = compatible_decreasing(step_zero(b4), step_one(b4))
    assert consts.thresholds == (0, 1)


def test_compatible_decreasing_negative_bound(b4, s_steps):
    low = step_const(b4, -3)
    shared = compatible_decreasing(s_steps, low)
    assert shared.thresholds[0] == -3


def test_is_idempotent_iff_squares(b4):
    # order-theoretic idempotence, f == (2 f) meet 1, is f * f == f
    def idempotent(f):
        return step_meet(step_scale_pos(2, f), step_one(b4)) == f

    rng = random.Random(23)
    for e in b4.elements():
        assert idempotent(step_embed(e))
    hits = 0
    for _ in range(100):
        f = steps_of_pointfn(random_pointfn(rng, b4, 6))
        g = to_orth(f)
        expected = orth_mul(g, g) == g
        assert idempotent(f) == expected
        hits += 0 if expected else 1
    assert hits > 50  # the sample actually exercises non-idempotents


def test_triangle_identity_random(b4, b8):
    rng = random.Random(29)
    for algebra in (b4, b8):
        for _ in range(200):
            pf = random_pointfn(rng, algebra, 10)
            orth = orth_of_pointfn(pf)
            # step form built independently from sorted values and tail unions
            assert to_steps(orth) == steps_of_pointfn(pf)
            assert to_orth(to_steps(orth)) == orth
            g = steps_of_pointfn(pf)
            assert to_steps(to_orth(g)) == g


def _gap_pair(rng, values, bound):
    """Scalars a < b with no element value strictly between them."""
    while True:
        a = rng.randint(-bound - 3, bound + 3)
        b = rng.randint(-bound - 3, bound + 3)
        if a >= b:
            continue
        if not any(a < v < b for v in values):
            return a, b


def test_truncation_identity(b4):
    rng = random.Random(31)
    for _ in range(200):
        orth = orth_of_pointfn(random_pointfn(rng, b4, 6))
        f = to_steps(orth)
        a, b = _gap_pair(rng, orth.values(), 6)
        clipped_high = step_meet(f, step_const(b4, b))
        clipped_low = step_meet(f, step_const(b4, a))
        left = step_sub(clipped_high, clipped_low)
        right = step_scale(b - a, step_embed(f.value(b)))
        assert left == right


def test_direct_formulas_match_transport(b4):
    rng = random.Random(37)
    for _ in range(200):
        pa = random_pointfn(rng, b4, 10)
        pb = random_pointfn(rng, b4, 10)
        f, g = steps_of_pointfn(pa), steps_of_pointfn(pb)
        assert step_add(f, g) == to_steps(orth_add(to_orth(f), to_orth(g)))
        assert step_neg(f) == to_steps(orth_scale(-1, to_orth(f)))
        b = rng.randint(1, 10)
        assert step_scale_pos(b, f) == to_steps(orth_scale(b, to_orth(f)))
        fa = step_join(f, step_zero(b4))
        ga = step_join(g, step_zero(b4))
        assert step_mul_nonneg(fa, ga) == to_steps(
            orth_mul(to_orth(fa), to_orth(ga))
        )


def test_pointwise_order_matches_orth_order(b4):
    rng = random.Random(41)
    for _ in range(200):
        f = orth_of_pointfn(random_pointfn(rng, b4, 8))
        g = orth_of_pointfn(random_pointfn(rng, b4, 8))
        from specker.orthogonal import orth_leq

        assert step_leq(to_steps(f), to_steps(g)) == orth_leq(f, g)


def test_from_decomposition_round_trip(b4):
    rng = random.Random(43)
    for _ in range(100):
        f = steps_of_pointfn(random_pointfn(rng, b4, 8))
        a0, pairs = decreasing_decomposition(f)
        assert from_decomposition(b4, a0, pairs) == f
        assert all(b > 0 for b, _ in pairs)
        idems = [e for _, e in pairs]
        assert all(
            later <= earlier and later != earlier
            for earlier, later in zip(idems, idems[1:])
        )


def test_rational_thresholds(b4):
    p = b4.atom("p")
    f = to_steps(orth_normalize(b4, [(Fraction(1, 2), p)]))
    assert f.thresholds == (0, Fraction(1, 2))
    doubled = step_scale_pos(2, f)
    assert doubled.thresholds == (0, 1)
    assert step_leq(f, doubled)


def test_json_round_trip(b4, s_steps, t_steps):
    for elem in (s_steps, t_steps, step_zero(b4), step_neg(t_steps)):
        assert step_from_json(b4, step_to_json(elem)) == elem
    # non-canonical input (repeated component) is merged on load
    obj = {
        "rep": "flat",
        "steps": [
            {"upto": "0", "idem": "1"},
            {"upto": "1", "idem": ["p"]},
            {"upto": "2", "idem": ["p"]},
        ],
    }
    assert step_from_json(b4, obj) == step_from_json(
        b4, {"rep": "flat", "steps": [{"upto": "0", "idem": "1"}, {"upto": "2", "idem": ["p"]}]}
    )
    with pytest.raises(ValueError):
        step_from_json(b4, {"rep": "flat", "steps": [{"upto": "2", "idem": ["p"]}]})
