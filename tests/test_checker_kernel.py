"""The mask-based checkers of ``specker.proximity`` and ``specker.morphisms``
against the eager object-based reference in ``helpers``.

Relations and morphism tables are drawn at random over 1-3 atoms, most of
them not de Vries proximities and not homomorphisms, so that every axiom
fails somewhere and the counterexamples are compared too.  The lifted
check is compared on step elements with integer or rational thresholds.
The M4 verdict is compared on ``<=`` over 1-4 atoms, for lifted
homomorphisms and for actions broken on purpose, with the object-based
join of the same draws and with the walk of every combination, and its
memory is bounded where it draws a few of 2^20 combinations.
"""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    m4_holds,
    m4_outcomes,
    ref_approximant_join,
    ref_full_approximant_join,
    ref_check_devries,
    ref_check_dv_morphism,
    ref_lift_check,
    ref_star_compose_table,
    result_of,
    steps_from_values,
    within,
)
from specker.boolalg import _MIXED, make_algebra
from specker.morphisms import (
    DVMorphism,
    ProxMorphism,
    _APPROXIMANT_DRAWS,
    _compose_with_steps,
    _drawn_approximants,
    _dv_ok,
    check_dv_morphism,
    star_compose_dv,
)
from specker.proximity import ProxRel, check_devries, leq_proximity, lift_check
from specker.steps import (
    step_add,
    step_const,
    step_neg,
    step_one,
    step_zero,
)

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 6)}

ints = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
kernel = settings(max_examples=80, deadline=None)


def _leq_pairs(size: int) -> set[tuple[int, int]]:
    return {(e, f) for e in range(size) for f in range(size) if e & f == e}


@st.composite
def relations(draw, max_atoms=3):
    """A relation near ``<=`` (a few pairs toggled) or an arbitrary one."""
    algebra = ALGEBRAS[draw(st.integers(1, max_atoms))]
    size = algebra.size
    every = [(e, f) for e in range(size) for f in range(size)]
    if draw(st.booleans()):
        pairs = _leq_pairs(size) ^ set(
            draw(st.lists(st.sampled_from(every), max_size=3))
        )
    else:
        pairs = set(draw(st.lists(st.sampled_from(every), max_size=2 * size)))
    return ProxRel(algebra, frozenset(pairs))


def _hom_table(draw, source, target) -> list[int]:
    """The table of a boolean homomorphism, from a drawn dual atom map."""
    n, m = len(source.algebra.atoms), len(target.algebra.atoms)
    dual = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return [
        sum(1 << t for t, s in enumerate(dual) if mask >> s & 1)
        for mask in range(source.algebra.size)
    ]


@st.composite
def morphisms(draw):
    source = draw(relations())
    target = draw(relations())
    limit = target.algebra.size
    if draw(st.booleans()):
        # a boolean homomorphism with entries changed
        table = _hom_table(draw, source, target)
        for spot in draw(st.lists(st.integers(0, len(table) - 1), max_size=2)):
            table[spot] = draw(st.integers(0, limit - 1))
    else:
        table = draw(
            st.lists(
                st.integers(0, limit - 1),
                min_size=source.algebra.size,
                max_size=source.algebra.size,
            )
        )
    return DVMorphism(source, target, tuple(table))


@kernel
@given(relations())
def test_check_devries_matches_reference(rel):
    assert check_devries(rel) == ref_check_devries(rel)


def test_check_devries_matches_reference_on_leq():
    for algebra in ALGEBRAS.values():
        rel = leq_proximity(algebra)
        assert check_devries(rel) == ref_check_devries(rel)


@kernel
@given(morphisms())
def test_check_dv_morphism_matches_reference(m):
    assert check_dv_morphism(m) == ref_check_dv_morphism(m)


@kernel
@given(morphisms())
def test_morphism_gate_matches_the_checkers(m):
    endpoints = check_devries(m.source).ok and check_devries(m.target).ok
    assert _dv_ok(m) is (endpoints and check_dv_morphism(m).ok)


@st.composite
def composable(draw):
    """``(m1, m2)`` with ``m1.target == m2.source``: two homomorphisms
    between ``<=`` on 1-3 atoms, which the gate passes, or two draws of
    :func:`morphisms`, which it mostly refuses."""
    if draw(st.booleans()):
        a, b, c = (leq_proximity(ALGEBRAS[draw(st.integers(1, 3))]) for _ in range(3))
        m1 = DVMorphism(a, b, tuple(_hom_table(draw, a, b)))
        return m1, DVMorphism(b, c, tuple(_hom_table(draw, b, c)))
    m1, m2 = draw(morphisms()), draw(morphisms())
    # re-home m2 on m1's target (its table cycled to the new size)
    size = m1.target.algebra.size
    table = tuple(m2.table[i % len(m2.table)] for i in range(size))
    return m1, DVMorphism(m1.target, m2.target, table)


@kernel
@given(composable())
def test_star_compose_matches_reference(pair):
    m1, m2 = pair
    refused = [m for m in (m2, m1) if not _dv_ok(m)]
    if not refused:
        assert star_compose_dv(m2, m1).table == ref_star_compose_table(m2, m1)
        return
    # the first refused operand names why: its M1-M4, else an endpoint
    report = check_dv_morphism(refused[0])
    message = "invalid source morphism" if not report.ok else "not a de Vries proximity"
    with pytest.raises(ValueError, match=message):
        star_compose_dv(m2, m1)


def test_leq_proximity_is_the_order():
    for algebra in ALGEBRAS.values():
        rel, pairs = leq_proximity(algebra), _leq_pairs(algebra.size)
        # stored by its definition, and read as its pairs
        assert rel.pairs is None and ProxRel(algebra, pairs) == rel
        assert [rel.pair_at(k) for k in range(rel.count())] == sorted(pairs)
        masks = range(algebra.size)
        assert all(rel.has(e, f) == ((e, f) in pairs) for e in masks for f in masks)


@st.composite
def lift_operands(draw):
    """``<=`` on 1-4 atoms and two step elements on it, in one scalar domain."""
    algebra = ALGEBRAS[draw(st.integers(1, 4))]
    scalar = draw(st.sampled_from([ints, fractions]))
    n = len(algebra.atoms)
    values = st.lists(scalar, min_size=n, max_size=n)
    s_values = draw(values)
    if draw(st.booleans()):
        # raise every value, so the pair is related under <=
        t_values = [v + abs(draw(scalar)) for v in s_values]
    else:
        t_values = draw(values)
    return (
        leq_proximity(algebra),
        steps_from_values(algebra, s_values),
        steps_from_values(algebra, t_values),
    )


@kernel
@given(lift_operands())
def test_lift_check_matches_value_reference(case):
    rel, s, t = case
    assert lift_check(rel, s, t) == ref_lift_check(rel, s, t)
    assert lift_check(rel, t, s) == ref_lift_check(rel, t, s)


def test_lift_check_rejects_mixed_algebras(b4):
    other = make_algebra(["x", "y"])
    rel = leq_proximity(b4)
    s = steps_from_values(b4, [0, 1])
    foreign = steps_from_values(other, [0, 1])
    message = "^mixed algebras: operands belong to different algebras$"
    for left, right in ((s, foreign), (foreign, s), (foreign, foreign)):
        with pytest.raises(ValueError, match=message):
            lift_check(rel, left, right)
        with pytest.raises(ValueError, match=message):
            ref_lift_check(rel, left, right)
    # an equal algebra built separately is the same algebra
    twin = steps_from_values(make_algebra(["p", "q"]), [2, 1])
    assert lift_check(rel, s, twin) == ref_lift_check(rel, s, twin) is True


def _broken(kind: str, lifted, target):
    """An action that is not a proximity morphism, of the given kind."""
    if kind == "shifted":
        return lambda f: step_add(lifted(f), step_one(target))
    if kind == "negated":
        return lambda f: step_neg(lifted(f))
    if kind == "constant":
        return lambda f: step_const(target, f.thresholds[-1])
    # an image in another algebra once the argument has three steps or more
    foreign = ALGEBRAS[5]
    return lambda f: step_zero(foreign) if len(f.thresholds) > 2 else lifted(f)


_KINDS = ("lifted", "table", "shifted", "negated", "constant", "mixed")


@st.composite
def approximant_cases(draw):
    """A morphism action on ``<=`` over 1-4 atoms, an element, a seed."""
    source = leq_proximity(ALGEBRAS[draw(st.integers(1, 4))])
    target = leq_proximity(ALGEBRAS[draw(st.integers(1, 3))])
    n = len(source.algebra.atoms)
    table = _hom_table(draw, source, target)
    kind = draw(st.sampled_from(_KINDS))
    if kind == "table":
        # the stepwise action of a table that is no homomorphism
        spots = st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=2)
        for spot in draw(spots):
            table[spot] = draw(st.integers(0, target.algebra.size - 1))
    action = _compose_with_steps(DVMorphism(source, target, tuple(table)))
    if kind not in ("lifted", "table"):
        action = _broken(kind, action, target.algebra)
    scalar = draw(st.sampled_from([ints, fractions]))
    values = draw(st.lists(scalar, min_size=n, max_size=n))
    return (
        ProxMorphism(source, target, action, label=kind),
        steps_from_values(source.algebra, values),
        draw(st.integers(0, 2**32)),
    )


def _assert_m4_as_reference(pm, t, seed):
    """M4's verdict on ``t``, held to ``ref_approximant_join(...) ==
    action(t)``: the same verdict, the action run on the same elements in
    the same order, at most ``_APPROXIMANT_DRAWS + 1`` of them, and the
    random stream moved alike."""
    (verdict, state, ran), (expected, expected_state, expected_ran) = m4_outcomes(
        pm, t, seed
    )
    assert verdict == expected
    assert state == expected_state
    assert ran == expected_ran
    assert [str(f) for f in ran] == [str(f) for f in expected_ran]
    assert 0 < len(ran) <= _APPROXIMANT_DRAWS + 1
    return verdict


@kernel
@given(approximant_cases())
def test_approximant_join_matches_reference(case):
    _assert_m4_as_reference(*case)


def test_approximant_join_draws_without_listing_the_product():
    # on <= over 7 atoms, a t whose components hold 6, 5, 4, 3 and 2 atoms
    # has 2^6 * 2^5 * 2^4 * 2^3 * 2^2 = 2^20 approximant combinations;
    # listed, they would take some 90 MB
    source = leq_proximity(make_algebra([f"a{i}" for i in range(7)]))
    identity = DVMorphism(source, source, tuple(range(source.algebra.size)))
    pm = ProxMorphism(source, source, _compose_with_steps(identity))
    t = steps_from_values(source.algebra, [0, 1, 2, 3, 4, 5, 5])
    tracemalloc.start()
    try:
        verdict = m4_holds(pm, t, random.Random(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # every approximant's image lies below the image of t
    assert verdict is True
    assert _assert_m4_as_reference(pm, t, 3) is True


@kernel
@given(approximant_cases())
def test_a_drawn_join_fails_only_where_the_full_walk_fails(case):
    # the full combination builds t, so the full join is the action
    # exactly when every approximant's image lies below it
    pm, t, seed = case
    action = result_of(pm.action, t)
    verdict = _assert_m4_as_reference(pm, t, seed)
    full = result_of(ref_full_approximant_join, pm, t)
    if verdict is False:
        assert full != action
    if pm.label == "lifted":
        assert verdict is True and full == action


def test_m4_refuses_mixed_images_before_it_compares_any():
    # the first approximant's image is not below the image of t, and the
    # next is of another algebra: the verdict is the refusal, as the
    # reference's join of all the images gives it
    source = leq_proximity(ALGEBRAS[3])
    t = steps_from_values(source.algebra, [0, 1, 2])
    assert len(_drawn_approximants(t, random.Random(0))) >= 2

    def in_turn():
        images = iter([step_zero(ALGEBRAS[1]), step_one(ALGEBRAS[1])])
        return ProxMorphism(source, source, lambda f: next(images, step_zero(ALGEBRAS[2])))

    for decide in (m4_holds, ref_approximant_join):
        with pytest.raises(ValueError, match=f"^{re.escape(_MIXED)}$"):
            decide(in_turn(), t, random.Random(0))


def test_approximant_join_past_sys_maxsize():
    # a full chain on 12 atoms: components of 11, 10, ..., 1 atoms under <=
    # make 2^66 approximant combinations, more than an index range can hold
    source = leq_proximity(make_algebra([f"a{i}" for i in range(12)]))
    identity = DVMorphism(source, source, tuple(range(source.algebra.size)))
    pm = ProxMorphism(source, source, _compose_with_steps(identity))
    t = steps_from_values(source.algebra, list(range(12)))
    with within(30):
        assert _assert_m4_as_reference(pm, t, 5) is True
