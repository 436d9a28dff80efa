"""The mask-based checkers of ``specker.proximity`` and ``specker.morphisms``
against the eager object-based reference in ``helpers``.

Relations and morphism tables are drawn at random over 1-3 atoms, most of
them not de Vries proximities and not homomorphisms, so that every axiom
fails somewhere and the counterexamples are compared too.  The lifted
check is compared on step elements with integer or rational thresholds.
The M4 approximant join is compared on ``<=`` over 1-4 atoms, for lifted
homomorphisms and for actions broken on purpose, with the same draws on
objects and with the walk of every combination, and its memory is
bounded where it draws a few of 2^20 combinations.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ref_approximant_join,
    ref_full_approximant_join,
    ref_check_devries,
    ref_check_dv_morphism,
    ref_lift_check,
    ref_star_compose_table,
    steps_from_values,
    within,
)
from specker.boolalg import make_algebra
from specker.morphisms import (
    DVMorphism,
    ProxMorphism,
    _approximant_join,
    _compose_with_steps,
    _dv_ok,
    check_dv_morphism,
    star_compose_dv,
)
from specker.proximity import ProxRel, check_devries, leq_proximity, lift_check
from specker.steps import (
    StepElem,
    step_add,
    step_const,
    step_leq,
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


def _result(call, *args):
    """What ``call`` returns, or the arguments of the ``ValueError`` it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return exc.args


def _outcome(join, pm, t, seed):
    rng = random.Random(seed)
    return _result(join, pm, t, rng), rng.getstate()


def _recorded(pm):
    """``pm`` with an action that also lists each element it runs on."""
    ran = []

    def action(f):
        ran.append(f)
        return pm.action(f)

    return ProxMorphism(pm.source, pm.target, action, label=pm.label), ran


@kernel
@given(approximant_cases())
def test_approximant_join_matches_reference(case):
    pm, t, seed = case
    library, ran = _recorded(pm)
    reference, expected_ran = _recorded(pm)
    joined, state = _outcome(_approximant_join, library, t, seed)
    expected, expected_state = _outcome(ref_approximant_join, reference, t, seed)
    assert joined == expected
    assert str(joined) == str(expected)
    # the same combinations are drawn, in the same order, and the random
    # stream moves alike
    assert ran == expected_ran
    assert [str(f) for f in ran] == [str(f) for f in expected_ran]
    assert state == expected_state


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
        joined = _approximant_join(pm, t, random.Random(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the full combination is t itself, and every approximant lies below it
    assert joined == t


@kernel
@given(approximant_cases())
def test_a_drawn_join_fails_only_where_the_full_walk_fails(case):
    # the full combination builds t, so the drawn join lies above the
    # action, and only an approximant whose image does not can lift it
    pm, t, seed = case
    action = _result(pm.action, t)
    drawn, _ = _outcome(_approximant_join, pm, t, seed)
    full = _result(ref_full_approximant_join, pm, t)
    if drawn != action:
        assert full != action
    if isinstance(action, StepElem) and isinstance(drawn, StepElem):
        assert step_leq(action, drawn)
    if pm.label == "lifted":
        assert drawn == full == action


def test_approximant_join_past_sys_maxsize():
    # a full chain on 12 atoms: components of 11, 10, ..., 1 atoms under <=
    # make 2^66 approximant combinations, more than an index range can hold
    source = leq_proximity(make_algebra([f"a{i}" for i in range(12)]))
    identity = DVMorphism(source, source, tuple(range(source.algebra.size)))
    pm = ProxMorphism(source, source, _compose_with_steps(identity))
    t = steps_from_values(source.algebra, list(range(12)))
    with within(30):
        assert _approximant_join(pm, t, random.Random(5)) == pm.action(t)
