"""The mask-based checkers of ``specker.proximity`` and ``specker.morphisms``
against the eager object-based reference in ``helpers``.

Relations and morphism tables are drawn at random over 1-3 atoms, most of
them not de Vries proximities and not homomorphisms, so that every axiom
fails somewhere and the counterexamples are compared too.  The lifted
check is compared on step elements with integer or rational thresholds.
The M4 approximant join is compared on ``<=`` over 1-4 atoms, for lifted
homomorphisms and for actions broken on purpose.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ref_approximant_join,
    ref_check_devries,
    ref_check_dv_morphism,
    ref_lift_check,
    ref_star_compose_table,
    steps_from_values,
)
from specker.boolalg import make_algebra
from specker.morphisms import (
    DVMorphism,
    ProxMorphism,
    _approximant_join,
    _compose_with_steps,
    check_dv_morphism,
    star_compose_dv,
)
from specker.proximity import ProxRel, check_devries, leq_proximity, lift_check
from specker.steps import step_add, step_const, step_neg, step_one, step_zero

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


@st.composite
def morphisms(draw):
    source = draw(relations())
    target = draw(relations())
    limit = target.algebra.size
    if draw(st.booleans()):
        # a boolean homomorphism, from its dual atom map, with entries changed
        n, m = len(source.algebra.atoms), len(target.algebra.atoms)
        dual = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        table = [
            sum(1 << t for t, s in enumerate(dual) if mask >> s & 1)
            for mask in range(source.algebra.size)
        ]
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
@given(morphisms(), morphisms())
def test_star_compose_matches_reference(m1, m2):
    # re-home m2 on m1's target (its table cycled to the new size) so the
    # endpoints match
    size = m1.target.algebra.size
    table = tuple(m2.table[i % len(m2.table)] for i in range(size))
    m2 = DVMorphism(m1.target, m2.target, table)
    assert star_compose_dv(m2, m1).table == ref_star_compose_table(m2, m1)


def test_leq_proximity_is_the_order():
    for algebra in ALGEBRAS.values():
        rel = leq_proximity(algebra)
        assert rel.pairs == frozenset(_leq_pairs(algebra.size))
        assert list(rel.sorted_pairs()) == sorted(rel.pairs)


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
    message = "^mixed algebras in lifted proximity check$"
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


@st.composite
def approximant_cases(draw):
    """A morphism action on ``<=`` over 1-4 atoms, an element, a cap, a seed."""
    source = leq_proximity(ALGEBRAS[draw(st.integers(1, 4))])
    target = leq_proximity(ALGEBRAS[draw(st.integers(1, 3))])
    n, m = len(source.algebra.atoms), len(target.algebra.atoms)
    dual = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    table = [
        sum(1 << t for t, s in enumerate(dual) if mask >> s & 1)
        for mask in range(source.algebra.size)
    ]
    kinds = ["lifted", "table", "shifted", "negated", "constant", "mixed"]
    kind = draw(st.sampled_from(kinds))
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
        draw(st.sampled_from([1, 2, 5, 17, 4096])),
        draw(st.integers(0, 2**32)),
    )


def _outcome(join, pm, t, cap, seed):
    rng = random.Random(seed)
    try:
        result = join(pm, t, rng, cap)
    except ValueError as exc:
        result = exc.args
    return result, rng.getstate()


@kernel
@given(approximant_cases())
def test_approximant_join_matches_reference(case):
    pm, t, cap, seed = case
    joined, state = _outcome(_approximant_join, pm, t, cap, seed)
    expected, expected_state = _outcome(ref_approximant_join, pm, t, cap, seed)
    assert joined == expected
    assert str(joined) == str(expected)
    # the same combinations are drawn, so the random stream moves alike
    assert state == expected_state
