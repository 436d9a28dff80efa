"""The contract of the value types: ``specker`` defines them as plain
classes, and they behave as the frozen dataclasses they replace did.
Each type names its fields once, in ``_fields``, and inherits the one
equality and hash of ``boolalg._Frozen``, and the field-form ``repr``
unless it prints itself.  ``OrthElem`` and ``StepElem`` name their
masks, so that comparing and hashing build no ``BoolElem``.

For each type: equal fields give equal values and the hash of the field
tuple; a value of another class is never equal; a value refuses
``setattr`` and ``delattr``; ``repr`` and ``str`` are the strings the
dataclass versions printed (pinned before the rewrite); copies compare
equal.  A ``ProxMorphism`` is equal to one with the same fields, its
action the same object.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from helpers import leq_pairs, pairs_of
from specker.boolalg import (
    Algebra,
    BoolElem,
    _Frozen,
    make_algebra,
    make_free_algebra,
)
from specker.morphisms import (
    DVMorphism,
    ProxMorphism,
    enumerate_boolean_homs,
    identity_dv,
    identity_prox,
    lift_morphism,
    restrict_prox_morphism,
    star_compose_dv,
    star_compose_prox,
)
from specker.orthogonal import OrthElem, orth_normalize
from specker.pointwise import PointFn
from specker.proximity import AxiomResult, ProxRel, ProxReport, leq_proximity, lift_check
from specker.steps import (
    CompatibleSteps,
    StepElem,
    compatible_decreasing,
    random_steps,
    step_from_json,
    step_scale,
    step_zero,
    to_steps,
)
from specker.terms import BinOp, Lit, Neg, Pow, Var, parse_term


def _b4() -> Algebra:
    return make_algebra(["p", "q"])


def _orth() -> OrthElem:
    b4 = _b4()
    return orth_normalize(b4, [(Fraction(3, 2), b4.atom("p")), (-1, b4.atom("q"))])


def _steps() -> StepElem:
    return to_steps(_orth())


def _compatible() -> CompatibleSteps:
    b4 = _b4()
    other = to_steps(orth_normalize(b4, [(2, b4.atom("p")), (0, b4.atom("q"))]))
    return compatible_decreasing(_steps(), other)


def _failed() -> AxiomResult:
    b4 = _b4()
    return AxiomResult("D2", False, 3, (b4.atom("p"), b4.atom("q")))


def _report() -> ProxReport:
    return ProxReport("x", (AxiomResult("D1", True, 2), _failed()))


def _unchanged(f: StepElem) -> StepElem:
    """A module-level action, so that a morphism holding it pickles."""
    return f


def _prox_morphism() -> ProxMorphism:
    return ProxMorphism(leq_proximity(_b4()), leq_proximity(_b4()), _unchanged, "unchanged")


_TERM = "-(x_p + 2)^3 * meet(x_q, 1/2) - join(1, x_p)"

# name -> (a fresh value, the names of the fields equality and hashing read)
FROZEN = {
    "Algebra": (_b4, ("atoms", "generators")),
    "Algebra-free": (lambda: make_free_algebra(1), ("atoms", "generators")),
    "BoolElem": (lambda: _b4().atom("p"), ("algebra", "mask")),
    "OrthElem": (_orth, ("algebra", "_values", "_masks")),
    "StepElem": (_steps, ("algebra", "thresholds", "_masks")),
    "CompatibleSteps": (_compatible, ("thresholds", "left", "right")),
    "ProxRel": (lambda: leq_proximity(_b4()), ("algebra", "pairs")),
    "AxiomResult": (_failed, ("name", "passed", "checked", "counterexample")),
    "ProxReport": (_report, ("subject", "results")),
    "DVMorphism": (
        lambda: identity_dv(leq_proximity(_b4())),
        ("source", "target", "table"),
    ),
    "ProxMorphism": (_prox_morphism, ("source", "target", "action", "label")),
    "PointFn": (lambda: PointFn(_b4(), (1, Fraction(1, 2))), ("algebra", "values")),
    "Lit": (lambda: Lit(3), ("value",)),
    "Var": (lambda: Var("x"), ("name",)),
    "Neg": (lambda: Neg(Lit(1)), ("operand",)),
    "Pow": (lambda: Pow(Var("x"), 2), ("base", "exponent")),
    "BinOp": (lambda: parse_term(_TERM), ("op", "left", "right")),
}

# name -> (repr, str), as the dataclass versions printed them
PINNED = {
    "Algebra": ("Algebra(atoms=['p', 'q'])", "Algebra(atoms=['p', 'q'])"),
    "Algebra-free": ("Algebra(atoms=['m0', 'm1'])", "Algebra(atoms=['m0', 'm1'])"),
    "BoolElem": ("BoolElem([p])", "[p]"),
    "OrthElem": ("OrthElem(3/2·[p] + -1·[q])", "3/2·[p] + -1·[q]"),
    "StepElem": ("StepElem([1 | -1] [p | 3/2])", "[1 | -1] [p | 3/2]"),
    "CompatibleSteps": (
        "CompatibleSteps(thresholds=(-1, 0, Fraction(3, 2), 2), "
        "left=(BoolElem(1), BoolElem([p]), BoolElem([p]), BoolElem(0)), "
        "right=(BoolElem(1), BoolElem(1), BoolElem([p]), BoolElem([p])))",
    )
    * 2,
    "ProxRel": ("ProxRel(9 pairs on Algebra(atoms=['p', 'q']))",) * 2,
    "AxiomResult": (
        "AxiomResult(name='D2', passed=False, checked=3, "
        "counterexample=(BoolElem([p]), BoolElem([q])))",
        "D2: FAIL ([p], [q])",
    ),
    "ProxReport": (
        "ProxReport(subject='x', results=(AxiomResult(name='D1', passed=True, "
        "checked=2, counterexample=()), AxiomResult(name='D2', passed=False, "
        "checked=3, counterexample=(BoolElem([p]), BoolElem([q])))))",
    )
    * 2,
    "DVMorphism": ("DVMorphism(0->0, [p]->[p], [q]->[q], 1->1)",) * 2,
    "ProxMorphism": ("ProxMorphism(unchanged)",) * 2,
    "PointFn": ("PointFn(p=1 q=1/2)", "p=1 q=1/2"),
    "Lit": ("Lit(value=3)",) * 2,
    "Var": ("Var(name='x')",) * 2,
    "Neg": ("Neg(operand=Lit(value=1))",) * 2,
    "Pow": ("Pow(base=Var(name='x'), exponent=2)",) * 2,
    "BinOp": (
        "BinOp(op='-', left=BinOp(op='*', left=Pow(base=Neg(operand=BinOp("
        "op='+', left=Var(name='x_p'), right=Lit(value=2))), exponent=3), "
        "right=BinOp(op='meet', left=Var(name='x_q'), right=Lit(value="
        "Fraction(1, 2)))), right=BinOp(op='join', left=Lit(value=1), "
        "right=Var(name='x_p')))",
    )
    * 2,
}


def _fields(value, names) -> tuple:
    return tuple(getattr(value, name) for name in names)


class _Stranger:
    """An object of another class that claims equality with everything."""

    def __eq__(self, other):
        return True

    __hash__ = object.__hash__


def test_every_former_dataclass_is_covered():
    covered = {type(make()).__name__ for make, _ in FROZEN.values()}
    assert covered == {
        "Algebra", "BoolElem", "OrthElem", "StepElem", "CompatibleSteps",
        "ProxRel", "AxiomResult", "ProxReport", "DVMorphism", "ProxMorphism",
        "PointFn", "Lit", "Var", "Neg", "Pow", "BinOp",
    }  # fmt: skip
    assert set(PINNED) == set(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equality_and_hash_read_the_field_tuple(name):
    make, names = FROZEN[name]
    value, twin = make(), make()
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(_fields(value, names))
    assert value.__eq__(twin) is True
    cls = type(value)
    assert cls._fields == names
    assert cls.__eq__ is _Frozen.__eq__ and cls.__hash__ is _Frozen.__hash__


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_another_class_is_never_equal(name):
    value = FROZEN[name][0]()
    assert value.__eq__(object()) is NotImplemented
    assert value != object()
    assert value != _fields(value, FROZEN[name][1])
    # NotImplemented hands the comparison to the other operand
    assert value == _Stranger()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values_refuse_setting_and_deleting(name):
    make, names = FROZEN[name]
    value = make()
    for field in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == make()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_repr_and_str_are_pinned(name):
    value = FROZEN[name][0]()
    assert (repr(value), str(value)) == PINNED[name]


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_copies_are_equal(name):
    value = FROZEN[name][0]()
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert duplicate == value and hash(duplicate) == hash(value)
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and repr(restored) == repr(value)


def test_keyword_construction_and_defaults():
    b4 = _b4()
    assert Algebra(atoms=("p", "q")) == Algebra(("p", "q"), ()) == b4
    assert BoolElem(algebra=b4, mask=1) == b4.atom("p")
    assert AxiomResult("D1", True, 2) == AxiomResult(
        name="D1", passed=True, checked=2, counterexample=()
    )
    assert Pow(base=Var("x"), exponent=2) == Pow(Var("x"), 2)
    assert BinOp(op="+", left=Lit(1), right=Lit(2)) == BinOp("+", Lit(1), Lit(2))


def test_validation_messages_are_unchanged():
    b4 = _b4()
    cases = [
        (lambda: Algebra(()), "an algebra needs at least one atom"),
        (lambda: Algebra(("p", "p")), "duplicate atom name: 'p'"),
        (
            lambda: BoolElem(b4, 4),
            r"mask 4 out of range for Algebra\(atoms=\['p', 'q'\]\)",
        ),
        (lambda: OrthElem(b4, ()), "an orthogonal decomposition cannot be empty"),
        (lambda: OrthElem(b4, ((0, b4.atom("p")),)), "components do not join to 1"),
        (lambda: OrthElem(b4, ((0, b4.atom("p")), (1, b4.one))), "components overlap"),
        (lambda: StepElem(b4, (0,), ()), "thresholds and components must align"),
        (
            lambda: StepElem(b4, (0,), (b4.atom("p"),)),
            "the first step must have component 1",
        ),
        (lambda: ProxRel(b4, frozenset({(0, 4)})), r"proximity pair \(0, 4\) outside"),
        (
            lambda: DVMorphism(leq_proximity(b4), leq_proximity(b4), (0,)),
            "morphism table must cover every source element",
        ),
        (
            lambda: DVMorphism(leq_proximity(b4), leq_proximity(b4), (0, 1, 2, 4)),
            "morphism table value out of range",
        ),
        (
            # doubling sends the idempotent [p] to 2 * [p], which is none
            lambda: restrict_prox_morphism(
                ProxMorphism(leq_proximity(b4), leq_proximity(b4), lambda f: step_scale(2, f))
            ),
            r"action does not send idempotents to idempotents at \[p\]",
        ),
        (
            lambda: step_from_json(b4, {"rep": "flat", "steps": [{"upto": "1", "idem": "1"}] * 2}),
            "step thresholds must strictly increase",
        ),
        (lambda: PointFn(b4, (1,)), "one value per atom required"),
        (lambda: Pow(Var("x"), -1), "exponents must be nonnegative"),
        (lambda: BinOp("/", Lit(1), Lit(2)), "unknown operator '/'"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_step_hash_reads_the_masks_and_repr_hides_them():
    value = _steps()
    assert value._masks == tuple(idem.mask for idem in value.idems)
    assert hash(value) == hash((value.algebra, value.thresholds, value._masks))
    assert "_masks" not in repr(value)
    with pytest.raises(AttributeError):
        value._masks = ()


def test_step_elem_from_masks_matches_the_public_constructor():
    # to_steps builds from masks; the public constructor from elements
    inner = _steps()
    outer = StepElem(inner.algebra, inner.thresholds, tuple(inner.idems))
    assert inner == outer and outer == inner
    assert hash(inner) == hash(outer)
    assert repr(inner) == repr(outer) == PINNED["StepElem"][0]


def test_step_elem_idems_is_built_once():
    value = _steps()
    first = value.idems
    assert value.idems is first
    assert first == (value.algebra.one, value.algebra.atom("p"))


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
)
def test_step_elem_copies_before_idems_is_read(duplicate):
    value = _steps()
    twin = duplicate(value)
    assert twin == value and twin.thresholds == value.thresholds
    assert twin.idems == value.idems and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


def test_orth_hash_reads_the_masks_and_repr_hides_them():
    value = _orth()
    assert value._masks == tuple(component.mask for _, component in value.entries)
    assert value._values == value.values() == (-1, Fraction(3, 2))
    assert hash(value) == hash((value.algebra, value._values, value._masks))
    assert "_masks" not in repr(value) and "_values" not in repr(value)
    with pytest.raises(AttributeError):
        value._masks = ()


def test_orth_elem_from_masks_matches_the_public_constructor():
    # orth_normalize builds from masks; the public constructor from elements
    inner = _orth()
    outer = OrthElem(inner.algebra, tuple(inner.entries))
    assert inner == outer and outer == inner
    assert hash(inner) == hash(outer)
    assert repr(inner) == repr(outer) == PINNED["OrthElem"][0]


def test_orth_elem_entries_is_built_once():
    value = _orth()
    first = value.entries
    assert value.entries is first
    b4 = value.algebra
    assert first == ((-1, b4.atom("q")), (Fraction(3, 2), b4.atom("p")))


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
)
def test_orth_elem_copies_before_entries_is_read(duplicate):
    value = _orth()
    twin = duplicate(value)
    assert twin == value and twin.values() == value.values()
    assert twin.entries == value.entries and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


def test_prox_rel_keeps_its_sorted_pairs_in_a_slot():
    # <= without [p] < 1, a pair set; <= itself stores neither slot
    leq = leq_proximity(_b4())
    rel = ProxRel(_b4(), leq_pairs(_b4()) - {(1, 3)})
    assert not hasattr(rel, "__dict__") and leq.pairs is leq._sorted is None
    # set at construction, and what pair_at reads
    assert rel._sorted == tuple(sorted(rel.pairs))
    assert rel.pair_at(0) is rel._sorted[0]
    # derived, so equality and hashing skip it, and copies keep it
    assert ProxRel._fields == ("algebra", "pairs")
    for value in (rel, leq):
        for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            twin = duplicate(value)
            assert twin == value and hash(twin) == hash(value)
            assert twin._sorted == value._sorted and not hasattr(twin, "__dict__")
            assert [twin.pair_at(k) for k in range(twin.count())] == sorted(pairs_of(value))


def _built_from_lists() -> dict:
    """name -> (a value built from lists or a set, its tuple-built twin)."""
    b2, b4 = make_algebra(["x"]), _b4()
    leq = leq_proximity(b2)
    p, q = b4.atom("p"), b4.atom("q")
    return {
        "ProxRel from a set": (ProxRel(b2, {(0, 0), (0, 1), (1, 1)}), leq),
        "ProxRel from a list": (ProxRel(b2, [(0, 0), (0, 1), (1, 1)]), leq),
        "DVMorphism": (DVMorphism(leq, leq, [0, 1]), identity_dv(leq)),
        "StepElem": (StepElem(b4, [0, 1], [b4.one, p]), StepElem(b4, (0, 1), (b4.one, p))),
        "OrthElem": (OrthElem(b4, [[1, p], [2, q]]), OrthElem(b4, ((1, p), (2, q)))),
    }


@pytest.mark.parametrize("name", sorted(_built_from_lists()))
def test_a_value_built_from_lists_equals_and_hashes_like_its_tuple_twin(name):
    listed, twin = _built_from_lists()[name]
    assert listed == twin and hash(listed) == hash(twin)
    if isinstance(listed, ProxRel):  # the gate's cache hashes the relation
        zero = step_zero(listed.algebra)
        assert lift_check(listed, zero, zero)


def test_hot_value_types_carry_no_instance_dict():
    for value in (_b4(), _b4().one, _orth(), _steps()):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_bool_elem_post_init_runs_once_per_construction(monkeypatch):
    b4 = _b4()
    original = BoolElem.__post_init__
    seen = []

    def counted(elem):
        seen.append(elem.mask)
        original(elem)

    monkeypatch.setattr(BoolElem, "__post_init__", counted)
    BoolElem(b4, 1)
    b4.atom("q")
    ~b4.zero
    assert seen == [1, 2, 0, 3]
    with pytest.raises(ValueError):
        BoolElem(b4, 9)
    assert seen == [1, 2, 0, 3, 9]


def test_algebra_eq_is_a_class_attribute_that_can_be_counted(monkeypatch):
    original = Algebra.__eq__
    calls = []

    def counted(algebra, other):
        calls.append(other)
        return original(algebra, other)

    monkeypatch.setattr(Algebra, "__eq__", counted)
    left, right = _b4(), _b4()
    assert BoolElem(left, 1) == BoolElem(right, 1)
    assert calls == [right]
    # the same algebra object is equal without a call, as tuples compare
    assert BoolElem(left, 1) == BoolElem(left, 1)
    assert len(calls) == 1


def test_comparing_and_hashing_elements_built_from_masks_builds_nothing(built):
    # orth_normalize and to_steps build from masks; entries and idems stay unread
    values = [_orth(), _orth(), _steps(), _steps()]
    built[0] = 0
    assert values[0] == values[1] and values[2] == values[3]
    assert len({hash(value) for value in values}) == 2
    assert built[0] == 0


def test_prox_morphism_equality_reads_its_action_object():
    rel = leq_proximity(_b4())
    pm = lift_morphism(identity_dv(rel))
    twin = ProxMorphism(pm.source, pm.target, pm.action, pm.label)
    assert pm == twin and hash(pm) == hash(twin)
    # another lift of the same table holds another action
    assert pm != lift_morphism(identity_dv(rel))
    assert not hasattr(pm, "base") and not hasattr(pm, "__dict__")
    assert repr(pm) == "ProxMorphism(lifted)"
    assert repr(identity_prox(rel)) == "ProxMorphism(identity)"
    bare = ProxMorphism(rel, rel, _unchanged)
    assert (bare.label, repr(bare)) == ("", "ProxMorphism(anonymous)")


def test_star_compose_prox_of_bare_actions_lifts_their_composed_restrictions():
    b4 = _b4()
    rel = leq_proximity(b4)
    # the hom swapping p and q, as an action that keeps no table
    swap = next(h for h in enumerate_boolean_homs(b4, b4) if h.table == (0, 2, 1, 3))
    swap_action = lift_morphism(swap).action
    outer = ProxMorphism(rel, rel, swap_action, "swap")
    inner = ProxMorphism(rel, rel, _unchanged)
    composed = star_compose_prox(outer, inner)
    expected = lift_morphism(
        star_compose_dv(restrict_prox_morphism(outer), restrict_prox_morphism(inner))
    )
    assert repr(composed) == "ProxMorphism((swap * ?))"
    assert restrict_prox_morphism(composed) == restrict_prox_morphism(expected) == swap
    rng = random.Random(33)
    for _ in range(20):
        f = random_steps(rng, b4, 6)
        assert composed(f) == expected(f) == swap_action(f)
