"""The contract of the value types: ``specker`` defines them as plain
classes, with every method written out, and they behave as the frozen
dataclasses they replace did.

For each type: equal fields give equal values and the hash of the field
tuple; a value of another class is never equal; a frozen value refuses
``setattr`` and ``delattr``; ``repr`` and ``str`` are the strings the
dataclass versions printed (pinned before the rewrite); copies compare
equal.  ``ProxMorphism`` stays mutable and equal only to itself.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from specker.boolalg import Algebra, BoolElem, make_algebra, make_free_algebra
from specker.morphisms import DVMorphism, ProxMorphism, identity_dv, lift_morphism
from specker.orthogonal import OrthElem, orth_normalize
from specker.pointwise import PointFn
from specker.proximity import AxiomResult, ProxRel, ProxReport, leq_proximity
from specker.steps import CompatibleSteps, StepElem, compatible_decreasing, to_steps
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


_TERM = "-(x_p + 2)^3 * meet(x_q, 1/2) - join(1, x_p)"

# name -> (a fresh value, the names of the fields equality and hashing read)
FROZEN = {
    "Algebra": (_b4, ("atoms", "generators")),
    "Algebra-free": (lambda: make_free_algebra(1), ("atoms", "generators")),
    "BoolElem": (lambda: _b4().atom("p"), ("algebra", "mask")),
    "OrthElem": (_orth, ("algebra", "entries")),
    "StepElem": (_steps, ("algebra", "thresholds", "idems")),
    "CompatibleSteps": (_compatible, ("thresholds", "left", "right")),
    "ProxRel": (lambda: leq_proximity(_b4()), ("algebra", "pairs")),
    "AxiomResult": (_failed, ("name", "passed", "checked", "counterexample")),
    "ProxReport": (_report, ("subject", "results")),
    "DVMorphism": (
        lambda: identity_dv(leq_proximity(_b4())),
        ("source", "target", "table"),
    ),
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
    assert covered | {"ProxMorphism"} == {
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
        (lambda: PointFn(b4, (1,)), "one value per atom required"),
        (lambda: Pow(Var("x"), -1), "exponents must be nonnegative"),
        (lambda: BinOp("/", Lit(1), Lit(2)), "unknown operator '/'"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_step_masks_stay_out_of_equality_hash_and_repr():
    value = _steps()
    assert value._masks == tuple(idem.mask for idem in value.idems)
    assert hash(value) == hash((value.algebra, value.thresholds, value.idems))
    assert "_masks" not in repr(value)
    with pytest.raises(AttributeError):
        value._masks = ()


def test_prox_rel_cached_indexes():
    rel = leq_proximity(_b4())
    assert rel.sorted_pairs() == tuple(sorted(rel.pairs))
    assert rel._rights[1] == (1, 3)
    assert rel._lefts[3] == (0, 1, 2, 3)
    # computed once, kept in the instance dictionary
    assert rel.sorted_pairs() is rel.sorted_pairs()
    assert {"_sorted", "_rights", "_lefts"} <= set(vars(rel))
    # an equal relation built apart has its own indexes, with equal contents
    twin = leq_proximity(_b4())
    assert twin == rel and twin._lefts == rel._lefts and "_lefts" in vars(twin)


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


def test_prox_morphism_is_mutable_and_equal_only_to_itself():
    rel = leq_proximity(_b4())
    pm = lift_morphism(identity_dv(rel))
    twin = ProxMorphism(pm.source, pm.target, pm.action, base=pm.base, label=pm.label)
    assert pm == pm and pm != twin
    assert hash(pm) == object.__hash__(pm)
    assert repr(pm) == "ProxMorphism(lifted)"
    pm.label = "renamed"
    assert repr(pm) == "ProxMorphism(renamed)"
    bare = ProxMorphism(rel, rel, lambda f: f)
    assert (bare.base, bare.label, repr(bare)) == (None, "", "ProxMorphism(anonymous)")
