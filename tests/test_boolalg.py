import itertools

import pytest

from specker import boolalg
from specker.boolalg import (
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_from_literal,
    element_to_json,
    element_to_literal,
    make_algebra,
    make_free_algebra,
)


def test_make_algebra_sizes():
    assert make_algebra(["p", "q"]).size == 4
    assert make_algebra(["x"]).size == 2
    assert make_algebra(["a", "b", "c"]).size == 8


@pytest.mark.parametrize("bad", [[], ["p", "p"], [""], ["0"], ["a,b"], ["a b"]])
def test_make_algebra_rejects_bad_names(bad):
    with pytest.raises(ValueError):
        make_algebra(bad)


def test_an_algebra_built_from_lists_is_stored_as_tuples():
    # a list kept as given would not hash, nor would the gate's cache take
    # the relations on it
    from specker.proximity import leq_proximity, lift_check
    from specker.steps import step_const

    listed = boolalg.Algebra(["p", "q"])
    assert listed.atoms == ("p", "q") and listed == make_algebra(["p", "q"])
    assert hash(listed) == hash(make_algebra(["p", "q"]))
    assert lift_check(leq_proximity(listed), step_const(listed, 1), step_const(listed, 2))
    free = boolalg.Algebra(["m0", "m1"], [["g0", 2]])
    assert free.generators == (("g0", 2),) and free == make_free_algebra(1)
    assert hash(free) == hash(make_free_algebra(1))


@pytest.mark.parametrize("construct", [boolalg.Algebra, make_algebra])
def test_a_string_of_atoms_is_refused(construct):
    # read as its characters, "pq" would silently name the two atoms p, q
    with pytest.raises(ValueError, match="algebra atoms must be a list of names: 'pq'"):
        construct("pq")
    one = make_algebra(["pq"])
    assert one.atoms == ("pq",) and one.size == 2


def test_free_algebra_shapes(monkeypatch):
    one = make_free_algebra(1)
    assert one.size == 4
    assert one.generator("g0").atom_count() == 1

    two = make_free_algebra(2)
    assert two.size == 16
    assert two.generator("g0").atom_count() == 2

    with pytest.raises(ValueError):
        make_free_algebra(0)
    with pytest.raises(ValueError):
        make_free_algebra(5)
    # the bound is the one thing that refuses it
    monkeypatch.setattr(boolalg, "_MAX_GENERATORS", 5)
    assert len(make_free_algebra(5).atoms) == 32


def test_free_algebra_generators_are_independent():
    alg = make_free_algebra(2)
    g0, g1 = alg.generator("g0"), alg.generator("g1")
    # all four minterm regions of two free generators are nonzero
    for left in (g0, ~g0):
        for right in (g1, ~g1):
            assert not (left & right).is_zero


def test_cross_algebra_elements_rejected(b4, b2):
    with pytest.raises(ValueError, match="mixed"):
        b4.atom("p") & b2.atom("x")
    with pytest.raises(ValueError, match="mixed"):
        b4.atom("p") <= b2.atom("x")


def test_boolean_axioms_exhaustive(b4, b2):
    for alg in (b2, b4):
        elems = list(alg.elements())
        for e, f, g in itertools.product(elems, repeat=3):
            assert (e & f) & g == e & (f & g)
            assert (e | f) | g == e | (f | g)
            assert e & (f | g) == (e & f) | (e & g)
            assert e | (f & g) == (e | f) & (e | g)
        for e, f in itertools.product(elems, repeat=2):
            assert e & f == f & e
            assert e | f == f | e
            assert e & (e | f) == e
            assert e | (e & f) == e
        for e in elems:
            assert e & ~e == alg.zero
            assert e | ~e == alg.one
            assert ~~e == e
            assert e & alg.one == e
            assert e | alg.zero == e


def test_de_morgan_exhaustive_up_to_four_atoms():
    for names in (["x"], ["p", "q"], ["a", "b", "c"], ["a", "b", "c", "d"]):
        alg = make_algebra(names)
        for e, f in itertools.product(alg.elements(), repeat=2):
            assert ~(e | f) == ~e & ~f
            assert ~(e & f) == ~e | ~f


def test_order_is_subset_order(b4):
    p, q = b4.atom("p"), b4.atom("q")
    assert b4.zero <= p <= b4.one
    assert not p <= q and not q <= p
    assert p <= p


def test_literals_round_trip(b8):
    for e in b8.elements():
        assert element_from_literal(b8, element_to_literal(e)) == e
        assert element_from_json(b8, element_to_json(e)) == e
    assert element_to_literal(b8.zero) == "0"
    assert element_to_literal(b8.one) == "1"
    assert element_to_literal(b8.atom("b")) == "[b]"
    assert element_from_literal(b8, "[a, c]") == b8.element(["a", "c"])
    with pytest.raises(ValueError):
        element_from_literal(b8, "[a")
    with pytest.raises(ValueError):
        element_from_literal(b8, "[z]")


@pytest.mark.parametrize("name", ["z", 1, None, ["a"], {"a": 1}])
def test_unknown_atom_names_raise_value_error(b8, name):
    # unhashable names too: the name index is a dict
    with pytest.raises(ValueError, match="unknown atom"):
        element_from_json(b8, ["a", name])
    with pytest.raises(ValueError, match="unknown atom"):
        b8.atom(name)


def test_algebra_json_round_trip(b4):
    assert algebra_from_json(algebra_to_json(b4)) == b4
    free = algebra_from_json({"free_generators": 2})
    assert free.size == 16
    with pytest.raises(ValueError):
        algebra_from_json({"neither": 1})
    for count in range(1, 5):
        # a free algebra is written back with its generators, and the same
        # minterm names without them as a plain powerset
        free = make_free_algebra(count)
        assert algebra_to_json(free) == {"free_generators": count}
        assert algebra_from_json(algebra_to_json(free)) == free
        plain = make_algebra(free.atoms)
        assert algebra_to_json(plain) == {"atoms": list(free.atoms)}
        assert algebra_from_json(algebra_to_json(plain)) == plain != free


@pytest.mark.parametrize("atoms", ["pq", ["p", 1], {"p": 1}, None])
def test_algebra_json_atoms_must_be_a_list_of_names(atoms):
    with pytest.raises(ValueError, match="atoms must be a list of names"):
        algebra_from_json({"atoms": atoms})


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None])
def test_algebra_json_free_generators_must_be_an_int(count):
    with pytest.raises(ValueError, match="free_generators must be an integer"):
        algebra_from_json({"free_generators": count})


def test_first_failure_counts_up_to_the_first_witness():
    from specker.boolalg import _first_failure

    assert _first_failure([]) == (0, None)
    assert _first_failure([None, None]) == (2, None)
    drawn = []

    def cases():
        for i in range(5):
            drawn.append(i)
            yield None if i != 1 else ("witness", i)

    assert _first_failure(cases()) == (2, ("witness", 1))
    # the runner stops at the first failure and draws no further case
    assert drawn == [0, 1]


def test_an_int_past_the_digit_bound_is_shown_by_its_bits():
    # ``repr`` refuses an int over CPython's 4,300-digit limit with its own
    # hint; the refusal names the int by its size instead
    assert boolalg._shown(10**5000) == "an int of 16610 bits"
    assert boolalg._shown(-(10**4300)) == "an int of 14285 bits"
    assert boolalg._shown(10**4300 - 1) == "9" * 40 + "..."
    with pytest.raises(ValueError) as refused:
        make_free_algebra(10**5000)
    assert str(refused.value) == "generator count an int of 16610 bits outside 1..4"


def test_an_algebra_is_shown_by_its_atom_count_past_the_quoted_length():
    wide = make_algebra([f"a{i}" for i in range(64)])
    assert boolalg._shown(make_algebra(["p", "q"])) == "Algebra(atoms=['p', 'q'])"
    assert boolalg._shown(wide) == "an algebra of 64 atoms"
    with pytest.raises(ValueError) as refused:
        wide.from_mask(1 << 64)
    assert str(refused.value) == (
        "mask 18446744073709551616 out of range for an algebra of 64 atoms"
    )
