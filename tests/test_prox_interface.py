"""A relation is read only through its three ``ProxRel`` methods.

``has``, ``count`` and ``pair_at`` must agree with the pair set on any
relation, de Vries or not, and the element form ``related`` refuses an
element of another algebra on either side.  ``<=`` stores no pairs: its
``pair_at`` must unrank exactly the sorted pairs of the helpers'
``leq_pairs`` at 1-7 atoms, a pair set equal to ``<=`` is ``<=``, and
``<=`` with one pair toggled stays a pair set that the gate refuses.
``prox_to_json`` writes ``<=`` as ``"leq"`` over the exhaustive bound,
and as its pairs within it.  ``sample_related_pair``
draws ``pair_at(rng.randrange(count()))``, which must be exactly the draw
of ``rng.choice`` over the sorted pairs, with the same generator state
afterwards, so every seeded report stays as it was.  The de Vries
gate's verdict cache keeps a bounded number of relations.  The last tests read
the source: no module but ``proximity.py`` may read the relation's
storage, so a read added anywhere else in the package is caught.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import leq_pairs, pairs_of, ref_sample_related_pair
from specker import proximity
from specker.boolalg import make_algebra
from specker.proximity import (
    ProxRel,
    _devries_ok,
    check_devries,
    leq_proximity,
    prox_from_json,
    prox_to_json,
    sample_related_pair,
)

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 8)}

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specker"
# the relation's storage: the pair set and its sorted form
FORMAT = {"pairs", "_sorted"}


@st.composite
def relations(draw):
    """``<=`` on 1-3 atoms with a few pairs toggled, or an arbitrary relation."""
    algebra = ALGEBRAS[draw(st.integers(1, 3))]
    every = [(e, f) for e in range(algebra.size) for f in range(algebra.size)]
    toggled = set(draw(st.lists(st.sampled_from(every), max_size=2 * algebra.size)))
    if draw(st.booleans()):
        return ProxRel(algebra, leq_pairs(algebra) ^ toggled)
    return ProxRel(algebra, frozenset(toggled))


@settings(max_examples=150, deadline=None)
@given(relations())
def test_the_interface_agrees_with_the_pair_set(rel):
    pairs, masks = pairs_of(rel), range(rel.algebra.size)
    assert rel.count() == len(pairs)
    assert [rel.pair_at(k) for k in range(rel.count())] == sorted(pairs)
    for e in masks:
        for f in masks:
            assert rel.has(e, f) == ((e, f) in pairs)


def test_the_interface_on_a_relation_that_is_no_proximity():
    # nothing on the relation is sorted_pairs
    rel = ProxRel(ALGEBRAS[1], frozenset({(1, 0)}))
    assert not check_devries(rel).ok
    assert (rel.count(), rel.pair_at(0), rel.pair_at(-1)) == (1, (1, 0), (1, 0))
    assert not rel.has(0, 1) and rel.has(1, 0)
    assert not rel.has(0, 0) and not rel.has(1, 1)
    with pytest.raises(IndexError):
        rel.pair_at(1)
    assert not hasattr(rel, "sorted_pairs")


@pytest.mark.parametrize("atoms", range(1, 8))
def test_leq_unranks_its_sorted_pairs(atoms):
    # ``<=`` stores no pairs: ``pair_at`` unranks the k-th sorted pair
    rel, pairs = leq_proximity(ALGEBRAS[atoms]), sorted(leq_pairs(ALGEBRAS[atoms]))
    assert rel.pairs is None and rel.count() == len(pairs) == 3**atoms
    assert [rel.pair_at(k) for k in range(rel.count())] == pairs
    for k in (-1, len(pairs)):
        with pytest.raises(IndexError):
            rel.pair_at(k)


@pytest.mark.parametrize("atoms", range(1, 6))
def test_a_pair_set_equal_to_leq_is_leq(atoms):
    algebra = ALGEBRAS[atoms]
    leq = leq_proximity(algebra)
    loaded = prox_from_json(algebra, prox_to_json(leq))
    assert loaded == leq and loaded.pairs is None and hash(loaded) == hash(leq)
    assert ProxRel(algebra, reversed(sorted(leq_pairs(algebra)))) == leq
    # one pair toggled, in or out of the order: a pair set the gate refuses
    full = algebra.full_mask
    for toggled in ((0, full), (full, 0), (1, 0)):
        rel = ProxRel(algebra, leq_pairs(algebra) ^ {toggled})
        assert rel.pairs is not None and rel != leq
        assert not _devries_ok(rel) and not check_devries(rel).ok


@pytest.mark.parametrize("atoms", [5, 6, 7])
def test_leq_is_written_as_leq_over_the_exhaustive_bound(atoms):
    algebra, leq = ALGEBRAS[atoms], leq_proximity(ALGEBRAS[atoms])
    written = prox_to_json(leq)["proximity"]
    if algebra.size > proximity._EXHAUSTIVE_BOUND:
        assert written == "leq"
    else:
        assert len(written["pairs"]) == 3**atoms
    assert prox_from_json(algebra, {"proximity": written}) == leq
    # a pair set lists its pairs at any size
    other = ProxRel(algebra, leq_pairs(algebra) - {(0, algebra.full_mask)})
    assert len(prox_to_json(other)["proximity"]["pairs"]) == 3**atoms - 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_related_refuses_one_foreign_operand(side):
    # either operand alone from another algebra is refused, not read as a mask
    rel = leq_proximity(ALGEBRAS[2])
    ours, foreign = ALGEBRAS[2].zero, ALGEBRAS[3].zero
    assert rel.related(ours, ours) and rel.has(0, 0)
    operands = (foreign, ours) if side == "left" else (ours, foreign)
    with pytest.raises(ValueError, match="mixed algebras: operands belong to"):
        rel.related(*operands)


@pytest.mark.parametrize("atoms", range(1, 8))
def test_sample_related_pair_draws_as_rng_choice(atoms):
    rel = leq_proximity(ALGEBRAS[atoms])
    for seed in range(20):
        ours, reference = random.Random(seed), random.Random(seed)
        for coeff_bound, nonneg in ((10, False), (10, True), (1, False), (3, True)):
            drawn = sample_related_pair(ours, rel, coeff_bound, nonneg)
            expected = ref_sample_related_pair(reference, rel, coeff_bound, nonneg)
            assert drawn == expected, (atoms, seed, coeff_bound, nonneg)
            assert ours.getstate() == reference.getstate()


def test_devries_caches_are_bounded():
    bound = proximity._DEVRIES_CACHED
    cache = proximity._devries_ok
    assert cache.cache_info().maxsize == bound
    b8 = ALGEBRAS[3]
    leq = leq_proximity(b8)
    every = [(e, f) for e in range(b8.size) for f in range(b8.size)]
    # <= itself, then <= with one pair toggled: more relations than the bound
    rels = [leq] + [ProxRel(b8, leq_pairs(b8) ^ {pair}) for pair in every[: bound + 8]]
    assert len(set(rels)) > bound
    cache.cache_clear()
    try:
        # twice over, so the second pass reads back relations already evicted
        for rel in rels + rels:
            assert cache(rel) is check_devries(rel).ok is (rel == leq)
            assert cache.cache_info().currsize <= bound
    finally:
        cache.cache_clear()


def _format_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every attribute read of the relation's storage."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FORMAT
    )


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "proximity.py"],
    ids=lambda path: path.name,
)
def test_only_proximity_reads_the_relation_format(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _format_reads(tree) == [], f"{path.name} reads a relation's storage"


def test_the_guard_sees_a_read():
    tree = ast.parse("def f(rel):\n    return len(rel.pairs) + len(rel._sorted[0])\n")
    assert _format_reads(tree) == [(2, "_sorted"), (2, "pairs")]
    # and the guard is not vacuous: proximity.py itself reads the storage
    source = (PACKAGE / "proximity.py").read_text(encoding="utf-8")
    assert {name for _, name in _format_reads(ast.parse(source))} == FORMAT
