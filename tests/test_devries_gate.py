"""The de Vries gates are the finite theorem, and the axioms run only for a report.

On a finite boolean algebra the order ``<=`` is the only de Vries
proximity, so ``proximity._devries_ok(rel)`` asks whether ``rel`` is
``<=``, which ``ProxRel`` stores by its definition: a pair set of 3^n
pairs, each inside the order, is stored so too.  These tests hold that
answer equal to the exhaustive ``check_devries(rel).ok``, on every subset
of ``<=`` on 1-2 atoms, on every one-pair toggle of ``<=`` on 1-4 atoms
and on seeded toggles on 5; above the exhaustive bound, on 6-8 atoms, the
gate still decides, without building ``<=``.  The de Vries morphisms
between two ``<=`` are the boolean homomorphisms, so
``morphisms._dv_ok(m)`` is held equal to ``check_dv_morphism(m).ok`` on
every table between small algebras.  A refusal raises with the failing
D1-D7 report; over the exhaustive bound, where D1-D7 do not run, every
gated call raises the bound's error instead.  The last test runs the
benchmark's 13 ``verify`` command lines in-process and counts the D1-D7
runs: only ``check-devries`` and a ``check-prox`` that refuses its
relation print their report, and they run them once each.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from helpers import leq_pairs
from specker import proximity
from specker.boolalg import make_algebra
from specker.cli import run
from specker.morphisms import DVMorphism, _dv_ok, check_dv_morphism
from specker.proximity import (
    ProxRel,
    _devries_ok,
    check_devries,
    leq_proximity,
    lift_check,
    positive_approximant,
    restrict_lift,
    sample_proximity_axioms,
    sample_related_pair,
)
from specker.steps import step_one, step_zero

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 9)}


def _subsets_of_leq(atoms: int) -> list[ProxRel]:
    algebra = ALGEBRAS[atoms]
    pairs = sorted(leq_pairs(algebra))
    return [
        ProxRel(algebra, frozenset(itertools.compress(pairs, keep)))
        for keep in itertools.product((False, True), repeat=len(pairs))
    ]


def _toggles_of_leq(atoms: int) -> list[ProxRel]:
    """``<=`` itself, then ``<=`` with each pair of elements toggled."""
    algebra = ALGEBRAS[atoms]
    leq, pairs = leq_proximity(algebra), leq_pairs(algebra)
    every = itertools.product(range(algebra.size), repeat=2)
    return [leq] + [ProxRel(algebra, pairs ^ {pair}) for pair in every]


RELATIONS = [
    *(rel for atoms in (1, 2) for rel in _subsets_of_leq(atoms)),
    *(rel for atoms in range(1, 5) for rel in _toggles_of_leq(atoms)),
]


def test_the_relations_are_the_864():
    assert len(RELATIONS) == 864
    assert sum(_devries_ok(rel) for rel in RELATIONS) == 6  # <= on 1-4 atoms, twice on 1-2


def test_gate_matches_check_devries():
    for rel in RELATIONS:
        assert _devries_ok(rel) is check_devries(rel).ok, rel


def test_gate_matches_check_devries_on_seeded_toggles_of_five_atoms():
    algebra = ALGEBRAS[5]
    leq, pairs = leq_proximity(algebra), leq_pairs(algebra)
    rng = random.Random("devries-gate:5")
    every = list(itertools.product(range(algebra.size), repeat=2))
    rels = [leq] + [
        ProxRel(algebra, pairs ^ set(rng.sample(every, rng.randint(1, 3))))
        for _ in range(40)
    ]
    for rel in rels:
        assert _devries_ok(rel) is check_devries(rel).ok is (rel == leq), rel


def test_gate_accepts_six_atoms_where_check_devries_refuses():
    rel = leq_proximity(ALGEBRAS[6])
    message = "algebra with 64 elements exceeds the exhaustive bound of 32"
    with pytest.raises(ValueError, match=message):
        check_devries(rel)
    assert _devries_ok(rel) is True


@pytest.mark.parametrize("atoms", [6, 7, 8])
def test_gate_decides_above_the_bound_without_building_leq(atoms, monkeypatch):
    algebra = ALGEBRAS[atoms]
    pairs = leq_pairs(algebra)
    rng = random.Random(f"devries-gate:{atoms}")
    inside = rng.choice(sorted(pairs))
    outside = (algebra.full_mask, rng.randrange(algebra.full_mask))  # 1 is below no f < 1
    rels = {
        "leq": ProxRel(algebra, pairs),  # built apart from <=
        "minus one pair": ProxRel(algebra, pairs - {inside}),
        "plus one pair": ProxRel(algebra, pairs | {outside}),
        "one pair swapped": ProxRel(algebra, pairs - {inside} | {outside}),
    }
    built = []
    original = proximity.leq_proximity

    def counted(alg):
        built.append(alg)
        return original(alg)

    monkeypatch.setattr(proximity, "leq_proximity", counted)
    _devries_ok.cache_clear()
    verdicts = {name: _devries_ok(rel) for name, rel in rels.items()}
    assert verdicts == {
        "leq": True,
        "minus one pair": False,
        "plus one pair": False,
        "one pair swapped": False,
    }
    assert built == []


def test_a_refusal_carries_the_d1_to_d7_report():
    rel = next(rel for rel in RELATIONS if rel.algebra.size == 4 and not _devries_ok(rel))
    with pytest.raises(ValueError, match="^relation is not a de Vries proximity$") as refusal:
        restrict_lift(rel)
    assert refusal.value.report == check_devries(rel)


def test_a_gated_call_above_the_bound_refuses_with_the_bound_error():
    # <= on 6 atoms without one pair: D1-D7, which would say why, take no
    # algebra over the bound, so each gated call raises the bound's error
    algebra = ALGEBRAS[6]
    rel = ProxRel(algebra, leq_pairs(algebra) - {(0, algebra.full_mask)})
    zero, one = step_zero(algebra), step_one(algebra)
    calls = {
        "lift_check": lambda: lift_check(rel, zero, one),
        "restrict_lift": lambda: restrict_lift(rel),
        "sample_related_pair": lambda: sample_related_pair(random.Random(0), rel, 3),
        "positive_approximant": lambda: positive_approximant(rel, one),
        "sample_proximity_axioms": lambda: sample_proximity_axioms(rel, samples=1),
    }
    message = "^algebra with 64 elements exceeds the exhaustive bound of 32$"
    for name, call in calls.items():
        with pytest.raises(ValueError, match=message):
            call()
            pytest.fail(name)


def _tables(source_atoms: int, target_atoms: int):
    """Every table from ``<=`` on ``source_atoms`` into ``<=`` on ``target_atoms``."""
    source = leq_proximity(ALGEBRAS[source_atoms])
    target = leq_proximity(ALGEBRAS[target_atoms])
    images = range(target.algebra.size)
    for table in itertools.product(images, repeat=source.algebra.size):
        yield DVMorphism(source, target, table)


def test_morphism_gate_matches_check_dv_morphism_on_every_small_table():
    shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]
    tables = [m for shape in shapes for m in _tables(*shape)]
    assert len(tables) == 4708
    passed = 0
    for m in tables:
        ok = _dv_ok(m)
        assert ok is check_dv_morphism(m).ok, m
        passed += ok
    # the boolean homs, dual to the maps from target atoms to source atoms
    assert passed == sum(source**target for source, target in shapes) == 20


def test_verify_runs_d1_to_d7_only_where_their_report_is_printed(
    tmp_path, capsys, monkeypatch
):
    verify = workloads.Verify(seed=0)
    invocations = verify.make_inputs(tmp_path)
    assert len(invocations) == 13
    monkeypatch.chdir(tmp_path)
    original = proximity.check_devries
    calls: dict[str, int] = {}
    label = ""

    def counted(rel):
        calls[label] = calls.get(label, 0) + 1
        return original(rel)

    monkeypatch.setattr(proximity, "check_devries", counted)
    proximity._devries_ok.cache_clear()
    for invocation in invocations:
        label = invocation.label
        code = run(invocation.argv + ["--samples", str(workloads.SAMPLES)])
        captured = capsys.readouterr()
        result = (code, captured.out, captured.err)
        assert workloads.check_child(invocation, result), (label, result)
    assert calls == {"check-prox-bad": 1, "check-devries-5": 1}
