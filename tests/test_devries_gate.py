"""The de Vries gate is the finite theorem, and D1-D7 run only for a report.

On a finite boolean algebra the order ``<=`` is the only de Vries
proximity, so ``proximity._devries_ok(rel)`` asks whether ``rel`` is the
one relation ``enumerate_devries`` returns.  These tests hold that answer
equal to the exhaustive ``check_devries(rel).ok``, on every subset of
``<=`` on 1-2 atoms, on every one-pair toggle of ``<=`` on 1-4 atoms and
on seeded toggles on 5, and hold its refusal above the exhaustive bound
equal to the checker's.  The last test runs the benchmark's 13 ``verify``
command lines in-process and counts the D1-D7 runs: only
``check-devries`` and a ``check-prox`` that refuses its relation print
their report, and they run them once each.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from specker import proximity
from specker.boolalg import make_algebra
from specker.cli import run
from specker.proximity import ProxRel, _devries_ok, check_devries, leq_proximity

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 7)}


def _subsets_of_leq(atoms: int) -> list[ProxRel]:
    algebra = ALGEBRAS[atoms]
    pairs = sorted(leq_proximity(algebra).pairs)
    return [
        ProxRel(algebra, frozenset(itertools.compress(pairs, keep)))
        for keep in itertools.product((False, True), repeat=len(pairs))
    ]


def _toggles_of_leq(atoms: int) -> list[ProxRel]:
    """``<=`` itself, then ``<=`` with each pair of elements toggled."""
    algebra = ALGEBRAS[atoms]
    leq = leq_proximity(algebra)
    every = itertools.product(range(algebra.size), repeat=2)
    return [leq] + [ProxRel(algebra, leq.pairs ^ {pair}) for pair in every]


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
    leq = leq_proximity(algebra)
    rng = random.Random("devries-gate:5")
    every = list(itertools.product(range(algebra.size), repeat=2))
    rels = [leq] + [
        ProxRel(algebra, leq.pairs ^ set(rng.sample(every, rng.randint(1, 3))))
        for _ in range(40)
    ]
    for rel in rels:
        assert _devries_ok(rel) is check_devries(rel).ok is (rel == leq), rel


def test_gate_refuses_six_atoms_as_check_devries_does():
    rel = leq_proximity(ALGEBRAS[6])
    message = "algebra with 64 elements exceeds the exhaustive bound of 32"
    with pytest.raises(ValueError, match=message):
        check_devries(rel)
    with pytest.raises(ValueError, match=message):
        _devries_ok(rel)


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
