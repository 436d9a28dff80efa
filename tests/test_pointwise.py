import itertools
import json
import random
from fractions import Fraction

import pytest

import specker
from specker.boolalg import make_algebra
from specker.orthogonal import orth_add
from specker.pointwise import (
    PointFn,
    atom_values,
    oracle_diff,
    orth_of_pointfn,
    pointwise_apply,
    random_pointfn,
    steps_of_pointfn,
)
from specker.steps import StepElem, step_add, step_one, to_steps


def test_atom_values_examples(b4, s_elem, t_elem):
    assert atom_values(s_elem) == PointFn(b4, (2, 0))
    assert atom_values(step_one(b4)) == PointFn(b4, (1, 1))
    assert atom_values(to_steps(t_elem)) == PointFn(b4, (3, 1))


def test_pointwise_apply_examples(b4):
    pa = PointFn(b4, (2, 0))
    pb = PointFn(b4, (3, 1))
    assert pointwise_apply("add", [pa, pb]) == PointFn(b4, (5, 1))
    assert pointwise_apply("min", [pa, pb]) == PointFn(b4, (2, 0))
    assert pointwise_apply("max", [pa, pb]) == PointFn(b4, (3, 1))
    assert pointwise_apply("scalar", [pa], scalar=3) == PointFn(b4, (6, 0))
    assert pointwise_apply("neg", [pa]) == PointFn(b4, (-2, 0))
    with pytest.raises(ValueError):
        pointwise_apply("add", [pa])
    with pytest.raises(ValueError):
        pointwise_apply("frobnicate", [pa, pb])


def test_pointfn_validation(b4):
    with pytest.raises(ValueError):
        PointFn(b4, (1,))


def test_bijection_exhaustive_small_values(b4):
    span = range(-3, 4)
    seen = set()
    for values in itertools.product(span, repeat=2):
        pf = PointFn(b4, values)
        orth = orth_of_pointfn(pf)
        assert atom_values(orth) == pf
        seen.add(orth)
    # distinct valuations give distinct canonical elements: a bijection
    assert len(seen) == 7 ** 2


def test_steps_and_orth_have_same_pointwise_semantics(b4, b8):
    rng = random.Random(61)
    for algebra in (b4, b8):
        for _ in range(100):
            pf = random_pointfn(rng, algebra, 9)
            assert atom_values(orth_of_pointfn(pf)) == pf
            assert atom_values(steps_of_pointfn(pf)) == pf
            assert atom_values(to_steps(orth_of_pointfn(pf))) == pf


def test_random_pointfn_domains(b4):
    rng = random.Random(67)
    ints = random_pointfn(rng, b4, 5, domain="int")
    assert all(isinstance(v, int) and -5 <= v <= 5 for v in ints.values)
    fracs = random_pointfn(rng, b4, 5, domain="fraction")
    assert all(-5 <= v <= 5 for v in fracs.values)
    with pytest.raises(ValueError):
        random_pointfn(rng, b4, 5, domain="float")


def test_oracle_diff_clean_pass(b4):
    records = oracle_diff(b4, seed=1, samples=200, coeff_bound=10)
    assert records and all(r["status"] == "pass" for r in records)
    ops = {r["op"] for r in records}
    assert {"orth_add", "orth_mul", "step_add", "step_neg", "step_leq"} <= ops
    # records are JSON-serializable (the report format is JSON lines)
    for record in records:
        parsed = json.loads(json.dumps(record))
        assert {"op", "seed", "case", "status"} <= set(parsed)


def test_oracle_diff_deterministic(b4):
    first = oracle_diff(b4, seed=9, samples=50, coeff_bound=6)
    second = oracle_diff(b4, seed=9, samples=50, coeff_bound=6)
    assert first == second


def test_oracle_diff_fault_injection(b4, monkeypatch):
    def broken_step_add(f, g):
        true = step_add(f, g)
        return StepElem(
            true.algebra, tuple(t + 1 for t in true.thresholds), true.idems
        )

    # the runner looks each operation up on its module, so patching it there
    # is the fault; pytest refuses a misspelt name
    monkeypatch.setattr(specker.steps, "step_add", broken_step_add)
    records = oracle_diff(b4, seed=1, samples=100, coeff_bound=6)
    by_op = {r["op"]: r for r in records}
    assert by_op["step_add"]["status"] == "fail"
    assert "witness" in by_op["step_add"]
    assert by_op["orth_add"]["status"] == "pass"


def test_oracle_diff_zero_samples_vacuous(b4):
    # a check of nothing is no evidence: every operation fails, no witness
    records = oracle_diff(b4, seed=1, samples=0, coeff_bound=10)
    assert len(records) == 18
    assert all(r["status"] == "fail" and r["case"] == 0 for r in records)
    assert not any("witness" in r for r in records)


@pytest.mark.parametrize("bound", [0, -1])
def test_oracle_diff_rejects_coeff_bound_below_1(b4, bound):
    with pytest.raises(ValueError, match=f"coeff_bound must be at least 1, got {bound}"):
        oracle_diff(b4, samples=3, coeff_bound=bound)


@pytest.mark.parametrize("domain", ["int", "fraction"])
@pytest.mark.parametrize("bound", [0, -1])
def test_random_pointfn_rejects_bound_below_1(b4, bound, domain):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"coeff_bound must be at least 1, got {bound}"):
        random_pointfn(rng, b4, bound, domain)
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("atoms", range(1, 7))
def test_oracle_diff_passes_on_fraction_values(atoms, seed):
    algebra = make_algebra([f"a{i}" for i in range(atoms)])
    records = oracle_diff(algebra, seed=seed, samples=20, domain="fraction")
    assert len(records) == 18 and all(r["status"] == "pass" for r in records)


def test_oracle_diff_draws_elements_from_its_domain(b4, monkeypatch):
    seen = {}

    def recording_add(f, g):
        seen.setdefault(domain, set()).update(map(type, f.values() + g.values()))
        return orth_add(f, g)

    monkeypatch.setattr(specker.orthogonal, "orth_add", recording_add)
    for domain in ("int", "fraction"):
        oracle_diff(b4, seed=2, samples=10, domain=domain)
    monkeypatch.undo()
    assert seen == {"int": {int}, "fraction": {Fraction}}
    # int is the default, so earlier runs replay unchanged
    assert oracle_diff(b4, seed=2, samples=5) == oracle_diff(b4, seed=2, samples=5, domain="int")
    with pytest.raises(ValueError, match="unknown coefficient domain: 'real'"):
        oracle_diff(b4, samples=0, domain="real")
