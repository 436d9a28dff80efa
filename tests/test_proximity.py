import random

import pytest

from helpers import (
    leq_pairs,
    ref_approximant_mask,
    ref_enumerate_devries,
    ref_interpolant_mask,
)
from specker import proximity
from specker.boolalg import make_algebra
from specker.pointwise import random_pointfn, steps_of_pointfn
from specker.proximity import (
    ProxRel,
    check_devries,
    enumerate_devries,
    interpolant,
    interpolate_lifted,
    leq_proximity,
    lift_check,
    positive_approximant,
    prox_from_json,
    prox_to_json,
    restrict_lift,
    sample_proximity_axioms,
    sample_related_pair,
)
from specker.steps import (
    _assemble_masks,
    random_steps,
    step_add,
    step_embed,
    step_join,
    step_leq,
    step_one,
    step_zero,
    to_steps,
)

# unsorted atom names, so that mask order and name order differ
UNSORTED = {n: make_algebra(["d", "b", "e", "a", "c"][:n]) for n in range(1, 6)}


def test_leq_proximity_shapes(b2, b4):
    b2_leq = leq_proximity(b2)
    assert [b2_leq.pair_at(k) for k in range(b2_leq.count())] == [(0, 0), (0, 1), (1, 1)]
    assert leq_proximity(b4).count() == 9


def test_check_devries_passes_for_leq(b2, b4, b8):
    for alg in (b2, b4, b8):
        report = check_devries(leq_proximity(alg))
        assert report.ok
        assert len(report.results) == 7
        assert report.summary() == "PASS (7 axioms)"


def test_check_devries_d3_counterexample(b2):
    rel = ProxRel(b2, frozenset({(0, 0), (1, 1)}))
    report = check_devries(rel)
    assert not report.ok
    failed = {r.name for r in report.failures()}
    assert "D3" in failed
    d3 = next(r for r in report.results if r.name == "D3")
    # the counterexample re-fails on recheck: same relation, same report
    assert check_devries(rel).results == report.results
    e, f, g, h = d3.counterexample
    assert rel.related(f, g) and e <= f and g <= h and not rel.related(e, h)


def test_check_devries_on_top_closed_relation(b2):
    # every pair with target 1, plus (0,0): on the two-element algebra this
    # is exactly the order relation, so the computed report passes
    rel = ProxRel(b2, frozenset({(0, 1), (1, 1), (0, 0)}))
    report = check_devries(rel)
    assert report.ok
    assert rel == leq_proximity(b2)


@pytest.mark.parametrize("pair", [(0, 7), (7, 1), (2, 1), (1, 2), (-1, 0)])
def test_prox_rel_rejects_masks_outside_the_algebra(b2, pair):
    # such a relation used to pass check_devries (<= plus (0, 7) on one
    # atom) and make check_dv_morphism raise IndexError
    with pytest.raises(ValueError, match="outside the masks 0..1"):
        ProxRel(b2, leq_pairs(b2) | {pair})


def test_check_devries_size_guard(monkeypatch):
    big = make_algebra([f"a{i}" for i in range(6)])
    with pytest.raises(ValueError, match="exceeds the exhaustive bound of 32"):
        check_devries(leq_proximity(big))
    # the bound is the one thing that refuses it
    monkeypatch.setattr(proximity, "_EXHAUSTIVE_BOUND", 64)
    assert check_devries(leq_proximity(big)).ok


def test_enumerate_devries_b2_is_exactly_leq(b2):
    assert enumerate_devries(b2) == ref_enumerate_devries(b2) == [leq_proximity(b2)]


def test_enumerate_devries_b4(b4):
    # the theorem's one proximity, against the search over all relations
    found = enumerate_devries(b4)
    assert found == ref_enumerate_devries(b4) == [leq_proximity(b4)]


def test_enumerate_devries_size_guard(b8):
    # the answer is the theorem's, so only the exhaustive bound limits it
    assert enumerate_devries(b8) == [leq_proximity(b8)]
    five = make_algebra([f"a{i}" for i in range(5)])
    assert enumerate_devries(five) == [leq_proximity(five)]
    six = make_algebra([f"a{i}" for i in range(6)])
    with pytest.raises(ValueError, match="64 elements exceeds the exhaustive bound of 32"):
        enumerate_devries(six)


def test_sampled_suite_checks_the_relation_once(b8):
    from specker.proximity import _devries_ok

    before = _devries_ok.cache_info()
    assert sample_proximity_axioms(leq_proximity(b8), samples=50).ok
    after = _devries_ok.cache_info()
    # one check at most; each draw's own check in sample_related_pair is a cache hit
    assert after.misses - before.misses <= 1


def test_interpolant_examples(b4):
    p, q = b4.atom("p"), b4.atom("q")
    leq = leq_proximity(b4)
    assert interpolant(leq, p, b4.one) == p
    assert interpolant(leq, b4.zero, q) == b4.zero
    with pytest.raises(ValueError, match="related pair"):
        broken = ProxRel(b4, frozenset({(0, 0), (b4.full_mask, b4.full_mask)}))
        interpolant(broken, b4.zero, b4.one)


def test_interpolant_fails_without_witness(b4):
    p = b4.atom("p")
    # (p, 1) is present but nothing interpolates it: the relation is no
    # de Vries proximity, and the gate refuses it after the related check
    # (D6 names the missing interpolant in check_devries's report)
    rel = ProxRel(b4, frozenset({(0, 0), (p.mask, b4.full_mask)}))
    with pytest.raises(ValueError, match="not a de Vries proximity"):
        interpolant(rel, p, b4.one)


@pytest.mark.parametrize("atoms", range(1, 6))
def test_interpolant_matches_the_search(atoms):
    algebra = UNSORTED[atoms]
    leq = leq_proximity(algebra)
    for e, f in map(leq.pair_at, range(leq.count())):
        found = interpolant(leq, algebra.from_mask(e), algebra.from_mask(f))
        assert found.mask == ref_interpolant_mask(leq, e, f) == e


@pytest.mark.parametrize("atoms", range(1, 6))
def test_positive_approximant_matches_the_search(atoms):
    algebra = UNSORTED[atoms]
    leq, zero = leq_proximity(algebra), step_zero(algebra)
    rng = random.Random(atoms)
    for _ in range(100):
        s = step_join(random_steps(rng, algebra, 6), zero)
        if s == zero:
            continue
        witness = ref_approximant_mask(leq, s.idems[-1].mask)
        points = [(0, algebra.full_mask), (s.thresholds[-1], witness)]
        assert positive_approximant(leq, s) == _assemble_masks(algebra, points)


def test_positive_approximant_refuses_another_algebra(b4):
    leq = leq_proximity(b4)
    xyz = make_algebra(["x", "y", "z"])
    for names in (["x", "y"], ["z"]):
        s = step_embed(xyz.element(names))
        with pytest.raises(ValueError, match="mixed algebras: operands belong to"):
            positive_approximant(leq, s)


@pytest.mark.parametrize(
    "axiom, attribute, stand_in",
    [
        # above t, so never an interpolant of s < t
        ("P9", "interpolate_lifted", lambda rel, s, t: step_add(t, step_one(t.algebra))),
        ("P10", "positive_approximant", lambda rel, s: step_zero(s.algebra)),
    ],
    ids=["P9", "P10"],
)
def test_p9_and_p10_check_the_public_constructions(b4, monkeypatch, axiom, attribute, stand_in):
    monkeypatch.setattr(proximity, attribute, stand_in)
    report = sample_proximity_axioms(leq_proximity(b4), samples=20, seed=0)
    assert [result.name for result in report.failures()] == [axiom]


def test_lift_check_examples(b4, s_elem, t_elem):
    leq = leq_proximity(b4)
    sf, tf = to_steps(s_elem), to_steps(t_elem)
    assert lift_check(leq, sf, tf)
    assert not lift_check(leq, tf, sf)
    assert lift_check(leq, sf, sf)


def test_lift_check_requires_devries(b2):
    rel = ProxRel(b2, frozenset({(0, 0), (1, 1)}))
    from specker.steps import step_zero

    with pytest.raises(ValueError, match="not a de Vries proximity"):
        lift_check(rel, step_zero(b2), step_zero(b2))


def test_restrict_lift_round_trips(b2, b4):
    for alg in (b2, b4):
        for rel in enumerate_devries(alg):
            assert restrict_lift(rel) == rel


def test_restrict_lift_embed_example(b4):
    leq = leq_proximity(b4)
    p = b4.atom("p")
    assert lift_check(leq, step_embed(p), step_embed(b4.one))


def test_sampled_axioms_pass_for_leq(b4):
    report = sample_proximity_axioms(leq_proximity(b4), samples=200, coeff_bound=10, seed=0)
    assert report.ok
    assert [r.name for r in report.results] == [f"P{i}" for i in range(1, 11)]


def test_sampled_axioms_deterministic(b4):
    leq = leq_proximity(b4)
    first = sample_proximity_axioms(leq, samples=50, coeff_bound=6, seed=3)
    second = sample_proximity_axioms(leq, samples=50, coeff_bound=6, seed=3)
    assert first.results == second.results


def test_related_pair_sampler_is_sound(b4):
    leq = leq_proximity(b4)
    rng = random.Random(71)
    for _ in range(100):
        s, t = sample_related_pair(rng, leq, 8)
        assert lift_check(leq, s, t)
        assert step_leq(s, t)
    for _ in range(50):
        s, t = sample_related_pair(rng, leq, 8, nonneg=True)
        from specker.steps import step_zero

        assert step_leq(step_zero(b4), s)
        assert step_leq(step_zero(b4), t)


def test_interpolate_lifted_witness(b4, s_elem, t_elem):
    leq = leq_proximity(b4)
    sf, tf = to_steps(s_elem), to_steps(t_elem)
    r = interpolate_lifted(leq, sf, tf)
    assert lift_check(leq, sf, r) and lift_check(leq, r, tf)


def test_positive_approximant_witness(b4, s_elem):
    leq = leq_proximity(b4)
    sf = to_steps(s_elem)  # 2p > 0
    t = positive_approximant(leq, sf)
    # under the order proximity the best witness below p is p itself
    assert t == sf
    from specker.steps import step_zero

    assert step_leq(step_zero(b4), t) and t != step_zero(b4)
    assert lift_check(leq, t, sf)

    with pytest.raises(ValueError, match="positive"):
        positive_approximant(leq, step_zero(b4))


@pytest.mark.parametrize("atoms", range(1, 6))
def test_monotone_consistency_under_leq(atoms):
    # lifting the order relation recovers the order of the atom values
    algebra = UNSORTED[atoms]
    leq = leq_proximity(algebra)
    rng = random.Random(73)
    for _ in range(200):
        pf, pg = random_pointfn(rng, algebra, 8), random_pointfn(rng, algebra, 8)
        f, g = steps_of_pointfn(pf), steps_of_pointfn(pg)
        expected = all(a <= b for a, b in zip(pf.values, pg.values))
        assert lift_check(leq, f, g) == expected


def test_prox_json_round_trip(b2, b4):
    for alg in (b2, b4):
        leq = leq_proximity(alg)
        assert prox_from_json(alg, prox_to_json(leq)) == leq
        assert prox_from_json(alg, {"proximity": "leq"}) == leq
    with pytest.raises(ValueError):
        prox_from_json(b2, {"nope": 1})


def test_sampled_axioms_with_no_samples_fail(b4):
    report = sample_proximity_axioms(leq_proximity(b4), samples=0)
    assert not report.ok
    assert [(r.name, r.passed, r.checked) for r in report.results] == [
        ("P1", True, 2)
    ] + [(f"P{i}", False, 0) for i in range(2, 11)]
    assert str(report.results[1]) == "P2: FAIL (no cases checked)"
    assert report.summary().startswith("FAIL (P2: FAIL (no cases checked), P3: ")


def test_empty_relation_fails_unchecked_axioms(b4):
    # no pair to check is no evidence: D2-D6 fail with no cases checked
    report = check_devries(ProxRel(b4, frozenset()))
    assert [str(result) for result in report.results] == [
        "D1: FAIL (0, 1)",
        "D2: FAIL (no cases checked)",
        "D3: FAIL (no cases checked)",
        "D4: FAIL (no cases checked)",
        "D5: FAIL (no cases checked)",
        "D6: FAIL (no cases checked)",
        "D7: FAIL ([p])",
    ]
    assert [result.checked for result in report.results] == [2, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("bound", [0, -1, -5])
def test_sample_proximity_axioms_rejects_coeff_bound_below_1(b4, bound):
    with pytest.raises(ValueError, match=f"coeff_bound must be at least 1, got {bound}"):
        sample_proximity_axioms(leq_proximity(b4), samples=3, coeff_bound=bound)


@pytest.mark.parametrize("bound", [0, -1])
def test_sample_related_pair_rejects_coeff_bound_below_1(b4, bound):
    # 0 would give only the constant pair, -1 an empty range; no draw is made
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"coeff_bound must be at least 1, got {bound}"):
        sample_related_pair(rng, leq_proximity(b4), bound)
    assert rng.getstate() == state


def test_a_failing_sample_is_witnessed_by_its_drawn_operands():
    drawn = iter(range(10))
    results = []
    proximity._record_sampled(
        results, 5, [("A", lambda: (next(drawn), "x"), lambda k, x: k < 2)]
    )
    assert str(results[0]) == "A: FAIL (2, x)"
    assert results[0].checked == 3
    assert results[0].counterexample == (2, "x")


def test_a_sampled_case_that_raises_fails_its_own_check_only():
    # A raises in its draw and B in its predicate, each at its third
    # sample; both count that sample, and C still runs all five
    calls = []

    def draw(name):
        def drawn():
            calls.append(f"draw {name}")
            if name == "A" and calls.count("draw A") == 3:
                raise ValueError("thresholds must strictly increase")
            return (calls.count(f"draw {name}"),)

        return drawn

    def holds(name):
        def decide(k):
            calls.append(f"holds {name}")
            if name == "B" and k == 3:
                raise ValueError("a positive approximant needs s > 0")
            return True

        return decide

    results = []
    proximity._record_sampled(
        results, 5, [(name, draw(name), holds(name)) for name in "ABC"]
    )
    assert calls == (
        ["draw A", "holds A"] * 2 + ["draw A"]
        + ["draw B", "holds B"] * 3
        + ["draw C", "holds C"] * 5
    )
    assert [str(result) for result in results] == [
        "A: FAIL (thresholds must strictly increase)",
        "B: FAIL (a positive approximant needs s > 0)",
        "C: pass (5 checks)",
    ]
    assert [result.checked for result in results] == [3, 3, 5]
    assert results[0].counterexample == ("thresholds must strictly increase",)
    assert results[1].counterexample == ("a positive approximant needs s > 0",)
