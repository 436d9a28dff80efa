import random

import pytest

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
from specker.steps import step_embed, step_leq, to_steps


def test_leq_proximity_shapes(b2, b4):
    assert leq_proximity(b2).pairs == frozenset({(0, 0), (0, 1), (1, 1)})
    assert len(leq_proximity(b4).pairs) == 9


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
        ProxRel(b2, leq_proximity(b2).pairs | {pair})


def test_check_devries_size_guard():
    big = make_algebra([f"a{i}" for i in range(6)])
    with pytest.raises(ValueError, match="exceeds"):
        check_devries(leq_proximity(big))
    # the bound is configurable
    assert check_devries(leq_proximity(big), max_elements=64).ok


def test_enumerate_devries_b2_is_exactly_leq(b2):
    assert enumerate_devries(b2) == [leq_proximity(b2)]


def test_enumerate_devries_b4(b4):
    found = enumerate_devries(b4)
    assert leq_proximity(b4) in found
    leq_pairs = leq_proximity(b4).pairs
    for rel in found:
        assert rel.pairs <= leq_pairs


def test_enumerate_devries_size_guard(b8):
    with pytest.raises(ValueError):
        enumerate_devries(b8)


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
    # (p, 1) is present but nothing interpolates it: the interpolation
    # axiom was deliberately dropped from this relation
    rel = ProxRel(b4, frozenset({(0, 0), (p.mask, b4.full_mask)}))
    with pytest.raises(ValueError, match="no interpolant"):
        interpolant(rel, p, b4.one)


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


def test_monotone_consistency_under_leq(b4):
    # lifting the order relation recovers exactly the pointwise order
    leq = leq_proximity(b4)
    rng = random.Random(73)
    for _ in range(200):
        f = steps_of_pointfn(random_pointfn(rng, b4, 8))
        g = steps_of_pointfn(random_pointfn(rng, b4, 8))
        assert lift_check(leq, f, g) == step_leq(f, g)


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
