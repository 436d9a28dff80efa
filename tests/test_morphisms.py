import itertools
import random

import pytest

from helpers import leq_pairs
from specker.morphisms import (
    DVMorphism,
    ProxMorphism,
    apply_prox_morphism,
    check_dv_morphism,
    enumerate_boolean_homs,
    eta,
    functor_id,
    functor_sp,
    identity_dv,
    identity_prox,
    lift_morphism,
    morphism_from_json,
    morphism_to_json,
    naturality_check,
    restrict_prox_morphism,
    sample_morphism_axioms,
    star_compose_dv,
    star_compose_prox,
    tau,
)
from specker.pointwise import random_pointfn, steps_of_pointfn
from specker.proximity import ProxRel, leq_proximity, lift_check
from specker.steps import (
    from_decomposition,
    decreasing_decomposition,
    step_const,
    step_embed,
    step_join,
    step_leq,
    step_meet,
    step_zero,
    to_steps,
)


@pytest.fixture
def leq4(b4):
    return leq_proximity(b4)


@pytest.fixture
def at_p(b4, b2):
    """The boolean homomorphism that evaluates at the atom p."""
    p = b4.atom("p")
    return next(h for h in enumerate_boolean_homs(b4, b2) if h.apply(p).is_one)


def test_enumerate_hom_counts(b2, b4):
    assert len(enumerate_boolean_homs(b4, b2)) == 2
    assert len(enumerate_boolean_homs(b2, b4)) == 1
    assert len(enumerate_boolean_homs(b4, b4)) == 4
    only = enumerate_boolean_homs(b2, b4)[0]
    assert only.apply(b2.zero).is_zero and only.apply(b2.one).is_one


def test_check_dv_morphism_passes_for_homs(b2, b4):
    algebras = (b2, b4)
    for source, target in itertools.product(algebras, repeat=2):
        for hom in enumerate_boolean_homs(source, target):
            assert check_dv_morphism(hom).ok


def test_check_dv_morphism_identity(leq4):
    assert check_dv_morphism(identity_dv(leq4)).ok


def test_check_dv_morphism_m2_counterexample(b4, leq4):
    p, q = b4.atom("p"), b4.atom("q")
    # send 0 to 0 and everything else to 1: meets are not preserved
    table = tuple(0 if mask == 0 else b4.full_mask for mask in range(b4.size))
    broken = DVMorphism(leq4, leq4, table)
    report = check_dv_morphism(broken)
    assert not report.ok
    m2 = next(r for r in report.results if r.name == "M2")
    assert not m2.passed
    assert m2.counterexample == (p, q)


def test_lift_morphism_examples(b4, b2, at_p, s_elem, t_elem):
    lifted = lift_morphism(at_p)
    sf, tf = to_steps(s_elem), to_steps(t_elem)
    assert apply_prox_morphism(lifted, sf) == step_const(b2, 2)
    assert apply_prox_morphism(lifted, tf) == step_const(b2, 3)
    p = b4.atom("p")
    assert apply_prox_morphism(lifted, step_embed(p)) == step_embed(at_p.apply(p))


def test_lift_identity_acts_trivially(b4, leq4):
    rng = random.Random(79)
    ident = identity_prox(leq4)
    for _ in range(50):
        f = steps_of_pointfn(random_pointfn(rng, b4, 8))
        assert apply_prox_morphism(ident, f) == f


def test_lift_rejects_invalid_morphism(b4, leq4):
    table = tuple(0 if mask == 0 else b4.full_mask for mask in range(b4.size))
    with pytest.raises(ValueError, match="invalid source morphism"):
        lift_morphism(DVMorphism(leq4, leq4, table))


def test_apply_decomposition_formula(b4, b2, at_p, s_elem, t_elem):
    lifted = lift_morphism(at_p)
    for elem, expected in ((s_elem, 2), (t_elem, 3)):
        f = to_steps(elem)
        a0, pairs = decreasing_decomposition(f)
        rebuilt = from_decomposition(
            b2, a0, [(b, at_p.apply(e)) for b, e in pairs]
        )
        assert rebuilt == apply_prox_morphism(lifted, f) == step_const(b2, expected)
    # constants map to constants
    assert apply_prox_morphism(lifted, step_const(b4, -7)) == step_const(b2, -7)


def test_sampled_morphism_axioms_pass(b2, b4):
    for source, target in itertools.product((b2, b4), repeat=2):
        for hom in enumerate_boolean_homs(source, target):
            report = sample_morphism_axioms(
                lift_morphism(hom), samples=60, coeff_bound=6, seed=0
            )
            assert report.ok, report.summary()
            assert [r.name for r in report.results] == [
                "M1", "M2", "M3", "M4", "M5", "M6", "M7",
            ]


def test_corrupted_action_fails_m2(b4, leq4):
    # replace every image with its constant upper bound: meets break
    broken = ProxMorphism(
        leq4,
        leq4,
        action=lambda f: step_const(f.algebra, f.thresholds[-1]),
        label="corrupted",
    )
    report = sample_morphism_axioms(broken, samples=100, coeff_bound=6, seed=0)
    m2 = next(r for r in report.results if r.name == "M2")
    assert not m2.passed
    assert m2.counterexample  # carries the offending pair
    s, t = m2.counterexample
    again = broken.action(step_meet(s, t)) == step_meet(broken.action(s), broken.action(t))
    assert not again  # the witness re-fails on recheck


def test_restriction_round_trips(b2, b4):
    for source, target in itertools.product((b2, b4), repeat=2):
        for hom in enumerate_boolean_homs(source, target):
            assert restrict_prox_morphism(lift_morphism(hom)).table == hom.table


def test_star_compose_dv_is_plain_composition_for_homs(b2, b4, at_p):
    into = enumerate_boolean_homs(b2, b4)[0]
    composed = star_compose_dv(at_p, into)  # b2 -> b4 -> b2
    assert composed.table == tuple(at_p.table[into.table[e]] for e in range(b2.size))


def test_star_compose_units(b4, b2, at_p, leq4):
    ident_src = identity_dv(leq4)
    ident_tgt = identity_dv(leq_proximity(b2))
    assert star_compose_dv(at_p, ident_src).table == at_p.table
    assert star_compose_dv(ident_tgt, at_p).table == at_p.table


def test_star_compose_dv_associative(b2, b4):
    algebras = (b2, b4)
    for a, b, c, d in itertools.product(algebras, repeat=4):
        for m1 in enumerate_boolean_homs(a, b):
            for m2 in enumerate_boolean_homs(b, c):
                for m3 in enumerate_boolean_homs(c, d):
                    left = star_compose_dv(m3, star_compose_dv(m2, m1))
                    right = star_compose_dv(star_compose_dv(m3, m2), m1)
                    assert left.table == right.table


def test_star_compose_endpoint_mismatch(b4, b2, at_p):
    with pytest.raises(ValueError, match="endpoints"):
        star_compose_dv(at_p, at_p)


def test_star_compose_prox_agrees_with_composite_hom(b2, b4, at_p, s_elem):
    into = enumerate_boolean_homs(b2, b4)[0]
    p_outer = lift_morphism(at_p)
    p_inner = lift_morphism(into)
    composite = star_compose_prox(p_outer, p_inner)
    direct = lift_morphism(star_compose_dv(at_p, into))
    rng = random.Random(83)
    for _ in range(50):
        f = steps_of_pointfn(random_pointfn(rng, b2, 8))
        assert apply_prox_morphism(composite, f) == apply_prox_morphism(direct, f)


def test_star_compose_prox_unit_and_assoc(b4, b2, at_p, leq4, s_elem):
    sf = to_steps(s_elem)
    lifted = lift_morphism(at_p)
    ident = identity_prox(leq4)
    assert apply_prox_morphism(
        star_compose_prox(lifted, ident), sf
    ) == apply_prox_morphism(lifted, sf)

    into = lift_morphism(enumerate_boolean_homs(b2, b4)[0])
    swap = lift_morphism(
        next(
            h
            for h in enumerate_boolean_homs(b4, b4)
            if h.apply(b4.atom("p")) == b4.atom("q")
            and h.apply(b4.atom("q")) == b4.atom("p")
        )
    )
    left = star_compose_prox(lifted, star_compose_prox(swap, into))
    right = star_compose_prox(star_compose_prox(lifted, swap), into)
    probe = from_decomposition(b2, -1, [(3, b2.one)])
    assert apply_prox_morphism(left, probe) == apply_prox_morphism(right, probe)
    assert restrict_prox_morphism(left).table == restrict_prox_morphism(right).table


def test_functor_round_trips(b2, b4):
    for alg in (b2, b4):
        rel = leq_proximity(alg)
        assert functor_id(functor_sp(rel)) == rel
        assert functor_sp(functor_id(rel)) == rel


def test_functor_laws(b2, b4):
    homs = [
        hom
        for source, target in itertools.product((b2, b4), repeat=2)
        for hom in enumerate_boolean_homs(source, target)
    ]
    # identities are preserved in both directions
    for alg in (b2, b4):
        rel = leq_proximity(alg)
        assert restrict_prox_morphism(identity_prox(rel)).table == identity_dv(rel).table
    # composition is preserved: lifting then restricting a star composite
    # recovers the boolean-level star composite, exhaustively
    rng = random.Random(101)
    for m1 in homs:
        for m2 in homs:
            if m2.source != m1.target:
                continue
            composite_prox = star_compose_prox(lift_morphism(m2), lift_morphism(m1))
            composite_dv = star_compose_dv(m2, m1)
            assert restrict_prox_morphism(composite_prox).table == composite_dv.table
            f = steps_of_pointfn(random_pointfn(rng, m1.source.algebra, 8))
            assert apply_prox_morphism(composite_prox, f) == apply_prox_morphism(
                lift_morphism(composite_dv), f
            )


def test_functor_morphism_round_trips(b2, b4):
    for source, target in itertools.product((b2, b4), repeat=2):
        for hom in enumerate_boolean_homs(source, target):
            lifted = lift_morphism(hom)
            assert restrict_prox_morphism(lifted).table == hom.table


def test_tau_is_an_isomorphism(b4, leq4):
    images = {tau(e) for e in b4.elements()}
    assert len(images) == b4.size
    for e, f in itertools.product(b4.elements(), repeat=2):
        assert step_meet(tau(e), tau(f)) == tau(e & f)
        assert step_join(tau(e), tau(f)) == tau(e | f)
        assert lift_check(leq4, tau(e), tau(f)) == leq4.related(e, f)
    assert tau(b4.one) == step_const(b4, 1)
    assert tau(b4.zero) == step_zero(b4)


def test_tau_example_on_b2(b2):
    assert tau(b2.one).thresholds == (1,)
    assert tau(b2.one).idems == (b2.one,)


def test_eta_is_an_isomorphism(b4, leq4):
    iso = eta(leq4)
    rng = random.Random(89)
    from specker.steps import step_add

    for _ in range(100):
        f = steps_of_pointfn(random_pointfn(rng, b4, 8))
        g = steps_of_pointfn(random_pointfn(rng, b4, 8))
        assert iso.action(f) == f  # identity in this concretization
        assert iso.action(step_add(f, g)) == step_add(iso.action(f), iso.action(g))
        assert lift_check(leq4, iso.action(f), iso.action(g)) == lift_check(leq4, f, g)


def test_naturality_check_all_homs(b2, b4):
    for source, target in itertools.product((b2, b4), repeat=2):
        for hom in enumerate_boolean_homs(source, target):
            report = naturality_check(hom, samples=50, seed=0)
            assert report.ok, report.summary()
            assert {r.name for r in report.results} == {"tau-square", "eta-square"}


def test_naturality_check_refuses_a_relation_that_is_not_de_vries(b4, leq4):
    # <= without [p] < 1: the identity on it passes M1-M4, the relation fails D1-D7
    rel = ProxRel(b4, leq_pairs(b4) - {(1, 3)})
    m = identity_dv(rel)
    assert check_dv_morphism(m).ok
    with pytest.raises(ValueError, match="relation is not a de Vries proximity"):
        naturality_check(m, samples=5)


def test_lift_and_star_compose_refuse_a_relation_that_is_not_de_vries(b4, leq4):
    # the relation of the test above: M1-M4 pass, the gate refuses it
    m = identity_dv(ProxRel(b4, leq_pairs(b4) - {(1, 3)}))
    calls = {
        "lift_morphism": lambda: lift_morphism(m),
        "star_compose_dv": lambda: star_compose_dv(m, m),
        "identity_prox": lambda: identity_prox(m.source),
        "eta": lambda: eta(m.source),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="^relation is not a de Vries proximity$"):
            call()
            pytest.fail(name)


def test_star_compose_refuses_an_operand_that_fails_m1_to_m4(b4, leq4):
    not_hom = DVMorphism(leq4, leq4, (0, 1, 1, 3))  # q goes to p
    ident = identity_dv(leq4)
    for m2, m1 in ((not_hom, ident), (ident, not_hom)):
        with pytest.raises(ValueError, match="^invalid source morphism: FAIL"):
            star_compose_dv(m2, m1)


def test_lifted_morphisms_are_monotone(b4, b2, at_p):
    lifted = lift_morphism(at_p)
    rng = random.Random(97)
    for _ in range(100):
        f = steps_of_pointfn(random_pointfn(rng, b4, 8))
        g = steps_of_pointfn(random_pointfn(rng, b4, 8))
        if step_leq(f, g):
            assert step_leq(lifted.action(f), lifted.action(g))
        low = step_meet(f, g)
        assert step_leq(lifted.action(low), lifted.action(f))


def test_morphism_json_round_trip(at_p):
    restored = morphism_from_json(morphism_to_json(at_p))
    assert restored.table == at_p.table
    assert restored.source == at_p.source
    assert restored.target == at_p.target
    with pytest.raises(ValueError):
        morphism_from_json({"source": {}, "target": {}})


def test_morphism_json_requires_total_map(at_p):
    obj = morphism_to_json(at_p)
    del obj["map"]["[p]"]
    with pytest.raises(ValueError, match="cover"):
        morphism_from_json(obj)


def test_sampled_morphism_axioms_with_no_samples_fail(b4, leq4):
    report = sample_morphism_axioms(identity_prox(leq4), samples=0)
    assert not report.ok
    assert [(r.name, r.passed, r.checked) for r in report.results] == [
        ("M1", True, 1)
    ] + [(f"M{i}", False, 0) for i in range(2, 8)]
    assert report.summary().startswith("FAIL (M2: FAIL (no cases checked), M3: ")


def test_naturality_check_with_no_samples_fails(b4, leq4):
    report = naturality_check(identity_dv(leq4), samples=0)
    assert [(r.name, r.passed, r.checked) for r in report.results] == [
        ("tau-square", True, 4),
        ("eta-square", False, 0),
    ]


def test_morphism_out_of_empty_relation_fails_m3(b4, leq4):
    # the empty relation gives M3 no case: that fails, it does not pass
    m = DVMorphism(ProxRel(b4, frozenset()), leq4, (0, 0, 0, 0))
    report = check_dv_morphism(m)
    assert report.summary() == "FAIL (M3: FAIL (no cases checked))"
    assert [result.checked for result in report.results] == [1, 16, 0, 4]


@pytest.mark.parametrize("bound", [0, -1])
def test_sample_morphism_axioms_rejects_coeff_bound_below_1(leq4, bound):
    pm = lift_morphism(identity_dv(leq4))
    with pytest.raises(ValueError, match=f"coeff_bound must be at least 1, got {bound}"):
        sample_morphism_axioms(pm, samples=3, coeff_bound=bound)
