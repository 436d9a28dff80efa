"""Acceptance suite.

Each test realizes one acceptance criterion at its stated sample count
and tolerance (exact equality throughout; nothing here is approximate)
and prints one PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import itertools
import random

from helpers import (
    _lattice_by_formula,
    random_term,
    ref_enumerate_devries,
    step_mul_nonneg_formula,
    term_oracle,
)
from specker.boolalg import make_algebra
from specker.morphisms import (
    apply_prox_morphism,
    check_dv_morphism,
    enumerate_boolean_homs,
    eta,
    functor_id,
    functor_sp,
    identity_dv,
    lift_morphism,
    naturality_check,
    restrict_prox_morphism,
    sample_morphism_axioms,
    star_compose_dv,
    star_compose_prox,
    tau,
)
from specker.orthogonal import (
    annihilator_idempotent,
    orth_add,
    orth_embed,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
)
from specker.pointwise import (
    PointFn,
    atom_values,
    orth_of_pointfn,
    pointwise_apply,
    random_pointfn,
    steps_of_pointfn,
)
from specker.proximity import (
    enumerate_devries,
    leq_proximity,
    lift_check,
    restrict_lift,
    sample_proximity_axioms,
)
from specker.steps import (
    decreasing_decomposition,
    from_decomposition,
    step_const,
    step_embed,
    step_join,
    step_leq,
    step_meet,
    step_mul_nonneg,
    step_neg,
    step_scale,
    step_scale_pos,
    step_sub,
    step_add,
    step_zero,
    to_orth,
    to_steps,
)
from specker.terms import default_binding, normalize_term, parse_term

B2 = make_algebra(["x"])
B4 = make_algebra(["p", "q"])
B8 = make_algebra(["a", "b", "c"])


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_isomorphism_suite():
    ok = True
    for algebra in (B2, B4, B8):
        rng = random.Random(f"acceptance-1:{algebra.atoms}")
        for _ in range(200):
            pa = random_pointfn(rng, algebra, 10)
            pb = random_pointfn(rng, algebra, 10)
            f, g = orth_of_pointfn(pa), orth_of_pointfn(pb)
            b = rng.randint(-10, 10)
            ok = ok and orth_add(f, g) == orth_of_pointfn(
                pointwise_apply("add", [pa, pb])
            )
            ok = ok and orth_mul(f, g) == orth_of_pointfn(
                pointwise_apply("mul", [pa, pb])
            )
            ok = ok and f * g == orth_mul(f, g)
            from specker.orthogonal import orth_scale

            ok = ok and orth_scale(b, f) == orth_of_pointfn(
                pointwise_apply("scalar", [pa], scalar=b)
            )
    _report(1, "isomorphism suite", ok)


def test_02_bijection_and_triangle():
    ok = True
    count = 0
    for values in itertools.product(range(-3, 4), repeat=2):
        count += 1
        pf = PointFn(B4, values)
        orth = orth_of_pointfn(pf)
        steps = to_steps(orth)
        ok = ok and to_orth(steps) == orth  # inverse after forward
        independent = steps_of_pointfn(pf)  # direct decreasing construction
        ok = ok and steps == independent  # the triangle commutes
        ok = ok and to_steps(to_orth(independent)) == independent
    ok = ok and count == 49
    _report(2, "bijection and triangle", ok)


def test_03_step_formula_suite():
    rng = random.Random("acceptance-3")
    ok = True
    for _ in range(200):
        pa = random_pointfn(rng, B4, 10)
        pb = random_pointfn(rng, B4, 10)
        f, g = steps_of_pointfn(pa), steps_of_pointfn(pb)
        ok = ok and step_add(f, g) == to_steps(orth_add(to_orth(f), to_orth(g)))
        ok = ok and step_neg(f) == to_steps(
            orth_mul(to_orth(f), to_orth(step_const(B4, -1)))
        )
        b = rng.randint(1, 10)
        from specker.orthogonal import orth_scale

        ok = ok and step_scale_pos(b, f) == to_steps(orth_scale(b, to_orth(f)))
        fa = step_join(f, step_zero(B4))
        ga = step_join(g, step_zero(B4))
        product = step_mul_nonneg(fa, ga)
        ok = ok and product == to_steps(orth_mul(to_orth(fa), to_orth(ga)))
        # the paper's formula, evaluated at every candidate threshold
        ok = ok and product == step_mul_nonneg_formula(fa, ga)
        a = rng.randint(-10, 10)
        ok = ok and step_scale(a, f) == to_steps(orth_scale(a, to_orth(f)))
    _report(3, "step formula suite", ok)


def test_04_order_suite():
    rng = random.Random("acceptance-4")
    ok = True
    for case in range(500):
        algebra = B4 if case % 2 == 0 else B8
        pa = random_pointfn(rng, algebra, 10)
        pb = random_pointfn(rng, algebra, 10)
        f, g = orth_of_pointfn(pa), orth_of_pointfn(pb)
        fs, gs = steps_of_pointfn(pa), steps_of_pointfn(pb)
        by_cone = orth_leq(f, g)
        by_pointwise_steps = step_leq(fs, gs)
        by_oracle = all(a <= b for a, b in zip(pa.values, pb.values))
        ok = ok and by_cone == by_pointwise_steps == by_oracle

        meet_refined = orth_meet(f, g)
        meet_formula = _lattice_by_formula(f, g, min)
        meet_steps = to_orth(step_meet(fs, gs))
        meet_oracle = orth_of_pointfn(pointwise_apply("min", [pa, pb]))
        ok = ok and meet_refined == meet_formula == meet_steps == meet_oracle

        join_refined = orth_join(f, g)
        join_formula = _lattice_by_formula(f, g, max)
        join_steps = to_orth(step_join(fs, gs))
        join_oracle = orth_of_pointfn(pointwise_apply("max", [pa, pb]))
        ok = ok and join_refined == join_formula == join_steps == join_oracle
    _report(4, "order suite", ok)


def test_05_truncation_identity():
    rng = random.Random("acceptance-5")
    ok = True
    checked = 0
    while checked < 200:
        orth = orth_of_pointfn(random_pointfn(rng, B4, 10))
        a = rng.randint(-13, 13)
        b = rng.randint(-13, 13)
        if a >= b or any(a < v < b for v in orth.values()):
            continue
        checked += 1
        f = to_steps(orth)
        left = step_sub(
            step_meet(f, step_const(B4, b)), step_meet(f, step_const(B4, a))
        )
        right = step_scale(b - a, step_embed(f.value(b)))
        ok = ok and left == right
    _report(5, "truncation identity", ok)


def test_06_presentation_suite():
    ok = True
    relators = {
        name: parse_term(text)
        for name, text in {
            "meet": "x_m - x_a*x_b",
            "join": "x_j - (x_a + x_b - x_a*x_b)",
            "complement": "x_c - (1 - x_a)",
            "bottom": "x_z",
        }.items()
    }
    from specker.orthogonal import orth_zero

    zero = orth_zero(B4)
    for e, f in itertools.product(B4.elements(), repeat=2):
        binding = {
            "x_a": e,
            "x_b": f,
            "x_m": e & f,
            "x_j": e | f,
            "x_c": ~e,
            "x_z": B4.zero,
        }
        for term in relators.values():
            ok = ok and normalize_term(term, B4, binding) == zero

    rng = random.Random("acceptance-6")
    binding = default_binding(B4)
    names = sorted(binding)
    for _ in range(200):
        term = random_term(rng, names, depth=5)
        ok = ok and atom_values(normalize_term(term, B4, binding)) == term_oracle(
            term, B4, binding
        )
    _report(6, "presentation suite", ok)


def test_07_proximity_suite():
    ok = True
    for algebra in (B2, B4):
        # the construction, against the search over all relations
        found = enumerate_devries(algebra)
        ok = ok and found == ref_enumerate_devries(algebra) == [leq_proximity(algebra)]
        for rel in found:
            report = sample_proximity_axioms(rel, samples=200, coeff_bound=10, seed=0)
            ok = ok and report.ok
            ok = ok and restrict_lift(rel) == rel
    _report(7, "proximity suite", ok)


def _all_homs():
    for source in (B2, B4):
        for target in (B2, B4):
            for hom in enumerate_boolean_homs(source, target):
                yield hom


def test_08_morphism_suite():
    ok = True
    homs = list(_all_homs())
    for hom in homs:
        ok = ok and check_dv_morphism(hom).ok
        lifted = lift_morphism(hom)
        report = sample_morphism_axioms(lifted, samples=200, coeff_bound=10, seed=0)
        ok = ok and report.ok
        ok = ok and restrict_prox_morphism(lifted).table == hom.table

    # star composition: associative and unital at the idempotent level
    for m1 in homs:
        left_unit = star_compose_dv(identity_dv(m1.target), m1)
        right_unit = star_compose_dv(m1, identity_dv(m1.source))
        ok = ok and left_unit.table == m1.table == right_unit.table
        for m2 in homs:
            if m2.source != m1.target:
                continue
            for m3 in homs:
                if m3.source != m2.target:
                    continue
                assoc_left = star_compose_dv(m3, star_compose_dv(m2, m1))
                assoc_right = star_compose_dv(star_compose_dv(m3, m2), m1)
                ok = ok and assoc_left.table == assoc_right.table

    # the two element-level computations of star composition agree, and
    # unit/associativity laws also hold on sampled elements
    rng = random.Random("acceptance-8")
    composable = [
        (m2, m1) for m1 in homs for m2 in homs if m2.source == m1.target
    ]
    for m2, m1 in composable:
        composed = star_compose_prox(lift_morphism(m2), lift_morphism(m1))
        table = restrict_prox_morphism(composed)
        for _ in range(100 // len(composable) + 1):
            f = steps_of_pointfn(random_pointfn(rng, m1.source.algebra, 10))
            via_lift = composed.action(f)
            a0, pairs = decreasing_decomposition(f)
            via_decomposition = from_decomposition(
                m2.target.algebra,
                a0,
                [(b, table.apply(e)) for b, e in pairs],
            )
            ok = ok and via_lift == via_decomposition
            ok = ok and apply_prox_morphism(composed, f) == via_lift

    from specker.morphisms import identity_prox

    for hom in homs:
        lifted = lift_morphism(hom)
        left_unit = star_compose_prox(identity_prox(hom.target), lifted)
        right_unit = star_compose_prox(lifted, identity_prox(hom.source))
        for _ in range(13):
            f = steps_of_pointfn(random_pointfn(rng, hom.source.algebra, 10))
            image = apply_prox_morphism(lifted, f)
            ok = ok and apply_prox_morphism(left_unit, f) == image
            ok = ok and apply_prox_morphism(right_unit, f) == image
    for m1 in homs:
        for m2 in homs:
            if m2.source != m1.target:
                continue
            for m3 in homs:
                if m3.source != m2.target:
                    continue
                p1, p2, p3 = map(lift_morphism, (m1, m2, m3))
                assoc_left = star_compose_prox(p3, star_compose_prox(p2, p1))
                assoc_right = star_compose_prox(star_compose_prox(p3, p2), p1)
                f = steps_of_pointfn(random_pointfn(rng, m1.source.algebra, 10))
                ok = ok and apply_prox_morphism(assoc_left, f) == apply_prox_morphism(
                    assoc_right, f
                )
    _report(8, "morphism suite", ok)


def test_09_equivalence_suite():
    ok = True
    for algebra in (B2, B4):
        rel = leq_proximity(algebra)
        ok = ok and functor_id(functor_sp(rel)) == rel
        ok = ok and functor_sp(functor_id(rel)) == rel
        # tau is a boolean isomorphism preserving and reflecting proximity
        images = set()
        for e in algebra.elements():
            images.add(tau(e))
            for f in algebra.elements():
                ok = ok and step_meet(tau(e), tau(f)) == tau(e & f)
                ok = ok and step_join(tau(e), tau(f)) == tau(e | f)
                ok = ok and lift_check(rel, tau(e), tau(f)) == rel.related(e, f)
        ok = ok and len(images) == algebra.size
        # eta preserves and reflects the lifted proximity and the operations
        iso = eta(rel)
        rng = random.Random(f"acceptance-9:{algebra.atoms}")
        for _ in range(100):
            f = steps_of_pointfn(random_pointfn(rng, algebra, 10))
            g = steps_of_pointfn(random_pointfn(rng, algebra, 10))
            ok = ok and iso.action(step_add(f, g)) == step_add(
                iso.action(f), iso.action(g)
            )
            ok = ok and lift_check(rel, iso.action(f), iso.action(g)) == lift_check(
                rel, f, g
            )
    for hom in _all_homs():
        report = naturality_check(hom, samples=100, seed=0)
        ok = ok and report.ok
    _report(9, "equivalence suite", ok)


def test_10_baer_suite():
    ok = True
    elems = [
        orth_of_pointfn(PointFn(B4, values))
        for values in itertools.product(range(-2, 3), repeat=2)
    ]
    zero_elem = orth_of_pointfn(PointFn(B4, (0, 0)))
    generator_lists = [[g] for g in elems] + [
        list(pair) for pair in itertools.combinations(elems, 2)
    ]
    for gens in generator_lists:
        e = annihilator_idempotent(gens)
        embedded = orth_embed(e)
        ok = ok and e == e & e  # idempotent by construction
        ok = ok and all(orth_mul(embedded, g) == zero_elem for g in gens)
        for h in elems:
            if all(orth_mul(h, g) == zero_elem for g in gens):
                ok = ok and orth_mul(embedded, h) == h
    _report(10, "baer suite", ok)
