"""Morphisms between proximity algebras and the categorical equivalence.

A :class:`DVMorphism` is a total map between finite boolean algebras
carrying proximities, subject to the de Vries morphism axioms (M1-M4
below, checked exhaustively).  It lifts uniquely to an action on step
functions by composing with each step component; the lifted map is a
proximity morphism (axioms M1-M7 on elements, verified by sampling).
Composition is the star operation

    (m2 * m1)(e) = join of m2(m1(f)) over f < e,

not plain function composition.  Restriction to embedded idempotents and
lifting are mutually inverse, which makes the idempotent functor and the
power functor an equivalence; the natural isomorphisms are the step
embedding of idempotents and the (here, identity) re-representation of
elements as step functions.

Boolean-level axioms:

    M1  m(0) = 0
    M2  m(e & f) = m(e) & m(f)
    M3  e < f implies ~m(~e) < m(f)
    M4  m(f) = join of m(e) over e < f

Element-level axioms add compatibility with translation, nonnegative
scaling, and join with constants (M5-M7).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from .boolalg import (
    Algebra,
    BoolElem,
    _Frozen,
    _setattr,
    algebra_from_json,
    algebra_to_json,
    element_from_literal,
    element_to_literal,
)
from .proximity import (
    AxiomResult,
    ProxRel,
    ProxReport,
    _record,
    _record_sampled,
    _require_devries,
    leq_proximity,
    lift_check,
    prox_from_json,
    prox_to_json,
    sample_related_pair,
)
from .steps import (
    StepElem,
    _assemble_masks,
    _from_masks,
    _join_all,
    _refine_classes,
    decreasing_decomposition,
    from_decomposition,
    step_add,
    step_const,
    step_embed,
    step_join,
    step_meet,
    step_neg,
    step_scale,
    step_zero,
)

__all__ = [
    "DVMorphism",
    "ProxMorphism",
    "check_dv_morphism",
    "enumerate_boolean_homs",
    "identity_dv",
    "identity_prox",
    "lift_morphism",
    "restrict_prox_morphism",
    "apply_prox_morphism",
    "sample_morphism_axioms",
    "star_compose_dv",
    "star_compose_prox",
    "functor_id",
    "functor_id_morphism",
    "functor_sp",
    "functor_sp_morphism",
    "eta",
    "tau",
    "naturality_check",
    "morphism_to_json",
    "morphism_from_json",
]


class DVMorphism(_Frozen):
    """Total map between proximity boolean algebras, given by a table.

    ``table[mask]`` is the target mask of the source element ``mask``.
    The table is full-element so the axiom checker never assumes
    homomorphism structure.
    """

    __slots__ = ("source", "target", "table")
    source: ProxRel
    target: ProxRel
    table: tuple[int, ...]

    def __init__(
        self, source: ProxRel, target: ProxRel, table: tuple[int, ...]
    ) -> None:
        if len(table) != source.algebra.size:
            raise ValueError("morphism table must cover every source element")
        limit = target.algebra.size
        if any(not 0 <= m < limit for m in table):
            raise ValueError("morphism table value out of range")
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "table", table)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.table) == (
                other.source,
                other.target,
                other.table,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.table))

    def apply(self, e: BoolElem) -> BoolElem:
        if e.algebra != self.source.algebra:
            raise ValueError("element from a different algebra")
        return self.target.algebra.from_mask(self.table[e.mask])

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.source.algebra.from_mask(m)}->{self.target.algebra.from_mask(v)}"
            for m, v in enumerate(self.table)
        )
        return f"DVMorphism({pairs})"


class ProxMorphism:
    """Action on step functions between two proximity algebras.

    Lifted morphisms carry their boolean-level table in ``base``; a bare
    action (as used by fault-injection tests) may leave it ``None``.
    Mutable, and equal only to itself.
    """

    source: ProxRel
    target: ProxRel
    action: Callable[[StepElem], StepElem]
    base: DVMorphism | None
    label: str

    def __init__(
        self,
        source: ProxRel,
        target: ProxRel,
        action: Callable[[StepElem], StepElem],
        base: DVMorphism | None = None,
        label: str = "",
    ) -> None:
        self.source = source
        self.target = target
        self.action = action
        self.base = base
        self.label = label

    def __call__(self, f: StepElem) -> StepElem:
        return apply_prox_morphism(self, f)

    def __repr__(self) -> str:
        return f"ProxMorphism({self.label or 'anonymous'})"


# --- boolean level ----------------------------------------------------------


def check_dv_morphism(m: DVMorphism) -> ProxReport:
    """Exhaustive verification of M1-M4 over the finite source algebra."""
    src, tgt = m.source, m.target
    src_alg, tgt_alg = src.algebra, tgt.algebra
    table = m.table
    results: list = []

    m1_ok = table[0] == 0
    results.append(
        AxiomResult("M1", m1_ok, 1, () if m1_ok else (tgt_alg.from_mask(table[0]),))
    )

    def m2_cases():
        for e in range(src_alg.size):
            image = table[e]
            for f in range(src_alg.size):
                yield None if table[e & f] == image & table[f] else (e, f)

    _record(results, "M2", m2_cases(), src_alg.from_mask)

    def m3_cases():
        src_full, tgt_full = src_alg.full_mask, tgt_alg.full_mask
        for e, f in src.sorted_pairs():
            lower = tgt_full & ~table[src_full & ~e]
            yield None if (lower, table[f]) in tgt.pairs else (e, f)

    _record(results, "M3", m3_cases(), src_alg.from_mask)

    def m4_cases():
        lefts = src._lefts
        for f in range(src_alg.size):
            joined = 0
            for e in lefts.get(f, ()):
                joined |= table[e]
            yield None if table[f] == joined else (f,)

    _record(results, "M4", m4_cases(), src_alg.from_mask)

    return ProxReport("de Vries morphism axioms", tuple(results))


def enumerate_boolean_homs(a: Algebra, b: Algebra) -> list[DVMorphism]:
    """All unital boolean homomorphisms a -> b, wrapped with the orders.

    A homomorphism between finite powerset algebras is dual to a function
    from the atoms of the target to the atoms of the source; the element
    map sends ``e`` to the target atoms whose image lies in ``e``.
    """
    homs = []
    source_rel = leq_proximity(a)
    target_rel = leq_proximity(b)
    atom_count_a = len(a.atoms)
    atom_count_b = len(b.atoms)
    for dual in itertools.product(range(atom_count_a), repeat=atom_count_b):
        table = []
        for e_mask in range(a.size):
            mask = 0
            for y in range(atom_count_b):
                if e_mask >> dual[y] & 1:
                    mask |= 1 << y
            table.append(mask)
        homs.append(DVMorphism(source_rel, target_rel, tuple(table)))
    return homs


def identity_dv(rel: ProxRel) -> DVMorphism:
    return DVMorphism(rel, rel, tuple(range(rel.algebra.size)))


def star_compose_dv(m2: DVMorphism, m1: DVMorphism) -> DVMorphism:
    """Star composition: join of the two-step images over approximants."""
    if m1.target != m2.source:
        raise ValueError("morphism endpoints do not match")
    lefts = m1.source._lefts
    table = []
    for e in range(m1.source.algebra.size):
        mask = 0
        for f in lefts.get(e, ()):
            mask |= m2.table[m1.table[f]]
        table.append(mask)
    return DVMorphism(m1.source, m2.target, tuple(table))


# --- lifting to elements ------------------------------------------------------


def _compose_with_steps(m: DVMorphism) -> Callable[[StepElem], StepElem]:
    tgt_alg, table = m.target.algebra, m.table

    def act(f: StepElem) -> StepElem:
        points = [(t, table[mask]) for t, mask in zip(f.thresholds, f._masks)]
        return _assemble_masks(tgt_alg, points)

    return act


def lift_morphism(m: DVMorphism) -> ProxMorphism:
    """Lift a de Vries morphism to step functions by composing stepwise.

    Requires a valid source morphism; the square against the idempotent
    embedding (lift of an embedded idempotent = embedding of its image)
    is asserted exhaustively.
    """
    report = check_dv_morphism(m)
    if not report.ok:
        raise ValueError(f"invalid source morphism: {report.summary()}")
    action = _compose_with_steps(m)
    for e in m.source.algebra.elements():
        assert action(step_embed(e)) == step_embed(m.apply(e))
    return ProxMorphism(m.source, m.target, action, base=m, label="lifted")


def identity_prox(rel: ProxRel) -> ProxMorphism:
    pm = lift_morphism(identity_dv(rel))
    pm.label = "identity"
    return pm


def restrict_prox_morphism(pm: ProxMorphism) -> DVMorphism:
    """Restrict an element-level morphism to embedded idempotents.

    The image of an embedded idempotent must again be one; its source
    element is recovered by evaluation at 1.
    """
    src_alg = pm.source.algebra
    table = []
    for e in src_alg.elements():
        image = pm.action(step_embed(e))
        idem = image.value(1)
        if image != step_embed(idem):
            raise ValueError(
                f"action does not send idempotents to idempotents at {e}"
            )
        table.append(idem.mask)
    return DVMorphism(pm.source, pm.target, tuple(table))


def apply_prox_morphism(pm: ProxMorphism, f: StepElem) -> StepElem:
    """Apply a proximity morphism to an element.

    For lifted morphisms the result is cross-checked against the
    decreasing-decomposition formula ``a0 + sum(b_i * m(e_i))``.
    """
    if f.algebra != pm.source.algebra:
        raise ValueError("element from a different algebra")
    result = pm.action(f)
    if pm.base is not None:
        a0, pairs = decreasing_decomposition(f)
        rebuilt = from_decomposition(
            pm.target.algebra,
            a0,
            [(b, pm.base.apply(e)) for b, e in pairs],
        )
        assert rebuilt == result
    return result


def star_compose_prox(p2: ProxMorphism, p1: ProxMorphism) -> ProxMorphism:
    """Star composition of element-level morphisms.

    Computed as the lift of the star composition of the idempotent
    restrictions, which is the unique proximity morphism extending it.
    """
    if p1.target != p2.source:
        raise ValueError("morphism endpoints do not match")
    d1 = p1.base if p1.base is not None else restrict_prox_morphism(p1)
    d2 = p2.base if p2.base is not None else restrict_prox_morphism(p2)
    composed = lift_morphism(star_compose_dv(d2, d1))
    composed.label = f"({p2.label or '?'} * {p1.label or '?'})"
    return composed


# --- element-level axiom sampling --------------------------------------------


def _approximant_join(
    pm: ProxMorphism,
    t: StepElem,
    rng: random.Random,
    tuple_cap: int = 4096,
) -> StepElem:
    """The join of images of decomposition-wise approximants of ``t``.

    Every element below-related to ``t`` is dominated by one built from
    idempotent approximants of the decomposition components, so this
    finite join computes the supremum in the morphism axiom M4.  Each
    combination of approximant masks becomes one source element by
    refining value classes, the action runs once on it, and all images
    are joined in one pass.
    """
    src_alg = pm.source.algebra
    full = src_alg.full_mask
    thresholds = t.thresholds
    a0 = thresholds[0]
    gaps = [thresholds[i] - thresholds[i - 1] for i in range(1, len(thresholds))]
    lefts = pm.source._lefts
    combos = list(itertools.product(*(lefts.get(e, ()) for e in t._masks[1:])))
    if len(combos) > tuple_cap:
        combos = rng.sample(combos, tuple_cap)
    return _join_all(
        pm.action(_from_masks(src_alg, *_refine_classes(full, a0, zip(gaps, combo))))
        for combo in combos
    )


def sample_morphism_axioms(
    pm: ProxMorphism,
    samples: int = 200,
    coeff_bound: int = 10,
    seed: int = 0,
) -> ProxReport:
    """Sampled verification of the element-level morphism axioms M1-M7.

    M1, M2, M5, M6, M7 run on random elements; M3 on constructed related
    pairs; M4 through the decreasing-decomposition join identity, which
    reduces the supremum over all approximants to a finite join.
    """
    from .pointwise import random_steps

    src_alg = pm.source.algebra
    tgt_alg = pm.target.algebra
    rng = random.Random(f"{seed}:morphism-axioms")
    results: list = []

    zero_src = step_zero(src_alg)
    zero_tgt = step_zero(tgt_alg)
    m1_ok = pm.action(zero_src) == zero_tgt
    results.append(
        AxiomResult("M1", m1_ok, 1, () if m1_ok else (pm.action(zero_src),))
    )

    def m2_cases():
        for _ in range(samples):
            s = random_steps(rng, src_alg, coeff_bound)
            t = random_steps(rng, src_alg, coeff_bound)
            ok = pm.action(step_meet(s, t)) == step_meet(pm.action(s), pm.action(t))
            yield ok, (s, t)

    _record_sampled(results, "M2", m2_cases())

    def m3_cases():
        for _ in range(samples):
            s, t = sample_related_pair(rng, pm.source, coeff_bound)
            lower = step_neg(pm.action(step_neg(s)))
            yield lift_check(pm.target, lower, pm.action(t)), (s, t)

    _record_sampled(results, "M3", m3_cases())

    def m4_cases():
        for _ in range(samples):
            t = random_steps(rng, src_alg, coeff_bound)
            yield _approximant_join(pm, t, rng) == pm.action(t), (t,)

    _record_sampled(results, "M4", m4_cases())

    def m5_cases():
        for _ in range(samples):
            s = random_steps(rng, src_alg, coeff_bound)
            a = rng.randint(-coeff_bound, coeff_bound)
            left = pm.action(step_add(s, step_const(src_alg, a)))
            right = step_add(pm.action(s), step_const(tgt_alg, a))
            yield left == right, (s, a)

    _record_sampled(results, "M5", m5_cases())

    def m6_cases():
        for _ in range(samples):
            s = random_steps(rng, src_alg, coeff_bound)
            a = rng.randint(0, coeff_bound)
            yield pm.action(step_scale(a, s)) == step_scale(a, pm.action(s)), (s, a)

    _record_sampled(results, "M6", m6_cases())

    def m7_cases():
        for _ in range(samples):
            s = random_steps(rng, src_alg, coeff_bound)
            a = rng.randint(-coeff_bound, coeff_bound)
            left = pm.action(step_join(s, step_const(src_alg, a)))
            right = step_join(pm.action(s), step_const(tgt_alg, a))
            yield left == right, (s, a)

    _record_sampled(results, "M7", m7_cases())

    return ProxReport("proximity morphism axioms", tuple(results))


# --- functors and natural isomorphisms ---------------------------------------


def functor_sp(rel: ProxRel) -> ProxRel:
    """The power functor on objects: a de Vries algebra as element data.

    In this concretization the power of an algebra is represented by the
    pair (algebra, proximity) itself, with elements read as step
    functions and the element proximity given by the pointwise lift.
    """
    _require_devries(rel)
    return rel


def functor_sp_morphism(m: DVMorphism) -> ProxMorphism:
    return lift_morphism(m)


def functor_id(rel: ProxRel) -> ProxRel:
    """The idempotent functor on objects: restrict the lifted proximity."""
    from .proximity import restrict_lift

    return restrict_lift(rel)


def functor_id_morphism(pm: ProxMorphism) -> DVMorphism:
    return restrict_prox_morphism(pm)


def tau(e: BoolElem) -> StepElem:
    """The idempotent-level natural isomorphism: embed as a step function."""
    return step_embed(e)


def eta(rel: ProxRel) -> ProxMorphism:
    """The element-level natural isomorphism.

    Elements are already stored in step form, so the map is the identity
    action; it is still modeled explicitly so the naturality square is a
    real computation.
    """
    _require_devries(rel)
    return ProxMorphism(
        rel,
        functor_sp(functor_id(rel)),
        lambda f: f,
        base=identity_dv(rel),
        label="eta",
    )


def naturality_check(
    m: DVMorphism, samples: int = 100, seed: int = 0
) -> ProxReport:
    """Verify both naturality squares for one boolean-level morphism.

    The idempotent square is exhaustive: lifting then applying to an
    embedded idempotent equals embedding the image.  The element square
    is sampled: restricting the lift and lifting again acts like the
    lift itself on random elements.
    """
    from .pointwise import random_steps

    lifted = lift_morphism(m)
    rng = random.Random(f"{seed}:naturality")
    results: list = []

    _record_sampled(
        results,
        "tau-square",
        (
            (lifted.action(tau(e)) == tau(m.apply(e)), (e,))
            for e in m.source.algebra.elements()
        ),
    )

    relifted = lift_morphism(restrict_prox_morphism(lifted))
    eta_src = eta(m.source)
    eta_tgt = eta(m.target)

    def eta_cases():
        for _ in range(samples):
            s = random_steps(rng, m.source.algebra, 10)
            twice = relifted.action(eta_src.action(s))
            yield twice == eta_tgt.action(lifted.action(s)), (s,)

    _record_sampled(results, "eta-square", eta_cases())

    return ProxReport("naturality squares", tuple(results))


# --- JSON ---------------------------------------------------------------


def morphism_to_json(m: DVMorphism) -> dict:
    src_alg, tgt_alg = m.source.algebra, m.target.algebra
    return {
        "source": {
            "algebra": algebra_to_json(src_alg),
            "proximity": prox_to_json(m.source)["proximity"],
        },
        "target": {
            "algebra": algebra_to_json(tgt_alg),
            "proximity": prox_to_json(m.target)["proximity"],
        },
        "map": {
            element_to_literal(src_alg.from_mask(mask)): element_to_literal(
                tgt_alg.from_mask(value)
            )
            for mask, value in enumerate(m.table)
        },
    }


def morphism_from_json(obj) -> DVMorphism:
    if not isinstance(obj, dict) or not {"source", "target", "map"} <= set(obj):
        raise ValueError(f"bad morphism JSON: {obj!r}")

    def load_side(side) -> ProxRel:
        algebra = algebra_from_json(side["algebra"])
        return prox_from_json(algebra, {"proximity": side.get("proximity", "leq")})

    source = load_side(obj["source"])
    target = load_side(obj["target"])
    table: list[int] = [0] * source.algebra.size
    seen = set()
    for key, value in obj["map"].items():
        e = element_from_literal(source.algebra, key)
        table[e.mask] = element_from_literal(target.algebra, value).mask
        seen.add(e.mask)
    if len(seen) != source.algebra.size:
        raise ValueError("morphism map must cover every source element")
    return DVMorphism(source, target, tuple(table))
