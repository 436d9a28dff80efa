"""Morphisms between proximity algebras and the categorical equivalence.

A :class:`DVMorphism` is a total map between finite boolean algebras
carrying proximities, subject to the de Vries morphism axioms (M1-M4
below); between finite de Vries proximities, that is ``<=``s, these are
the boolean homomorphisms, which the gate asks for.  It lifts uniquely to
an action on step functions by composing with each step component, to a
proximity morphism (M1-M7 on elements, verified by sampling).  The star
composition ``(m2 * m1)(e) = join of m2(m1(f)) over f < e`` is then plain
composition, ``f < e`` being ``f <= e``.  Restriction to embedded
idempotents and lifting are mutually inverse, which makes the idempotent
functor and the power functor an equivalence; the natural isomorphisms
are the step embedding of idempotents and the (here, identity)
re-representation of elements as step functions.

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
from typing import Callable, Sequence

from .boolalg import (
    Algebra,
    BoolElem,
    _check_same_algebra,
    _field,
    _Frozen,
    _setattr,
    _shown,
    algebra_from_json,
    algebra_to_json,
    element_from_literal,
    element_to_literal,
)
from .proximity import (
    ProxRel,
    ProxReport,
    _record,
    _record_sampled,
    _devries_ok,
    _Refused,
    _require_devries,
    _require_exhaustive,
    leq_proximity,
    lift_check,
    prox_from_json,
    prox_to_json,
    restrict_lift,
    sample_related_pair,
)
from .scalars import _require_coeff_bound
from .steps import (
    StepElem,
    _assemble_masks,
    _from_masks,
    _join_all,
    _refine_classes,
    _sum,
    random_steps,
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
    "functor_sp",
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

    __slots__ = _fields = ("source", "target", "table")
    source: ProxRel
    target: ProxRel
    table: tuple[int, ...]

    def __init__(
        self, source: ProxRel, target: ProxRel, table: Sequence[int]
    ) -> None:
        table = tuple(table)  # so that a list given still hashes
        if len(table) != source.algebra.size:
            raise ValueError("morphism table must cover every source element")
        limit = target.algebra.size
        if any(not 0 <= m < limit for m in table):
            raise ValueError("morphism table value out of range")
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "table", table)

    def apply(self, e: BoolElem) -> BoolElem:
        _check_same_algebra(self.source, e)
        return self.target.algebra.from_mask(self.table[e.mask])

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.source.algebra.from_mask(m)}->{self.target.algebra.from_mask(v)}"
            for m, v in enumerate(self.table)
        )
        return f"DVMorphism({pairs})"


class ProxMorphism(_Frozen):
    """Action on step functions between two proximity algebras.

    A lifted morphism keeps its table only in its action:
    :func:`restrict_prox_morphism` reads it back.  Equal fields, the same
    action object included, make equal morphisms.
    """

    __slots__ = _fields = ("source", "target", "action", "label")
    source: ProxRel
    target: ProxRel
    action: Callable[[StepElem], StepElem]
    label: str

    def __init__(
        self,
        source: ProxRel,
        target: ProxRel,
        action: Callable[[StepElem], StepElem],
        label: str = "",
    ) -> None:
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "action", action)
        _setattr(self, "label", label)

    def __call__(self, f: StepElem) -> StepElem:
        return apply_prox_morphism(self, f)

    def __repr__(self) -> str:
        return f"ProxMorphism({self.label or 'anonymous'})"


# --- boolean level ----------------------------------------------------------


def check_dv_morphism(m: DVMorphism) -> ProxReport:
    """Exhaustive verification of M1-M4 over the finite source algebra."""
    src, tgt = m.source, m.target
    src_alg, tgt_alg = src.algebra, tgt.algebra
    _require_exhaustive(src_alg)  # M2 alone is size^2 cases
    table = m.table
    results: list = []

    # one case, whose witness is the image of 0 in the target
    _record(results, "M1", [None if table[0] == 0 else (table[0],)], tgt_alg.from_mask)

    def m2_cases():
        for e in range(src_alg.size):
            image = table[e]
            for f in range(src_alg.size):
                yield None if table[e & f] == image & table[f] else (e, f)

    _record(results, "M2", m2_cases(), src_alg.from_mask)

    def m3_cases():
        src_full, tgt_full = src_alg.full_mask, tgt_alg.full_mask
        for e, f in map(src.pair_at, range(src.count())):
            lower = tgt_full & ~table[src_full & ~e]
            yield None if tgt.has(lower, table[f]) else (e, f)

    _record(results, "M3", m3_cases(), src_alg.from_mask)

    def m4_cases():
        joined = [0] * src_alg.size
        for e, f in map(src.pair_at, range(src.count())):
            joined[f] |= table[e]
        for f, image in enumerate(joined):
            yield None if table[f] == image else (f,)

    _record(results, "M4", m4_cases(), src_alg.from_mask)

    return ProxReport("de Vries morphism axioms", tuple(results))


def _dv_ok(m: DVMorphism) -> bool:
    """``check_dv_morphism(m).ok`` between ``<=``s: every entry is the join of its atoms'
    images, disjoint (sum = join) and joining to 1.  O(size * atoms), not size^2."""
    table, n = m.table, len(m.source.algebra.atoms)
    return (
        _devries_ok(m.source) and _devries_ok(m.target) and table[0] == 0
        and all(table[e] == table[e & e - 1] | table[e & -e] for e in range(1, len(table)))
        and sum(table[1 << i] for i in range(n)) == table[-1] == m.target.algebra.full_mask
    )


def _require_dv(m: DVMorphism) -> None:
    """Raise :class:`_Refused` unless :func:`_dv_ok`, with the failing M1-M4
    report, else the failing D1-D7 report of the first refused proximity.

    These run only on refusal.  D1-D7 take no algebra over the exhaustive
    bound, so a refused proximity over it is that bound's error before
    M1-M4 run; M1-M4 take no source over it either.
    """
    if not _dv_ok(m):
        refused = [rel for rel in (m.source, m.target) if not _devries_ok(rel)]
        if refused:
            _require_exhaustive(refused[0].algebra)
        report = check_dv_morphism(m)
        if not report.ok:
            raise _Refused(f"invalid source morphism: {report.summary()}", report)
        _require_devries(refused[0])


def enumerate_boolean_homs(a: Algebra, b: Algebra) -> list[DVMorphism]:
    """All unital boolean homomorphisms a -> b, wrapped with the orders.

    A homomorphism between finite powerset algebras is dual to a function
    from the atoms of the target to the atoms of the source; the element
    map sends ``e`` to the target atoms whose image lies in ``e``.
    """
    source, target = leq_proximity(a), leq_proximity(b)
    return [
        DVMorphism(source, target, tuple(
            sum(1 << y for y, x in enumerate(dual) if e >> x & 1) for e in range(a.size)
        ))
        for dual in itertools.product(range(len(a.atoms)), repeat=len(b.atoms))
    ]


def identity_dv(rel: ProxRel) -> DVMorphism:
    return DVMorphism(rel, rel, tuple(range(rel.algebra.size)))


def star_compose_dv(m2: DVMorphism, m1: DVMorphism) -> DVMorphism:
    """Star composition; on the gated finite case, plain composition (see above)."""
    _require_dv(m2)
    _require_dv(m1)
    if m1.target != m2.source:
        raise ValueError("morphism endpoints do not match")
    return DVMorphism(m1.source, m2.target, tuple(m2.table[v] for v in m1.table))


# --- lifting to elements ------------------------------------------------------


def _compose_with_steps(m: DVMorphism) -> Callable[[StepElem], StepElem]:
    tgt_alg, table = m.target.algebra, m.table

    def act(f: StepElem) -> StepElem:
        points = [(t, table[mask]) for t, mask in zip(f.thresholds, f._masks)]
        return _assemble_masks(tgt_alg, points)

    return act


def lift_morphism(m: DVMorphism, label: str = "lifted") -> ProxMorphism:
    """Lift a de Vries morphism (the gate refuses any other) by composing stepwise.

    The tier-1 tests check the square against the idempotent embedding
    (lift of an embedded idempotent = embedding of its image) on every idempotent.
    """
    _require_dv(m)
    return ProxMorphism(m.source, m.target, _compose_with_steps(m), label)


def identity_prox(rel: ProxRel) -> ProxMorphism:
    return lift_morphism(identity_dv(rel), "identity")


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

    For lifted morphisms the tier-1 tests compare the result with the
    decreasing-decomposition formula ``a0 + sum(b_i * m(e_i))``.
    """
    _check_same_algebra(pm.source, f)
    return pm.action(f)


def star_compose_prox(p2: ProxMorphism, p1: ProxMorphism) -> ProxMorphism:
    """Star composition of element-level morphisms.

    Computed as the lift of the star composition of the idempotent
    restrictions, which is the unique proximity morphism extending it.
    """
    composed = star_compose_dv(restrict_prox_morphism(p2), restrict_prox_morphism(p1))
    return lift_morphism(composed, f"({p2.label or '?'} * {p1.label or '?'})")


# --- element-level axiom sampling --------------------------------------------


# approximant combinations drawn per M4 sample, besides the full one
_APPROXIMANT_DRAWS = 16


def _approximant_join(pm: ProxMorphism, t: StepElem, rng: random.Random) -> StepElem:
    """The join of the images of approximant combinations of ``t``, for M4.

    Every element below-related to ``t`` is dominated by one built from
    idempotent approximants of its decomposition components; the source is
    gated, so ``<`` is ``<=`` and these are the components' submasks.  The
    full combination (each component itself) builds ``t``, so the join is
    never below ``pm.action(t)`` and exceeds it only where an approximant's
    image does not lie below it: a drawn combination that fails is a real
    counterexample, at any size.  So the full combination is joined with
    ``_APPROXIMANT_DRAWS`` drawn component by component, each component a
    uniform submask ``mask & rng.getrandbits(atoms)``; a repeat runs once,
    and all are drawn before the action first runs.
    """
    src_alg = pm.source.algebra
    full, width = src_alg.full_mask, len(src_alg.atoms)
    thresholds = t.thresholds
    a0 = thresholds[0]
    gaps = [thresholds[i] - thresholds[i - 1] for i in range(1, len(thresholds))]
    masks = tuple(t._masks[1:])
    drawn = [
        tuple(mask & rng.getrandbits(width) for mask in masks)
        for _ in range(_APPROXIMANT_DRAWS)
    ]
    return _join_all(
        pm.action(_from_masks(src_alg, *_refine_classes(full, a0, zip(gaps, combo))))
        for combo in dict.fromkeys([masks, *drawn])
    )


def sample_morphism_axioms(
    pm: ProxMorphism,
    samples: int = 200,
    coeff_bound: int = 10,
    seed: int = 0,
) -> ProxReport:
    """Sampled verification of the element-level morphism axioms M1-M7.

    M1, M2, M5, M6, M7 run on random elements; M3 on constructed related
    pairs; M4 by joining the images of the full approximant combination
    and a few drawn ones (:func:`_approximant_join`).
    ``coeff_bound`` must be at least 1, and the source relation a de Vries
    proximity; both are checked here, before M1 runs.  M3 checks the lift
    on the target with :func:`lift_check`, since an action may return an
    element of another algebra.
    """
    _require_coeff_bound(coeff_bound)
    _require_devries(pm.source)
    results: list = []

    image = pm.action(step_zero(pm.source.algebra))
    _record(results, "M1", [None if image == step_zero(pm.target.algebra) else (image,)])
    rng = random.Random(f"{seed}:morphism-axioms")
    _record_sampled(results, samples, _morphism_checks(pm, rng, coeff_bound))

    return ProxReport("proximity morphism axioms", tuple(results))


def _morphism_checks(pm: ProxMorphism, rng: random.Random, coeff_bound: int) -> list:
    """M2-M7 as :func:`proximity._record_sampled` rows; M4's ``holds`` draws
    its approximant combinations from ``rng``, right after its draw."""
    src_alg, tgt_alg, act = pm.source.algebra, pm.target.algebra, pm.action

    def steps() -> StepElem:
        return random_steps(rng, src_alg, coeff_bound)

    def m3(s: StepElem, t: StepElem) -> bool:
        return lift_check(pm.target, step_neg(act(step_neg(s))), act(t))

    def m5(s: StepElem, a: int) -> bool:
        left = act(_sum(s, step_const(src_alg, a)))
        return left == _sum(act(s), step_const(tgt_alg, a))

    def m7(s: StepElem, a: int) -> bool:
        left = act(step_join(s, step_const(src_alg, a)))
        return left == step_join(act(s), step_const(tgt_alg, a))

    def signed() -> tuple[StepElem, int]:
        return steps(), rng.randint(-coeff_bound, coeff_bound)

    return [
        (
            "M2",
            lambda: (steps(), steps()),
            lambda s, t: act(step_meet(s, t)) == step_meet(act(s), act(t)),
        ),
        ("M3", lambda: sample_related_pair(rng, pm.source, coeff_bound), m3),
        ("M4", lambda: (steps(),), lambda t: _approximant_join(pm, t, rng) == act(t)),
        ("M5", signed, m5),
        (
            "M6",
            lambda: (steps(), rng.randint(0, coeff_bound)),
            lambda s, a: act(step_scale(a, s)) == step_scale(a, act(s)),
        ),
        ("M7", signed, m7),
    ]


# --- functors and natural isomorphisms ---------------------------------------


def functor_sp(rel: ProxRel) -> ProxRel:
    """The power functor on objects: a de Vries algebra as element data.

    In this concretization the power of an algebra is represented by the
    pair (algebra, proximity) itself, with elements read as step
    functions and the element proximity given by the pointwise lift.
    """
    _require_devries(rel)
    return rel


def functor_id(rel: ProxRel) -> ProxRel:
    """The idempotent functor on objects: restrict the lifted proximity."""
    return restrict_lift(rel)


def tau(e: BoolElem) -> StepElem:
    """The idempotent-level natural isomorphism: embed as a step function."""
    return step_embed(e)


def eta(rel: ProxRel) -> ProxMorphism:
    """The element-level natural isomorphism ``rel -> Sp(Id(rel))``.

    Elements are already stored in step form, so the map is the identity
    action, and :func:`naturality_check` needs no instance of it.
    """
    return ProxMorphism(rel, functor_sp(functor_id(rel)), lambda f: f, "eta")


def naturality_check(
    m: DVMorphism, samples: int = 100, seed: int = 0
) -> ProxReport:
    """Verify both naturality squares for one boolean-level morphism.

    The idempotent square is exhaustive: lifting then applying to an
    embedded idempotent equals embedding the image.  The element square
    is sampled: with :func:`eta` the identity on de Vries relations, the
    lift of the restricted lift acts like the lift on random elements,
    drawn with coefficient bound 10.
    """
    lifted = lift_morphism(m)
    rng = random.Random(f"{seed}:naturality")
    results: list = []

    _record(
        results,
        "tau-square",
        (
            None if lifted.action(tau(e)) == tau(m.apply(e)) else (e,)
            for e in m.source.algebra.elements()
        ),
    )

    # composed stepwise without the gate, so a wrong restriction fails the square
    relifted = _compose_with_steps(restrict_prox_morphism(lifted))

    def eta_draw() -> tuple[StepElem]:
        return (random_steps(rng, m.source.algebra, 10),)

    square = ("eta-square", eta_draw, lambda s: relifted(s) == lifted.action(s))
    _record_sampled(results, samples, [square])

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
    mapping = _field(obj, "map", "morphism")
    if not isinstance(mapping, dict):
        raise ValueError("morphism map must be a JSON object")
    sides = _field(obj, "source", "morphism"), _field(obj, "target", "morphism")
    algebras = [algebra_from_json(_field(side, "algebra", "morphism")) for side in sides]
    # a map no shorter than the source, naming no source element twice
    # (checked below), covers it
    if len(mapping) < algebras[0].size:
        raise ValueError("morphism map must cover every source element")
    source, target = (
        prox_from_json(algebra, {"proximity": side.get("proximity", "leq")})
        for algebra, side in zip(algebras, sides)
    )
    table: list[int] = [0] * source.algebra.size
    seen: dict[int, str] = {}  # mask -> its key; "[p,q]" and "1" can name one mask
    for key, value in mapping.items():
        e = element_from_literal(source.algebra, key)
        if e.mask in seen:
            twice = f"{_shown(seen[e.mask])} and {_shown(key)}"
            raise ValueError(f"morphism map names one source element twice: {twice}")
        table[e.mask] = element_from_literal(target.algebra, value).mask
        seen[e.mask] = key
    return DVMorphism(source, target, tuple(table))
