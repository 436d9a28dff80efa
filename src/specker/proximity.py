"""De Vries proximities on finite boolean algebras and their lift.

A proximity here is a binary relation on a finite boolean algebra
subject to the compingent axioms (D1-D7 below), checked exhaustively.
The relation lifts pointwise to step functions: two elements are related
exactly when their step values are related at every scalar, which is
decidable by looking at the merged thresholds only.

The lifted relation is itself a proximity in the algebra sense (axioms
P1-P10); those laws quantify over all elements, so they are verified by
bounded random sampling plus constructive witnesses for the two
existential axioms (interpolation and positive approximation), with all
randomness seeded.

Axioms on the boolean algebra:

    D1  0 < 0 and 1 < 1
    D2  e < f implies e <= f
    D3  e <= f < g <= h implies e < h
    D4  e < f and e < g imply e < f & g
    D5  e < f implies ~f < ~e
    D6  e < f implies e < g < f for some g
    D7  e != 0 implies f < e for some f != 0

(writing ``<`` for the proximity).

The checkers work on ``int`` masks over the atom order: relations are
sets of mask pairs, with their sorted pairs and the approximants of each
element indexed once per relation, and lifted checks read the component
masks of step elements.  :class:`BoolElem` objects are built only for
returned values and for the witnesses of a failing axiom.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .boolalg import (
    Algebra,
    BoolElem,
    _Frozen,
    _setattr,
    element_from_json,
    element_to_json,
)
from .steps import (
    StepElem,
    compatible_decreasing,
    step_add,
    step_embed,
    step_join,
    step_leq,
    step_meet,
    step_mul_nonneg,
    step_neg,
    step_one,
    step_scale_pos,
    step_zero,
    _assemble_masks,
    _masks_at,
    _merged_grid,
    _same_algebra,
)

__all__ = [
    "ProxRel",
    "AxiomResult",
    "ProxReport",
    "leq_proximity",
    "check_devries",
    "enumerate_devries",
    "interpolant",
    "lift_check",
    "sample_proximity_axioms",
    "restrict_lift",
    "sample_related_pair",
    "interpolate_lifted",
    "positive_approximant",
    "prox_to_json",
    "prox_from_json",
]


class ProxRel(_Frozen):
    """A binary relation on a finite boolean algebra, as mask pairs.

    No ``__slots__``: the cached indexes below live in the instance
    ``__dict__``.
    """

    algebra: Algebra
    pairs: frozenset[tuple[int, int]]

    def __init__(self, algebra: Algebra, pairs: frozenset[tuple[int, int]]) -> None:
        limit = algebra.size
        outside = [p for p in pairs if not (0 <= p[0] < limit and 0 <= p[1] < limit)]
        if outside:
            raise ValueError(
                f"proximity pair {min(outside)} outside the masks 0..{limit - 1}"
            )
        _setattr(self, "algebra", algebra)
        _setattr(self, "pairs", pairs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.algebra, self.pairs) == (other.algebra, other.pairs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, self.pairs))

    def related(self, e: BoolElem, f: BoolElem) -> bool:
        if e.algebra != self.algebra or f.algebra != self.algebra:
            raise ValueError("elements from a different algebra")
        return (e.mask, f.mask) in self.pairs

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._sorted

    @cached_property
    def _sorted(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    @cached_property
    def _rights(self) -> dict[int, tuple[int, ...]]:
        """``e -> (f, ...)`` for ``e < f``, each tuple ascending."""
        return _group(self._sorted, 0)

    @cached_property
    def _lefts(self) -> dict[int, tuple[int, ...]]:
        """``f -> (e, ...)`` for ``e < f`` (the approximants), ascending."""
        return _group(self._sorted, 1)

    def __repr__(self) -> str:
        return f"ProxRel({len(self.pairs)} pairs on {self.algebra!r})"


def _group(ordered: Sequence[tuple[int, int]], key: int) -> dict[int, tuple[int, ...]]:
    grouped: dict[int, list[int]] = {}
    for pair in ordered:
        grouped.setdefault(pair[key], []).append(pair[1 - key])
    return {k: tuple(v) for k, v in grouped.items()}


class AxiomResult(_Frozen):
    __slots__ = ("name", "passed", "checked", "counterexample")
    name: str
    passed: bool
    checked: int
    counterexample: tuple

    def __init__(
        self, name: str, passed: bool, checked: int, counterexample: tuple = ()
    ) -> None:
        _setattr(self, "name", name)
        _setattr(self, "passed", passed)
        _setattr(self, "checked", checked)
        _setattr(self, "counterexample", counterexample)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.passed, self.checked, self.counterexample) == (
                other.name,
                other.passed,
                other.checked,
                other.counterexample,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.passed, self.checked, self.counterexample))

    def __repr__(self) -> str:
        return (
            f"AxiomResult(name={self.name!r}, passed={self.passed!r}, "
            f"checked={self.checked!r}, counterexample={self.counterexample!r})"
        )

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: pass ({self.checked} checks)"
        if not self.checked:
            return f"{self.name}: FAIL (no cases checked)"
        witness = ", ".join(str(x) for x in self.counterexample)
        return f"{self.name}: FAIL ({witness})"


class ProxReport(_Frozen):
    """Outcome of an axiom check, one result per axiom."""

    __slots__ = ("subject", "results")
    subject: str
    results: tuple[AxiomResult, ...]

    def __init__(self, subject: str, results: tuple[AxiomResult, ...]) -> None:
        _setattr(self, "subject", subject)
        _setattr(self, "results", results)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.subject, self.results) == (other.subject, other.results)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subject, self.results))

    def __repr__(self) -> str:
        return f"ProxReport(subject={self.subject!r}, results={self.results!r})"

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(result for result in self.results if not result.passed)

    def summary(self) -> str:
        if self.ok:
            return f"PASS ({len(self.results)} axioms)"
        failed = self.failures()
        return f"FAIL ({', '.join(str(result) for result in failed)})"

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "axioms": [
                {
                    "name": result.name,
                    "passed": result.passed,
                    "checked": result.checked,
                    "counterexample": [str(x) for x in result.counterexample],
                }
                for result in self.results
            ],
        }


def leq_proximity(algebra: Algebra) -> ProxRel:
    """The order relation itself, the canonical de Vries proximity."""
    pairs = frozenset((e, f) for f in range(algebra.size) for e in _submasks(f))
    return ProxRel(algebra, pairs)


def _submasks(mask: int) -> Iterable[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _record(
    results: list, name: str, cases: Iterator, elem: Callable[[int], BoolElem]
) -> None:
    """Run one exhaustive axiom and append its result.

    Each case yields ``None`` when it holds and its witness masks when it
    fails; only the first failing case becomes elements, through ``elem``.
    """
    checked = 0
    for failure in cases:
        checked += 1
        if failure is not None:
            witness = tuple(elem(mask) for mask in failure)
            results.append(AxiomResult(name, False, checked, witness))
            return
    results.append(AxiomResult(name, True, checked))


def _record_sampled(results: list, name: str, cases: Iterable) -> None:
    """Run one sampled axiom and append its result.

    Each case yields ``(holds, witness)``; the first case that does not
    hold fails the axiom with its witness.  An axiom that checked no case
    fails too: a sample of nothing is no evidence.
    """
    checked = 0
    for holds, witness in cases:
        checked += 1
        if not holds:
            results.append(AxiomResult(name, False, checked, witness))
            return
    results.append(AxiomResult(name, checked > 0, checked))


def check_devries(rel: ProxRel, max_elements: int = 32) -> ProxReport:
    """Exhaustively verify the de Vries axioms D1-D7 on a finite algebra."""
    algebra = rel.algebra
    if algebra.size > max_elements:
        raise ValueError(
            f"algebra with {algebra.size} elements exceeds the exhaustive "
            f"bound of {max_elements}"
        )
    size, full = algebra.size, algebra.full_mask
    pairs, ordered = rel.pairs, rel.sorted_pairs()
    elem = algebra.from_mask
    results: list = []

    d1_ok = (0, 0) in pairs and (full, full) in pairs
    results.append(
        AxiomResult("D1", d1_ok, 2, () if d1_ok else (elem(0), elem(full)))
    )

    _record(
        results,
        "D2",
        (None if e & f == e else (e, f) for e, f in ordered),
        elem,
    )

    def d3_cases():
        for f, g in ordered:
            extensions = [g | extension for extension in _submasks(full & ~g)]
            for e in _submasks(f):
                for h in extensions:
                    yield None if (e, h) in pairs else (e, f, g, h)

    _record(results, "D3", d3_cases(), elem)

    def d4_cases():
        for e, rights in sorted(rel._rights.items()):
            for f in rights:
                for g in rights:
                    yield None if (e, f & g) in pairs else (e, f, g)

    _record(results, "D4", d4_cases(), elem)

    _record(
        results,
        "D5",
        (
            None if (full & ~f, full & ~e) in pairs else (e, f)
            for e, f in ordered
        ),
        elem,
    )

    def d6_cases():
        # here and below only elements of the algebra count as witnesses:
        # a relation built by hand may hold masks outside it
        rights = rel._rights
        for e, f in ordered:
            found = any(0 <= g < size and (g, f) in pairs for g in rights[e])
            yield None if found else (e, f)

    _record(results, "D6", d6_cases(), elem)

    def d7_cases():
        lefts = rel._lefts
        for e in range(1, size):
            found = any(0 < f < size for f in lefts.get(e, ()))
            yield None if found else (e,)

    _record(results, "D7", d7_cases(), elem)

    return ProxReport("de Vries axioms", tuple(results))


@lru_cache(maxsize=None)
def _devries_report(rel: ProxRel) -> ProxReport:
    """:func:`check_devries` once per relation (equal relations share it)."""
    return check_devries(rel)


@lru_cache(maxsize=None)
def _devries_ok(rel: ProxRel) -> bool:
    return _devries_report(rel).ok


def _require_devries(rel: ProxRel) -> None:
    if not _devries_ok(rel):
        raise ValueError("relation is not a de Vries proximity")


def enumerate_devries(algebra: Algebra) -> list[ProxRel]:
    """All de Vries proximities on a very small algebra.

    The search space is all relations on the algebra; everything failing
    D1 or D2 is excluded up front (any proximity contains (0,0) and
    (1,1) and sits inside <=), and the survivors run the full checker.
    """
    if algebra.size > 4:
        raise ValueError("enumeration is limited to algebras with at most 4 elements")
    full = algebra.full_mask
    forced = {(0, 0), (full, full)}
    optional = sorted(
        (e, f)
        for e in range(algebra.size)
        for f in range(algebra.size)
        if e & f == e and (e, f) not in forced
    )
    found = []
    for k in range(len(optional) + 1):
        for subset in itertools.combinations(optional, k):
            rel = ProxRel(algebra, frozenset(forced | set(subset)))
            if check_devries(rel).ok:
                found.append(rel)
    return found


def interpolant(rel: ProxRel, e: BoolElem, f: BoolElem) -> BoolElem:
    """Some ``g`` with ``e < g < f``, smallest and lexicographically first.

    Raises ``ValueError`` when no witness exists, which signals that the
    relation is not a de Vries proximity (or that ``(e, f)`` is not in
    it at all).
    """
    if not rel.related(e, f):
        raise ValueError("interpolant requires a related pair")
    return rel.algebra.from_mask(_interpolant_mask(rel, e.mask, f.mask))


def _interpolant_mask(rel: ProxRel, e: int, f: int) -> int:
    algebra, pairs = rel.algebra, rel.pairs
    candidates = [
        g
        for g in rel._rights.get(e, ())
        if 0 <= g < algebra.size and (g, f) in pairs
    ]
    if not candidates:
        elem = algebra.from_mask
        raise ValueError(
            f"no interpolant between {elem(e)} and {elem(f)}: not a de Vries proximity"
        )
    return _smallest(algebra, candidates)


def _smallest(algebra: Algebra, masks: Sequence[int]) -> int:
    """The mask with fewest atoms, then lexicographically first atom names."""
    atoms = algebra.atoms

    def key(mask: int):
        names = tuple(name for i, name in enumerate(atoms) if mask >> i & 1)
        return len(names), names

    return min(masks, key=key)


def lift_check(rel: ProxRel, s: StepElem, t: StepElem) -> bool:
    """The pointwise lift: related iff step values are related everywhere.

    Checking the merged thresholds suffices: both functions are constant
    between them, below the grid both are 1 (related by D1), and past it
    both are 0 (related by D1).
    """
    algebra = rel.algebra
    if not (_same_algebra(s.algebra, algebra) and _same_algebra(t.algebra, algebra)):
        raise ValueError("mixed algebras in lifted proximity check")
    _require_devries(rel)
    return _lifted(rel.pairs, s, t)


def _lifted(pairs: frozenset[tuple[int, int]], s: StepElem, t: StepElem) -> bool:
    """:func:`lift_check` on one algebra, for a de Vries relation's pairs."""
    grid = _merged_grid(s, t)
    return all(pair in pairs for pair in zip(_masks_at(s, grid), _masks_at(t, grid)))


def restrict_lift(rel: ProxRel) -> ProxRel:
    """Restrict the lifted relation back to embedded idempotents.

    The round trip is the identity, which is asserted.
    """
    _require_devries(rel)
    algebra = rel.algebra
    embedded = [step_embed(e) for e in algebra.elements()]
    pairs = frozenset(
        (e, f)
        for e, s in enumerate(embedded)
        for f, t in enumerate(embedded)
        if _lifted(rel.pairs, s, t)
    )
    restricted = ProxRel(algebra, pairs)
    assert restricted == rel
    return restricted


# --- sampling machinery -----------------------------------------------------


def _random_grid(
    rng: random.Random, coeff_bound: int, low: int | None = None
) -> list[int]:
    lo = -coeff_bound if low is None else low
    count = rng.randint(1, min(4, coeff_bound - lo + 1))
    points: set[int] = set()
    while len(points) < count:
        points.add(rng.randint(lo, coeff_bound))
    return sorted(points)


def _prefix_meets(masks: Sequence[int]) -> list[int]:
    out = []
    acc = None
    for mask in masks:
        acc = mask if acc is None else acc & mask
        out.append(acc)
    return out


def sample_related_pair(
    rng: random.Random,
    rel: ProxRel,
    coeff_bound: int,
    nonneg: bool = False,
) -> tuple[StepElem, StepElem]:
    """A random pair of step functions related under the lifted relation.

    Built from a random grid and random related idempotent pairs,
    prefix-met on both sides so the step chains decrease; D3 and D4
    guarantee the met pairs stay related, hence the construction is
    sound for any relation passing the de Vries axioms.
    """
    _require_devries(rel)
    algebra = rel.algebra
    full = algebra.full_mask
    grid = _random_grid(rng, coeff_bound, low=0 if nonneg else None)
    choices = rel.sorted_pairs()
    chosen = [(full, full)]
    chosen += [rng.choice(choices) for _ in range(len(grid) - 1)]
    lefts = _prefix_meets([pair[0] for pair in chosen])
    rights = _prefix_meets([pair[1] for pair in chosen])
    s = _assemble_masks(algebra, list(zip(grid, lefts)))
    t = _assemble_masks(algebra, list(zip(grid, rights)))
    assert lift_check(rel, s, t)
    return s, t


def _random_element(rng: random.Random, algebra: Algebra, coeff_bound: int) -> StepElem:
    from .pointwise import random_steps

    return random_steps(rng, algebra, coeff_bound)


def sample_proximity_axioms(
    rel: ProxRel,
    samples: int = 200,
    coeff_bound: int = 10,
    seed: int = 0,
) -> ProxReport:
    """Sampled verification of the lifted-proximity axioms P1-P10.

    P1-P8 run on randomly constructed tuples; P9 constructs the
    interpolating element from idempotent interpolants on a compatible
    grid; P10 constructs the positive approximant from an approximation
    witness below the smallest step component.  A failing axiom reports
    the offending tuple.
    """
    _require_devries(rel)
    algebra = rel.algebra
    rng = random.Random(f"{seed}:proximity-axioms")
    zero = step_zero(algebra)
    one = step_one(algebra)
    results: list = []

    _record_sampled(
        results,
        "P1",
        [
            (lift_check(rel, zero, zero), (zero, zero)),
            (lift_check(rel, one, one), (one, one)),
        ],
    )

    def p2_cases():
        for _ in range(samples):
            s, t = sample_related_pair(rng, rel, coeff_bound)
            yield step_leq(s, t), (s, t)

    _record_sampled(results, "P2", p2_cases())

    def p3_cases():
        for _ in range(samples):
            t, r = sample_related_pair(rng, rel, coeff_bound)
            down = step_join(_random_element(rng, algebra, coeff_bound), zero)
            up = step_join(_random_element(rng, algebra, coeff_bound), zero)
            s = step_add(t, step_neg(down))
            u = step_add(r, up)
            yield lift_check(rel, s, u), (s, t, r, u)

    _record_sampled(results, "P3", p3_cases())

    def p4_cases():
        for _ in range(samples):
            s1, t = sample_related_pair(rng, rel, coeff_bound)
            s2, r = sample_related_pair(rng, rel, coeff_bound)
            s = step_meet(s1, s2)
            if not (lift_check(rel, s, t) and lift_check(rel, s, r)):
                # meets of related pairs stay related; if this fires the
                # relation itself is broken, so report it
                yield False, (s, t, r)
                return
            yield lift_check(rel, s, step_meet(t, r)), (s, t, r)

    _record_sampled(results, "P4", p4_cases())

    def p5_cases():
        for _ in range(samples):
            s, t = sample_related_pair(rng, rel, coeff_bound)
            yield lift_check(rel, step_neg(t), step_neg(s)), (s, t)

    _record_sampled(results, "P5", p5_cases())

    def p6_cases():
        for _ in range(samples):
            s, t = sample_related_pair(rng, rel, coeff_bound)
            r, u = sample_related_pair(rng, rel, coeff_bound)
            yield lift_check(rel, step_add(s, r), step_add(t, u)), (s, t, r, u)

    _record_sampled(results, "P6", p6_cases())

    def p7_cases():
        for _ in range(samples):
            if rng.random() < 0.5:
                s, t = sample_related_pair(rng, rel, coeff_bound)
            else:
                s = _random_element(rng, algebra, coeff_bound)
                t = _random_element(rng, algebra, coeff_bound)
            a = rng.randint(1, coeff_bound)
            scaled = lift_check(rel, step_scale_pos(a, s), step_scale_pos(a, t))
            plain = lift_check(rel, s, t)
            yield scaled == plain, (a, s, t)

    _record_sampled(results, "P7", p7_cases())

    def p8_cases():
        for _ in range(samples):
            s, t = sample_related_pair(rng, rel, coeff_bound, nonneg=True)
            r, u = sample_related_pair(rng, rel, coeff_bound, nonneg=True)
            yield lift_check(
                rel, step_mul_nonneg(s, r), step_mul_nonneg(t, u)
            ), (s, t, r, u)

    _record_sampled(results, "P8", p8_cases())

    def p9_cases():
        for _ in range(samples):
            s, t = sample_related_pair(rng, rel, coeff_bound)
            r = interpolate_lifted(rel, s, t)
            yield lift_check(rel, s, r) and lift_check(rel, r, t), (s, r, t)

    _record_sampled(results, "P9", p9_cases())

    def p10_cases():
        for _ in range(samples):
            s = step_join(
                _random_element(rng, algebra, coeff_bound), zero
            )
            if s == zero:
                s = step_add(s, one)
            t = positive_approximant(rel, s)
            positive = step_leq(zero, t) and t != zero
            yield positive and lift_check(rel, t, s), (t, s)

    _record_sampled(results, "P10", p10_cases())

    return ProxReport("lifted proximity axioms", tuple(results))


def interpolate_lifted(rel: ProxRel, s: StepElem, t: StepElem) -> StepElem:
    """Construct ``r`` with ``s < r < t`` in the lifted relation.

    Interpolants of the step values over a compatible grid, prefix-met
    so they decrease.
    """
    _require_devries(rel)
    if not lift_check(rel, s, t):
        raise ValueError("interpolation requires a related pair")
    shared = compatible_decreasing(s, t)
    witnesses = [
        _interpolant_mask(rel, e.mask, f.mask)
        for e, f in zip(shared.left, shared.right)
    ]
    met = _prefix_meets(witnesses)
    return _assemble_masks(rel.algebra, list(zip(shared.thresholds, met)))


def positive_approximant(rel: ProxRel, s: StepElem) -> StepElem:
    """Construct ``0 < t`` related to ``s``, for strictly positive ``s``.

    Uses an approximation witness below the smallest step component of
    ``s``, spread over the window (0, top threshold].
    """
    _require_devries(rel)
    algebra = rel.algebra
    zero = step_zero(algebra)
    if not (step_leq(zero, s) and s != zero):
        raise ValueError("a positive approximant needs s > 0")
    smallest = s._masks[-1]
    candidates = [f for f in rel._lefts.get(smallest, ()) if 0 < f < algebra.size]
    if not candidates:
        raise ValueError(
            f"no nonzero witness below {s.idems[-1]}: not a de Vries proximity"
        )
    e = _smallest(algebra, candidates)
    top = s.thresholds[-1]
    return _assemble_masks(algebra, [(0, algebra.full_mask), (top, e)])


# --- JSON ---------------------------------------------------------------


def prox_to_json(rel: ProxRel) -> dict:
    elem = rel.algebra.from_mask
    return {
        "proximity": {
            "pairs": [
                [element_to_json(elem(e)), element_to_json(elem(f))]
                for e, f in rel.sorted_pairs()
            ]
        }
    }


def prox_from_json(algebra: Algebra, obj) -> ProxRel:
    if not isinstance(obj, dict) or "proximity" not in obj:
        raise ValueError(f"bad proximity JSON: {obj!r}")
    spec = obj["proximity"]
    if spec == "leq":
        return leq_proximity(algebra)
    if isinstance(spec, dict) and "pairs" in spec:
        pairs = frozenset(
            (
                element_from_json(algebra, left).mask,
                element_from_json(algebra, right).mask,
            )
            for left, right in spec["pairs"]
        )
        return ProxRel(algebra, pairs)
    raise ValueError(f"bad proximity JSON: {obj!r}")
