"""De Vries proximities on finite boolean algebras and their lift.

A proximity here is a binary relation on a finite boolean algebra
subject to the compingent axioms (D1-D7 below).  On a finite algebra
``<=`` is the only one (the finite corner of de Vries duality), so the
library gate asks whether a relation is ``<=``, with no bound, and
:func:`check_devries` runs D1-D7 only where its report is printed: a
gate that refuses, here or in :mod:`specker.morphisms`, raises
``_Refused``, a ``ValueError`` that carries the failing report.  The
relation lifts pointwise to step functions: two elements are related
exactly when their step values are related at every scalar.  Past the
gate the relation is ``<=``, so the lifted layer reads it by its
definition: the lift is the pointwise order ``steps.step_leq``, an
interpolant of ``s < t`` is ``s``, and a positive approximant of ``s``
is an atom below its last step component.

The lifted relation is itself a proximity in the algebra sense (axioms
P1-P10); those laws quantify over all elements, so they are verified by
bounded random sampling plus constructive witnesses for the two
existential axioms (interpolation and positive approximation), with all
randomness seeded.  The random elements come from the core
(``steps.random_steps``), not from the oracle; a suite checks its
coefficient bound and its relation at entry, its cases draw related
pairs through the public :func:`sample_related_pair`, whose repeated
checks are a bound test and a cache hit, and they add on the atom-value
kernel (``steps._sum``).  ``<=`` stores no pairs; the walks over every
pair or element (D1-D7, the enumeration, the restriction of the lift,
M1-M4) take algebras of at most 32 elements, and
``_require_exhaustive`` refuses a larger one at their entry.

Every axiom, exhaustive or sampled, here and in :mod:`specker.morphisms`,
is recorded by one recorder: its cases yield ``None`` when they hold and
a witness when they fail, ``boolalg._first_failure`` counts them up to
the first failure, and an axiom that failed or checked no case at all
fails.  A sampled check (P2-P10, M2-M7, the eta-square) is a row
``(name, draw, holds)``: ``draw`` takes one sample's operands from the
suite's seeded generator and ``holds`` decides them.  ``_record_sampled``
holds the one loop over ``samples`` and the one witness rule: a failing
sample's operands, or the message of a ``ValueError`` raised by either.

Axioms on the boolean algebra:

    D1  0 < 0 and 1 < 1
    D2  e < f implies e <= f
    D3  e <= f < g <= h implies e < h
    D4  e < f and e < g imply e < f & g
    D5  e < f implies ~f < ~e
    D6  e < f implies e < g < f for some g
    D7  e != 0 implies f < e for some f != 0

(writing ``<`` for the proximity).

The checkers work on ``int`` masks over the atom order.  Every module
reads a relation only through the three :class:`ProxRel` methods
``has``, ``count`` and ``pair_at``.  Past the gate the lifted layer reads
it only through ``count`` and ``pair_at``, to draw related pairs; the
exhaustive checkers D1-D7 and M1-M4 read any relation generically, and
derive what else they need from the sorted pairs they walk.
:class:`BoolElem` objects are built only for returned values and for the
witnesses of a failing axiom.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .boolalg import (
    Algebra,
    BoolElem,
    _check_same_algebra,
    _field,
    _first_failure,
    _Frozen,
    _setattr,
    _shown,
    element_from_json,
    element_to_json,
)
from .scalars import _require_coeff_bound
from .steps import (
    StepElem,
    random_steps,
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
    _sum,
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

    Every mask lies in ``0..size-1``; ``<=``, given as ``None`` or as its
    pairs, stores none.  It is read only through :meth:`has`,
    :meth:`count`, :meth:`pair_at` and the element form :meth:`related`.
    """

    # ``_sorted``, the pairs in sorted order, is derived from ``pairs``:
    # equality and hashing skip it
    __slots__ = ("algebra", "pairs", "_sorted")
    _fields = ("algebra", "pairs")
    algebra: Algebra
    pairs: frozenset[tuple[int, int]] | None
    _sorted: tuple[tuple[int, int], ...] | None

    def __init__(self, algebra: Algebra, pairs: Iterable[tuple[int, int]] | None) -> None:
        if pairs is not None:
            pairs = frozenset(pairs)  # so that a set or a list given still hashes
            limit = algebra.size
            outside = [p for p in pairs if not (0 <= p[0] < limit and 0 <= p[1] < limit)]
            if outside:
                raise ValueError(
                    f"proximity pair {min(outside)} outside the masks 0..{limit - 1}"
                )
            # 3^n distinct pairs inside the order are all of ``<=``
            if len(pairs) == 3 ** len(algebra.atoms) and all(e & ~f == 0 for e, f in pairs):
                pairs = None
        _setattr(self, "algebra", algebra)
        _setattr(self, "pairs", pairs)
        _setattr(self, "_sorted", None if pairs is None else tuple(sorted(pairs)))

    def related(self, e: BoolElem, f: BoolElem) -> bool:
        _check_same_algebra(self, e, f)
        return e.mask & ~f.mask == 0 if self.pairs is None else (e.mask, f.mask) in self.pairs

    def has(self, e: int, f: int) -> bool:
        return e & ~f == 0 if self.pairs is None else (e, f) in self.pairs

    def count(self) -> int:
        return 3 ** len(self.algebra.atoms) if self.pairs is None else len(self.pairs)

    def pair_at(self, k: int) -> tuple[int, int]:
        """The ``k``-th pair in sorted order."""
        if self.pairs is not None:
            return self._sorted[k]
        n = len(self.algebra.atoms)
        if not 0 <= k < 3**n:
            raise IndexError(f"pair index {k} outside 0..{3**n - 1}")
        # under ``<=``, the pairs whose ``e`` agrees above bit i and lacks
        # bit i number 3^i * 2^(bits of ``f`` free at or above i)
        e = free = 0
        for i in reversed(range(n)):
            skip = 3**i << free + 1
            if k < skip:
                free += 1
            else:
                k, e = k - skip, e | 1 << i
        # the rest of ``k`` ranks ``f`` among the supersets of ``e``
        positions = [i for i in range(n) if not e >> i & 1]
        return e, e | sum((k >> j & 1) << i for j, i in enumerate(positions))

    def __repr__(self) -> str:
        return f"ProxRel({self.count()} pairs on {self.algebra!r})"


class AxiomResult(_Frozen):
    __slots__ = _fields = ("name", "passed", "checked", "counterexample")
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

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: pass ({self.checked} checks)"
        if not self.checked:
            return f"{self.name}: FAIL (no cases checked)"
        witness = ", ".join(str(x) for x in self.counterexample)
        return f"{self.name}: FAIL ({witness})"


class ProxReport(_Frozen):
    """Outcome of an axiom check, one result per axiom."""

    __slots__ = _fields = ("subject", "results")
    subject: str
    results: tuple[AxiomResult, ...]

    def __init__(self, subject: str, results: tuple[AxiomResult, ...]) -> None:
        _setattr(self, "subject", subject)
        _setattr(self, "results", results)

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
    return ProxRel(algebra, None)


def _submasks(mask: int) -> Iterable[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _record(
    results: list,
    name: str,
    cases: Iterable,
    elem: Callable[[int], BoolElem] | None = None,
) -> None:
    """Run one axiom's cases and append its result.

    Each case yields ``None`` when it holds and its witness when it
    fails.  The axiom fails at its first failing case, and also when it
    checked no case: a check of nothing is no evidence.  Exhaustive
    axioms yield witness masks, and only the failing case's masks become
    elements, through ``elem``.
    """
    checked, failure = _first_failure(cases)
    if failure is None:
        results.append(AxiomResult(name, checked > 0, checked))
        return
    if elem is not None:
        failure = tuple(elem(mask) for mask in failure)
    results.append(AxiomResult(name, False, checked, failure))


def _record_sampled(results: list, samples: int, checks: Sequence[tuple]) -> None:
    """Record each ``(name, draw, holds)`` check, in order, over ``samples`` draws.

    ``draw()`` returns one sample's operands and ``holds(*operands)``
    decides them.  A sample that fails has its operands as its witness;
    a ``ValueError`` from ``draw`` or ``holds`` fails too: it counts as
    checked, its message is the witness, and the checks after it still
    run.  Each check runs to its first failure before the next one
    starts, so checks sharing one seeded ``rng`` draw from it in the
    order given.  This is the one loop over ``samples`` in the sampled
    suites: P2-P10, M2-M7 and the eta-square.
    """
    for name, draw, holds in checks:
        _record(results, name, (_run_case(draw, holds) for _ in range(samples)))


def _run_case(draw: Callable[[], tuple], holds: Callable[..., bool]) -> tuple | None:
    """``None`` when the drawn operands hold, else the operands or the
    message of the ``ValueError`` raised."""
    try:
        operands = draw()
        return None if holds(*operands) else operands
    except ValueError as exc:
        return (str(exc),)


# the largest algebra the exhaustive checkers take (5 atoms)
_EXHAUSTIVE_BOUND = 32


def _require_exhaustive(algebra: Algebra) -> None:
    """Refuse an algebra with more than ``_EXHAUSTIVE_BOUND`` elements.

    The walks over all pairs or all elements run this first.
    """
    if algebra.size > _EXHAUSTIVE_BOUND:
        raise ValueError(
            f"algebra with {algebra.size} elements exceeds the exhaustive "
            f"bound of {_EXHAUSTIVE_BOUND}"
        )


def check_devries(rel: ProxRel) -> ProxReport:
    """Exhaustively verify the de Vries axioms D1-D7 on a finite algebra."""
    algebra = rel.algebra
    _require_exhaustive(algebra)
    size, full = algebra.size, algebra.full_mask
    has, ordered = rel.has, tuple(map(rel.pair_at, range(rel.count())))
    elem = algebra.from_mask
    results: list = []

    # D1 is one statement about two fixed pairs, not a case loop: it counts
    # both and names both elements whichever pair is missing
    d1_ok = has(0, 0) and has(full, full)
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
                    yield None if has(e, h) else (e, f, g, h)

    _record(results, "D3", d3_cases(), elem)

    # the ``f`` with ``e < f`` for each ``e``, ascending, as ``ordered`` is
    rights: list[list[int]] = [[] for _ in range(size)]
    for e, f in ordered:
        rights[e].append(f)

    def d4_cases():
        for e, row in enumerate(rights):
            for f in row:
                for g in row:
                    yield None if has(e, f & g) else (e, f, g)

    _record(results, "D4", d4_cases(), elem)

    _record(
        results,
        "D5",
        (
            None if has(full & ~f, full & ~e) else (e, f)
            for e, f in ordered
        ),
        elem,
    )

    def d6_cases():
        for e, f in ordered:
            found = any(has(g, f) for g in rights[e])
            yield None if found else (e, f)

    _record(results, "D6", d6_cases(), elem)

    def d7_cases():
        approximated = {f for e, f in ordered if e}  # some nonzero approximant
        for e in range(1, size):
            yield None if e in approximated else (e,)

    _record(results, "D7", d7_cases(), elem)

    return ProxReport("de Vries axioms", tuple(results))


# relations whose gate verdict is kept, so that a long-lived process does
# not keep every relation it ever checked alive
_DEVRIES_CACHED = 32


def enumerate_devries(algebra: Algebra) -> list[ProxRel]:
    """All de Vries proximities on an algebra within the exhaustive bound: only ``<=``.

    On a finite algebra D7 at an atom forces ``a < a``, D4 and D5 give
    joins on the left, D3 upward closure and D2 ``<`` inside ``<=``, so
    the order is the one proximity.  The tier-1 tests compare this with
    a search over all relations on the smallest algebras.
    """
    _require_exhaustive(algebra)
    return [leq_proximity(algebra)]


@lru_cache(maxsize=_DEVRIES_CACHED)
def _devries_ok(rel: ProxRel) -> bool:
    """``check_devries(rel).ok``, by the finite theorem: ``rel`` is ``<=``."""
    return rel.pairs is None


class _Refused(ValueError):
    """A gate's refusal; ``report`` is the failing report that says why."""

    def __init__(self, message: str, report: ProxReport) -> None:
        super().__init__(message)
        self.report = report


def _require_devries(rel: ProxRel) -> None:
    """Raise :class:`_Refused`, with the failing D1-D7 report, unless
    ``rel`` is ``<=``; over the exhaustive bound, that bound's error."""
    if not _devries_ok(rel):
        raise _Refused("relation is not a de Vries proximity", check_devries(rel))


def interpolant(rel: ProxRel, e: BoolElem, f: BoolElem) -> BoolElem:
    """Some ``g`` with ``e < g < f``: under ``<=``, ``e`` itself.

    Raises ``ValueError`` when ``(e, f)`` is not in the relation, and
    then when the relation is not a de Vries proximity.
    """
    if not rel.related(e, f):
        raise ValueError("interpolant requires a related pair")
    _require_devries(rel)
    return e


def lift_check(rel: ProxRel, s: StepElem, t: StepElem) -> bool:
    """The pointwise lift: related iff step values are related everywhere.

    Past the gate the relation is ``<=``, so its lift is the pointwise
    order :func:`steps.step_leq`.
    """
    _check_same_algebra(rel, s, t)
    _require_devries(rel)
    return step_leq(s, t)


def restrict_lift(rel: ProxRel) -> ProxRel:
    """Restrict the lifted relation back to embedded idempotents.

    The round trip is the identity: the tier-1 tests check it, and
    ``specker lift`` reports it.
    """
    _require_devries(rel)
    algebra = rel.algebra
    _require_exhaustive(algebra)  # 4^n ``step_leq`` calls
    embedded = [step_embed(e) for e in algebra.elements()]
    pairs = frozenset(
        (e, f)
        for e, s in enumerate(embedded)
        for f, t in enumerate(embedded)
        if step_leq(s, t)
    )
    return ProxRel(algebra, pairs)


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
    _require_coeff_bound(coeff_bound)
    _require_devries(rel)
    algebra = rel.algebra
    full = algebra.full_mask
    grid = _random_grid(rng, coeff_bound, low=0 if nonneg else None)
    # the draws of ``rng.choice`` over the sorted pairs, without the list
    count, pair_at = rel.count(), rel.pair_at
    left = right = full
    lefts, rights = [(grid[0], full)], [(grid[0], full)]
    for c in grid[1:]:
        e, f = pair_at(rng.randrange(count))
        left &= e
        right &= f
        lefts.append((c, left))
        rights.append((c, right))
    return _assemble_masks(algebra, lefts), _assemble_masks(algebra, rights)


def sample_proximity_axioms(
    rel: ProxRel,
    samples: int = 200,
    coeff_bound: int = 10,
    seed: int = 0,
) -> ProxReport:
    """Sampled verification of the lifted-proximity axioms P1-P10.

    P1-P8 run on randomly constructed tuples; P9 and P10 take their
    witnesses from the public constructions :func:`interpolate_lifted`
    and :func:`positive_approximant`, so a refusal of either fails its
    axiom with the message as its witness.  A failing axiom reports the
    offending tuple.  ``coeff_bound`` must be at least 1.

    The bound and the relation are checked here, before P1 runs.
    """
    _require_coeff_bound(coeff_bound)
    _require_devries(rel)
    zero, one = step_zero(rel.algebra), step_one(rel.algebra)
    results: list = []

    _record(results, "P1", [None if step_leq(e, e) else (e, e) for e in (zero, one)])
    rng = random.Random(f"{seed}:proximity-axioms")
    _record_sampled(results, samples, _proximity_checks(rel, rng, coeff_bound))

    return ProxReport("lifted proximity axioms", tuple(results))


def _proximity_checks(rel: ProxRel, rng: random.Random, coeff_bound: int) -> list:
    """P2-P10 as :func:`_record_sampled` rows; each ``holds`` reads only its
    operands, so it decides enumerated ones as well as drawn ones."""
    algebra = rel.algebra
    zero, one = step_zero(algebra), step_one(algebra)

    def pair(nonneg: bool = False) -> tuple[StepElem, StepElem]:
        return sample_related_pair(rng, rel, coeff_bound, nonneg)

    def steps() -> StepElem:
        return random_steps(rng, algebra, coeff_bound)

    def nonneg_steps() -> StepElem:
        return step_join(steps(), zero)

    def p3():
        t, r = pair()
        down, up = nonneg_steps(), nonneg_steps()
        return _sum(t, step_neg(down)), t, r, _sum(r, up)

    def p4():
        (s1, t), (s2, r) = pair(), pair()
        return step_meet(s1, s2), t, r

    def p7():
        if rng.random() < 0.5:
            s, t = pair()
        else:
            s, t = steps(), steps()
        return rng.randint(1, coeff_bound), s, t

    def p9():
        s, t = pair()
        return s, interpolate_lifted(rel, s, t), t

    def p10():
        s = nonneg_steps()
        if s == zero:
            s = _sum(s, one)
        return positive_approximant(rel, s), s

    return [
        ("P2", pair, step_leq),
        ("P3", p3, lambda s, t, r, u: step_leq(s, u)),
        # meets of related pairs stay related; if the first two checks
        # fail the relation itself is broken, so report it the same way
        (
            "P4",
            p4,
            lambda s, t, r: step_leq(s, t) and step_leq(s, r) and step_leq(s, step_meet(t, r)),
        ),
        ("P5", pair, lambda s, t: step_leq(step_neg(t), step_neg(s))),
        ("P6", lambda: pair() + pair(), lambda s, t, r, u: step_leq(_sum(s, r), _sum(t, u))),
        (
            "P7",
            p7,
            lambda a, s, t: step_leq(step_scale_pos(a, s), step_scale_pos(a, t))
            == step_leq(s, t),
        ),
        (
            "P8",
            lambda: pair(True) + pair(True),
            lambda s, t, r, u: step_leq(step_mul_nonneg(s, r), step_mul_nonneg(t, u)),
        ),
        ("P9", p9, lambda s, r, t: step_leq(s, r) and step_leq(r, t)),
        ("P10", p10, lambda t, s: t.thresholds[0] >= 0 and t != zero and step_leq(t, s)),
    ]


def interpolate_lifted(rel: ProxRel, s: StepElem, t: StepElem) -> StepElem:
    """Construct ``r`` with ``s < r < t`` in the lifted relation: ``s`` itself.

    Under ``<=`` every idempotent interpolant of ``e < f`` may be ``e``,
    so the interpolant of the step values is ``s``.
    """
    if not lift_check(rel, s, t):
        raise ValueError("interpolation requires a related pair")
    return s


def positive_approximant(rel: ProxRel, s: StepElem) -> StepElem:
    """Construct ``0 < t`` related to ``s``, for strictly positive ``s``.

    ``t`` is an atom below the last step component of ``s``, the one
    whose name sorts first, spread over the window (0, top threshold].
    """
    _check_same_algebra(rel, s)
    _require_devries(rel)
    algebra = rel.algebra
    if not (s.thresholds[0] >= 0 and s != step_zero(algebra)):
        raise ValueError("a positive approximant needs s > 0")
    last = s._masks[-1]
    _, first = min((name, i) for i, name in enumerate(algebra.atoms) if last >> i & 1)
    top = s.thresholds[-1]
    return _assemble_masks(algebra, [(0, algebra.full_mask), (top, 1 << first)])


# --- JSON ---------------------------------------------------------------


def prox_to_json(rel: ProxRel) -> dict:
    # ``<=`` over the exhaustive bound is "leq", not its 3^n pairs
    if rel.pairs is None and rel.algebra.size > _EXHAUSTIVE_BOUND:
        return {"proximity": "leq"}
    elem = rel.algebra.from_mask
    return {
        "proximity": {
            "pairs": [
                [element_to_json(elem(e)), element_to_json(elem(f))]
                for e, f in map(rel.pair_at, range(rel.count()))
            ]
        }
    }


def prox_from_json(algebra: Algebra, obj) -> ProxRel:
    spec = _field(obj, "proximity", "proximity")
    if spec == "leq":
        return leq_proximity(algebra)
    if not (isinstance(spec, dict) and "pairs" in spec):
        raise ValueError(f"bad proximity JSON: needs 'leq' or 'pairs', got {_shown(spec)}")
    listed = spec["pairs"]
    if not isinstance(listed, list):
        raise ValueError(f"bad proximity pairs: {_shown(listed)}")
    pairs = set()
    for pair in listed:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"bad proximity pair: {_shown(pair)}")
        pairs.add(tuple(element_from_json(algebra, side).mask for side in pair))
    return ProxRel(algebra, pairs)
