"""Shared test utilities: a term-level oracle, random term generation, and
a brute-force reference for the step-function layer.

The term oracle evaluates a term tree directly on scalars, one atom at a
time (a bound generator contributes 1 on the atoms it contains and 0
elsewhere, meet/join are min/max).  It never touches the orthogonal-form
arithmetic it is used to check.

The step reference reads a :class:`StepElem` as a plain list of
``(threshold, mask)`` pairs and evaluates each formula of the
``specker.steps`` module docstring literally at every candidate
threshold, as a join or meet over sample points; it shares no code with
the mask kernel it checks.  ``ref_merged_lattice`` is the composition
``step_meet`` and ``step_join`` ran before their one walk: the
``steps._merged`` samples, combined, then ``_assemble_masks``.

``orth_to_decreasing`` is the second route to the decreasing
decomposition: gaps between the ascending orthogonal values, with the
join of the components above each gap.  ``decreasing_decomposition``
must agree with it.

``step_add_formula`` and ``step_mul_nonneg_formula`` are the sum and
product formulas of the ``specker.steps`` docstring on step elements,
evaluated at every candidate threshold through ``StepElem.value``:
``step_add`` and the library's kernel product must equal them, in every
threshold's value and type and in every mask.

``ref_orth_by_refinement`` is the convolution formula of
``specker.orthogonal`` run literally: refine both operands to the common
orthogonal family of cells ``f(b) & g(c)``, give each cell the value
``pick(b, c)``, and normalize.  The atom-value kernel must agree with it,
and meet and join also with ``_lattice_by_formula``, which evaluates
the join at each candidate value.  No code in ``specker`` defines or uses
either formula (``test_one_path.py``).

The eager checker reference is the object-based form of the de Vries
axiom checker, the morphism axiom checker and the lifted-proximity check:
every case builds its witnesses as :class:`BoolElem` objects before its
condition is tested, and the lift reads step values through
``StepElem.value``.  The mask-based checkers must agree with it on every
report, verdict and counterexample.  ``ref_approximant_join`` is the
object-based M4 join: one ``from_decomposition`` per combination of
approximants (the full one and the same draws the library makes), joined
pairwise with ``step_join``.  The library's M4 verdict, which compares
images with ``step_leq`` and builds no join, must equal the reference
join's comparison with the action (``m4_outcomes``).
``ref_full_approximant_join`` joins every combination: a drawn verdict
may fail only where it does.

``ref_enumerate_devries`` finds the de Vries proximities of a very
small algebra by brute force: it runs the checker on every relation
between the forced pairs and ``<=``.  ``enumerate_devries`` gives the
order alone, by the theorem, and must agree with it.

``ref_interpolant_mask`` is the search the lifted layer ran before it
read ``<=`` by its definition: the interpolants of ``e < f`` found by
``has`` among all masks, and of those the one with fewest atoms, then
first by atom names (``ref_smallest``).  ``ref_approximant_mask`` is the
same search for a nonzero approximant.

``leq_pairs`` is ``<=`` as its 3^n pairs, the set that ``leq_proximity``
built before ``ProxRel`` stored ``<=`` by its definition; ``pairs_of``
reads any relation's pairs through it, and ``ProxRel.pair_at`` must
unrank exactly ``sorted(leq_pairs(algebra))``.

``ref_sample_related_pair`` draws its related pairs with
``rng.choice(sorted(pairs_of(rel)))``, as the library did before it read
a relation through ``ProxRel.count`` and ``ProxRel.pair_at``; the library
must draw the same pairs and leave the generator in the same state.

``within`` fails a test whose block runs longer than a given time.  It
cannot stop work inside C code, such as a ``sorted`` of 3^n pairs, so
``capped`` bounds the address space of a block instead: an allocation
past the cap raises ``MemoryError`` wherever it is made.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import random
import resource
import signal
from typing import Callable, Iterable, Iterator, Sequence

from specker.boolalg import Algebra, BoolElem, _check_same_algebra
from specker.morphisms import DVMorphism, ProxMorphism, _morphism_checks
from specker.orthogonal import OrthElem, orth_normalize
from specker.pointwise import PointFn
from specker.proximity import (
    AxiomResult,
    ProxRel,
    ProxReport,
    _random_grid,
    check_devries,
)
from specker.scalars import Scalar
from specker.steps import (
    StepElem,
    _assemble_masks,
    _merged,
    decreasing_decomposition,
    from_decomposition,
    step_join,
)
from specker.terms import BinOp, Lit, Neg, Pow, Term, Var


def term_oracle(term: Term, algebra: Algebra, binding: dict[str, BoolElem]) -> PointFn:
    """Evaluate a term pointwise at every atom."""

    def at(term: Term, bit: int) -> Scalar:
        if isinstance(term, Lit):
            return term.value
        if isinstance(term, Var):
            return 1 if binding[term.name].mask & bit else 0
        if isinstance(term, Neg):
            return -at(term.operand, bit)
        if isinstance(term, Pow):
            return at(term.base, bit) ** term.exponent
        if isinstance(term, BinOp):
            left, right = at(term.left, bit), at(term.right, bit)
            if term.op == "+":
                return left + right
            if term.op == "-":
                return left - right
            if term.op == "*":
                return left * right
            if term.op == "meet":
                return min(left, right)
            return max(left, right)
        raise TypeError(term)

    return PointFn(
        algebra, tuple(at(term, 1 << i) for i in range(len(algebra.atoms)))
    )


def random_term(
    rng: random.Random, names: list[str], depth: int = 5, coeff_bound: int = 5
) -> Term:
    """A random term of bounded depth over the given generator names."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Lit(rng.randint(-coeff_bound, coeff_bound))
        return Var(rng.choice(names))
    kind = rng.choice(["+", "-", "*", "meet", "join", "neg", "pow"])
    if kind == "neg":
        return Neg(random_term(rng, names, depth - 1, coeff_bound))
    if kind == "pow":
        return Pow(random_term(rng, names, depth - 1, coeff_bound), rng.randint(0, 3))
    return BinOp(
        kind,
        random_term(rng, names, depth - 1, coeff_bound),
        random_term(rng, names, depth - 1, coeff_bound),
    )


# --- brute-force reference for specker.steps ----------------------------------

Table = tuple[tuple[Scalar, int], ...]


def table_from_values(values: Sequence[Scalar]) -> Table:
    """Step table of the function taking ``values[i]`` at atom ``i``."""
    return tuple(
        (t, sum(1 << i for i, value in enumerate(values) if value >= t))
        for t in sorted(set(values))
    )


def steps_from_values(algebra: Algebra, values: Sequence[Scalar]) -> StepElem:
    """The step element taking ``values[i]`` at atom ``i``, built directly."""
    table = table_from_values(values)
    return StepElem(
        algebra,
        tuple(t for t, _ in table),
        tuple(algebra.from_mask(mask) for _, mask in table),
    )


def table_of(f: StepElem) -> Table:
    return tuple((t, e.mask) for t, e in zip(f.thresholds, f.idems))


def value_at(table: Table, a: Scalar) -> int:
    """The step function at ``a``: the first step whose threshold is >= ``a``."""
    for threshold, mask in table:
        if a <= threshold:
            return mask
    return 0


def canonical(samples: Iterable[tuple[Scalar, int]]) -> Table:
    """Canonical table from values sampled at every breakpoint.

    The value on ``(c[k-1], c[k]]`` is the one sampled at ``c[k]``; runs of
    equal values keep their largest point and a trailing zero run goes.
    """
    out: list[tuple[Scalar, int]] = []
    for c, mask in sorted(samples):
        if out and out[-1][1] == mask:
            out[-1] = (c, mask)
        else:
            out.append((c, mask))
    if out and out[-1][1] == 0:
        out.pop()
    return tuple(out)


def _join(masks: Iterable[int]) -> int:
    acc = 0
    for mask in masks:
        acc |= mask
    return acc


def _pairwise(f: StepElem, g: StepElem, combine: Callable) -> Table:
    # join of f(b1) & g(b2) over combine(b1, b2) >= a; the thresholds are
    # enough for b1 and b2, since rounding b up to the next threshold keeps
    # the value and does not lower combine(b1, b2) for these operations
    tf, tg = table_of(f), table_of(g)
    candidates = {combine(u, v) for u, _ in tf for v, _ in tg}
    return canonical(
        (
            a,
            _join(
                value_at(tf, u) & value_at(tg, v)
                for u, _ in tf
                for v, _ in tg
                if combine(u, v) >= a
            ),
        )
        for a in candidates
    )


def ref_add(f: StepElem, g: StepElem) -> Table:
    """(f + g)(a) = join of f(b1) & g(b2) over b1 + b2 >= a."""
    return _pairwise(f, g, lambda u, v: u + v)


def ref_mul_nonneg(f: StepElem, g: StepElem) -> Table:
    """(f g)(a) = join of f(b1) & g(b2) over b1, b2 >= 0, b1 b2 >= a."""
    return _pairwise(f, g, lambda u, v: u * v)


def step_add_formula(f: StepElem, g: StepElem) -> StepElem:
    """The sum formula, evaluated at every candidate threshold through
    ``StepElem.value`` on the scalars as given."""
    algebra = _check_same_algebra(f, g)
    candidates = sorted({u + v for u in f.thresholds for v in g.thresholds})
    points = []
    for c in candidates:
        mask = 0
        for u in f.thresholds:
            for v in g.thresholds:
                if u + v >= c:
                    mask |= (f.value(u) & g.value(v)).mask
        points.append((c, mask))
    return _assemble_masks(algebra, points)


def step_mul_nonneg_formula(f: StepElem, g: StepElem) -> StepElem:
    """The product formula of ``f, g >= 0``, evaluated at every candidate
    threshold through ``StepElem.value``."""
    algebra = _check_same_algebra(f, g)
    candidates = sorted({u * v for u in f.thresholds for v in g.thresholds})
    points = []
    for c in candidates:
        mask = 0
        for u in f.thresholds:
            for v in g.thresholds:
                if u * v >= c:
                    mask |= (f.value(u) & g.value(v)).mask
        points.append((c, mask))
    return _assemble_masks(algebra, points)


def ref_scale_pos(b: Scalar, f: StepElem) -> Table:
    """(b f)(a) = join of f(c) over b c >= a, for b > 0."""
    tf = table_of(f)
    return canonical(
        (b * t, _join(value_at(tf, c) for c, _ in tf if b * c >= b * t))
        for t, _ in tf
    )


def ref_neg(f: StepElem) -> Table:
    """(-f)(a) = meet of ~f(b) over b > -a.

    Over ``b > -a`` the function takes the values at the thresholds above
    ``-a`` and 0 past the last one, so the meet runs over those points.
    """
    tf = table_of(f)
    full = f.algebra.full_mask
    samples = []
    for t, _ in tf:
        a = -t
        meet = full  # ~0, the value past the last threshold
        for b, _ in tf:
            if b > -a:
                meet &= full ^ value_at(tf, b)
        samples.append((a, meet))
    return canonical(samples)


def _pointwise(f: StepElem, g: StepElem) -> list[tuple[Scalar, int, int]]:
    tf, tg = table_of(f), table_of(g)
    grid = {t for t, _ in tf} | {t for t, _ in tg}
    return [(a, value_at(tf, a), value_at(tg, a)) for a in grid]


def ref_meet(f: StepElem, g: StepElem) -> Table:
    return canonical((a, x & y) for a, x, y in _pointwise(f, g))


def ref_join(f: StepElem, g: StepElem) -> Table:
    return canonical((a, x | y) for a, x, y in _pointwise(f, g))


def ref_merged_lattice(f: StepElem, g: StepElem, meet: bool) -> StepElem:
    """``f & g`` if ``meet``, else ``f | g``: ``_merged``, then ``_assemble_masks``."""
    combine = operator.and_ if meet else operator.or_
    return _assemble_masks(f.algebra, [(c, combine(a, b)) for c, a, b in _merged(f, g)])


def ref_leq(f: StepElem, g: StepElem) -> bool:
    return all(x & y == x for _, x, y in _pointwise(f, g))


def ref_from_decomposition(
    algebra: Algebra, a0: Scalar, pairs: Sequence[tuple[Scalar, BoolElem]]
) -> Table:
    """``a0 + sum(b * e)`` summed atom by atom, read back as a table."""
    return table_from_values(
        [
            a0 + sum(b for b, e in pairs if e.mask >> i & 1)
            for i in range(len(algebra.atoms))
        ]
    )


def orth_to_decreasing(f: OrthElem) -> tuple[Scalar, tuple[tuple[Scalar, BoolElem], ...]]:
    """The decreasing decomposition read straight off the orthogonal one.

    With the values ascending, each coefficient is the gap between
    consecutive values and each idempotent is the join of the components
    at the larger values.
    """
    values = [value for value, _ in f.entries]
    components = [component for _, component in f.entries]
    return values[0], tuple(
        (values[i] - values[i - 1], functools.reduce(operator.or_, components[i:]))
        for i in range(1, len(values))
    )


# --- pair-refinement reference for specker.orthogonal --------------------------


def ref_orth_by_refinement(f: OrthElem, g: OrthElem, pick: Callable) -> OrthElem:
    """join of ``f(b) & g(c)`` over ``pick(b, c) = a``, for every value ``a``.

    Operands of different algebras fail in ``&``.
    """
    cells = [(pick(b, c), ef & eg) for b, ef in f.entries for c, eg in g.entries]
    return orth_normalize(f.algebra, cells)


def _lattice_by_formula(f: OrthElem, g: OrthElem, pick) -> OrthElem:
    # join of f(b) & g(c) over pick(b, c) = a, evaluated at each candidate a;
    # the reference formula for meet (``min``) and join (``max``)
    algebra = f.algebra
    candidates = sorted({pick(b, c) for b, _ in f.entries for c, _ in g.entries})
    entries = []
    for a in candidates:
        mask = 0
        for b, ef in f.entries:
            for c, eg in g.entries:
                if pick(b, c) == a:
                    mask |= (ef & eg).mask
        entries.append((a, algebra.from_mask(mask)))
    return orth_normalize(algebra, entries)


# --- eager reference for the de Vries, morphism and lift checkers -------------


def _submasks(mask: int) -> Iterable[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def leq_pairs(algebra: Algebra) -> frozenset[tuple[int, int]]:
    """``<=`` as its 3^n pairs, which the library's ``ProxRel`` does not store."""
    return frozenset((e, f) for f in range(algebra.size) for e in _submasks(f))


def pairs_of(rel: ProxRel) -> frozenset[tuple[int, int]]:
    """The pairs of ``rel``; those of ``<=`` from :func:`leq_pairs`."""
    return leq_pairs(rel.algebra) if rel.pairs is None else rel.pairs


def _run_cases(results: list, name: str, generator) -> None:
    """Record one axiom; like the library, no case checked is a failure."""
    checked = 0
    for condition, witness in generator:
        checked += 1
        if not condition:
            results.append(AxiomResult(name, False, checked, witness))
            return
    results.append(AxiomResult(name, checked > 0, checked))


def ref_check_devries(rel: ProxRel) -> ProxReport:
    """D1-D7 with every witness built before its condition is tested."""
    algebra = rel.algebra
    full = algebra.full_mask
    pairs = pairs_of(rel)
    ordered = sorted(pairs)
    elem = algebra.from_mask
    results: list = []

    d1_ok = (0, 0) in pairs and (full, full) in pairs
    results.append(
        AxiomResult("D1", d1_ok, 2, () if d1_ok else (elem(0), elem(full)))
    )
    _run_cases(
        results, "D2", ((e & f == e, (elem(e), elem(f))) for e, f in ordered)
    )

    def d3_cases():
        for f, g in ordered:
            for e in _submasks(f):
                for extension in _submasks(full & ~g):
                    h = g | extension
                    yield (e, h) in pairs, (elem(e), elem(f), elem(g), elem(h))

    _run_cases(results, "D3", d3_cases())

    def d4_cases():
        by_left: dict[int, list[int]] = {}
        for e, f in ordered:
            by_left.setdefault(e, []).append(f)
        for e, rights in sorted(by_left.items()):
            for f, g in itertools.product(rights, rights):
                yield (e, f & g) in pairs, (elem(e), elem(f), elem(g))

    _run_cases(results, "D4", d4_cases())
    _run_cases(
        results,
        "D5",
        (
            ((full & ~f, full & ~e) in pairs, (elem(e), elem(f)))
            for e, f in ordered
        ),
    )

    def d6_cases():
        for e, f in ordered:
            found = any(
                (e, g) in pairs and (g, f) in pairs for g in range(algebra.size)
            )
            yield found, (elem(e), elem(f))

    _run_cases(results, "D6", d6_cases())

    def d7_cases():
        for e in range(1, algebra.size):
            found = any((f, e) in pairs for f in range(1, algebra.size))
            yield found, (elem(e),)

    _run_cases(results, "D7", d7_cases())
    return ProxReport("de Vries axioms", tuple(results))


def ref_check_dv_morphism(m: DVMorphism) -> ProxReport:
    """M1-M4 with every witness built before its condition is tested."""
    src, tgt = m.source, m.target
    src_alg, tgt_alg = src.algebra, tgt.algebra
    results: list = []

    m1_ok = m.table[0] == 0
    results.append(
        AxiomResult("M1", m1_ok, 1, () if m1_ok else (tgt_alg.from_mask(m.table[0]),))
    )

    def m2_cases():
        for e in range(src_alg.size):
            for f in range(src_alg.size):
                ok = m.table[e & f] == m.table[e] & m.table[f]
                yield ok, (src_alg.from_mask(e), src_alg.from_mask(f))

    _run_cases(results, "M2", m2_cases())

    def m3_cases():
        src_full, tgt_full = src_alg.full_mask, tgt_alg.full_mask
        for e, f in sorted(pairs_of(src)):
            lower = tgt_full & ~m.table[src_full & ~e]
            ok = (lower, m.table[f]) in pairs_of(tgt)
            yield ok, (src_alg.from_mask(e), src_alg.from_mask(f))

    _run_cases(results, "M3", m3_cases())

    def m4_cases():
        approximants: dict[int, int] = {f: 0 for f in range(src_alg.size)}
        for e, f in pairs_of(src):
            approximants[f] |= m.table[e]
        for f in range(src_alg.size):
            ok = m.table[f] == approximants[f]
            yield ok, (src_alg.from_mask(f),)

    _run_cases(results, "M4", m4_cases())
    return ProxReport("de Vries morphism axioms", tuple(results))


def ref_lift_check(rel: ProxRel, s: StepElem, t: StepElem) -> bool:
    """The lifted relation read through ``value`` at every merged threshold."""
    if s.algebra != rel.algebra or t.algebra != rel.algebra:
        raise ValueError("mixed algebras: operands belong to different algebras")
    grid = sorted(set(s.thresholds) | set(t.thresholds))
    return all((s.value(b).mask, t.value(b).mask) in pairs_of(rel) for b in grid)


def ref_enumerate_devries(algebra: Algebra) -> list[ProxRel]:
    """Every relation passing D1-D7, by a search over all relations.

    Everything failing D1 or D2 is excluded up front (any proximity
    contains (0,0) and (1,1) and sits inside <=), and the survivors run
    the full checker.
    """
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


def ref_star_compose_table(m2: DVMorphism, m1: DVMorphism) -> tuple[int, ...]:
    """The star composite's table, scanning every pair for each element."""
    table = []
    for e in range(m1.source.algebra.size):
        mask = 0
        for f, g in pairs_of(m1.source):
            if g == e:
                mask |= m2.table[m1.table[f]]
        table.append(mask)
    return tuple(table)


def _ref_join(pm: ProxMorphism, a0, pairs, combos: Iterable) -> StepElem:
    """Join the images of the decomposition ``a0, pairs`` with its components
    swapped for each combination of approximants; like the library, the
    action runs on every combination before the first join."""
    images = [
        pm.action(from_decomposition(
            pm.source.algebra, a0, [(b, k) for (b, _), k in zip(pairs, combo)]
        ))
        for combo in combos
    ]
    return functools.reduce(step_join, images)


def ref_approximant_join(
    pm: ProxMorphism, t: StepElem, rng: random.Random, draws: int = 16
) -> StepElem:
    """The M4 join of the full combination and ``draws`` drawn ones, on
    :class:`BoolElem` objects: each drawn approximant is its component met
    with a random element, and a combination drawn twice is joined once."""
    src_alg = pm.source.algebra
    width = len(src_alg.atoms)
    a0, pairs = decreasing_decomposition(t)
    combos = [tuple(e for _, e in pairs)]
    for _ in range(draws):
        combo = tuple(e & src_alg.from_mask(rng.getrandbits(width)) for _, e in pairs)
        if combo not in combos:
            combos.append(combo)
    return _ref_join(pm, a0, pairs, combos)


def result_of(call: Callable, *args):
    """What ``call`` returns, or the arguments of the ``ValueError`` it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return exc.args


def _recorded(pm: ProxMorphism) -> tuple[ProxMorphism, list[StepElem]]:
    """``pm`` with an action that also lists each element it runs on."""
    ran: list[StepElem] = []

    def action(f: StepElem) -> StepElem:
        ran.append(f)
        return pm.action(f)

    return ProxMorphism(pm.source, pm.target, action, label=pm.label), ran


def m4_holds(pm: ProxMorphism, t: StepElem, rng: random.Random) -> bool:
    """The library's M4 verdict on ``t``: the ``holds`` of its sampled row."""
    (holds,) = [holds for name, _, holds in _morphism_checks(pm, rng, 1) if name == "M4"]
    return holds(t)


def m4_outcomes(pm: ProxMorphism, t: StepElem, seed: int) -> tuple[tuple, tuple]:
    """M4 on ``t`` by the library and by the reference, each from
    ``random.Random(seed)``, as ``(verdict, rng state after, elements the
    action ran on)``; a ``ValueError`` stands for its arguments.  The
    reference verdict is ``ref_approximant_join(...) == pm.action(t)``,
    the last action run not listed."""
    library, ran = _recorded(pm)
    reference, ref_ran = _recorded(pm)
    outcomes = []
    for decide, listed in (
        (lambda rng: m4_holds(library, t, rng), ran),
        (lambda rng: ref_approximant_join(reference, t, rng) == pm.action(t), ref_ran),
    ):
        rng = random.Random(seed)
        outcomes.append((result_of(decide, rng), rng.getstate(), listed))
    return outcomes[0], outcomes[1]


def ref_full_approximant_join(pm: ProxMorphism, t: StepElem) -> StepElem:
    """The M4 join over every combination of approximants, each approximant
    found by ``has`` among all masks."""
    src = pm.source
    a0, pairs = decreasing_decomposition(t)
    pools = [
        [src.algebra.from_mask(k) for k in range(src.algebra.size) if src.has(k, e.mask)]
        for _, e in pairs
    ]
    return _ref_join(pm, a0, pairs, itertools.product(*pools))


def ref_smallest(algebra: Algebra, masks: Sequence[int]) -> int:
    """The mask with fewest atoms, then lexicographically first atom names."""
    fewest = min(mask.bit_count() for mask in masks)
    tied = [mask for mask in masks if mask.bit_count() == fewest]
    atoms = algebra.atoms
    return min(
        tied, key=lambda mask: [name for i, name in enumerate(atoms) if mask >> i & 1]
    )


def ref_interpolant_mask(rel: ProxRel, e: int, f: int) -> int:
    """The smallest ``g`` with ``e < g < f``, searched among all masks."""
    candidates = [g for g in range(rel.algebra.size) if rel.has(e, g) and rel.has(g, f)]
    if not candidates:
        raise ValueError(f"no interpolant between masks {e} and {f}")
    return ref_smallest(rel.algebra, candidates)


def ref_approximant_mask(rel: ProxRel, f: int) -> int:
    """The smallest nonzero ``e`` with ``e < f``, searched among all masks."""
    candidates = [e for e in range(1, rel.algebra.size) if rel.has(e, f)]
    if not candidates:
        raise ValueError(f"no nonzero approximant of mask {f}")
    return ref_smallest(rel.algebra, candidates)


def _prefix_meets(masks: Sequence[int]) -> list[int]:
    out = []
    acc = None
    for mask in masks:
        acc = mask if acc is None else acc & mask
        out.append(acc)
    return out


def ref_sample_related_pair(
    rng: random.Random, rel: ProxRel, coeff_bound: int, nonneg: bool = False
) -> tuple[StepElem, StepElem]:
    """``sample_related_pair`` drawing each pair with ``rng.choice``."""
    algebra = rel.algebra
    full = algebra.full_mask
    grid = _random_grid(rng, coeff_bound, low=0 if nonneg else None)
    choices = sorted(pairs_of(rel))
    chosen = [(full, full)] + [rng.choice(choices) for _ in range(len(grid) - 1)]
    lefts = _prefix_meets([pair[0] for pair in chosen])
    rights = _prefix_meets([pair[1] for pair in chosen])
    s = _assemble_masks(algebra, list(zip(grid, lefts)))
    t = _assemble_masks(algebra, list(zip(grid, rights)))
    return s, t


class Overtime(Exception):
    """Raised inside a :func:`within` block that runs past its time."""


@contextlib.contextmanager
def within(seconds: float) -> Iterator[None]:
    """Raise :class:`Overtime` if the block runs longer than ``seconds``.

    Uses the real-time interval timer, so it works in the main thread of
    a POSIX process only, as pytest runs its tests.
    """

    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def capped(extra: int = 1 << 30) -> Iterator[None]:
    """Lower the soft address-space limit to the process's size now plus
    ``extra`` bytes for the block, and restore it afterwards.

    The size is read from ``/proc/self/statm``; where there is none, the
    block runs under the limit it had.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limits = [limit for limit in (soft, hard) if limit != resource.RLIM_INFINITY]
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            limits.append(int(statm.read().split()[0]) * resource.getpagesize() + extra)
    except OSError:
        pass
    if limits:
        resource.setrlimit(resource.RLIMIT_AS, (min(limits), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
