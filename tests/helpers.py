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
the mask kernel it checks.

The eager checker reference is the object-based form of the de Vries
axiom checker, the morphism axiom checker and the lifted-proximity check:
every case builds its witnesses as :class:`BoolElem` objects before its
condition is tested, and the lift reads step values through
``StepElem.value``.  The mask-based checkers must agree with it on every
report, verdict and counterexample.  ``ref_approximant_join`` is the
object-based M4 join: one ``from_decomposition`` per combination of
approximants, joined pairwise with ``step_join``.

``within`` fails a test whose block runs longer than a given time.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
from typing import Callable, Iterable, Iterator, Sequence

from specker.boolalg import Algebra, BoolElem
from specker.morphisms import DVMorphism, ProxMorphism
from specker.pointwise import PointFn
from specker.proximity import AxiomResult, ProxRel, ProxReport
from specker.scalars import Scalar
from specker.steps import (
    StepElem,
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


# --- eager reference for the de Vries, morphism and lift checkers -------------


def _submasks(mask: int) -> Iterable[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _run_cases(results: list, name: str, generator) -> None:
    checked = 0
    for condition, witness in generator:
        checked += 1
        if not condition:
            results.append(AxiomResult(name, False, checked, witness))
            return
    results.append(AxiomResult(name, True, checked))


def ref_check_devries(rel: ProxRel) -> ProxReport:
    """D1-D7 with every witness built before its condition is tested."""
    algebra = rel.algebra
    full = algebra.full_mask
    pairs = rel.pairs
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
        for e, f in sorted(src.pairs):
            lower = tgt_full & ~m.table[src_full & ~e]
            ok = (lower, m.table[f]) in tgt.pairs
            yield ok, (src_alg.from_mask(e), src_alg.from_mask(f))

    _run_cases(results, "M3", m3_cases())

    def m4_cases():
        approximants: dict[int, int] = {f: 0 for f in range(src_alg.size)}
        for e, f in src.pairs:
            approximants[f] |= m.table[e]
        for f in range(src_alg.size):
            ok = m.table[f] == approximants[f]
            yield ok, (src_alg.from_mask(f),)

    _run_cases(results, "M4", m4_cases())
    return ProxReport("de Vries morphism axioms", tuple(results))


def ref_lift_check(rel: ProxRel, s: StepElem, t: StepElem) -> bool:
    """The lifted relation read through ``value`` at every merged threshold."""
    if s.algebra != rel.algebra or t.algebra != rel.algebra:
        raise ValueError("mixed algebras in lifted proximity check")
    grid = sorted(set(s.thresholds) | set(t.thresholds))
    return all((s.value(b).mask, t.value(b).mask) in rel.pairs for b in grid)


def ref_star_compose_table(m2: DVMorphism, m1: DVMorphism) -> tuple[int, ...]:
    """The star composite's table, scanning every pair for each element."""
    table = []
    for e in range(m1.source.algebra.size):
        mask = 0
        for f, g in m1.source.pairs:
            if g == e:
                mask |= m2.table[m1.table[f]]
        table.append(mask)
    return tuple(table)


def ref_approximant_join(
    pm: ProxMorphism, t: StepElem, rng: random.Random, tuple_cap: int = 4096
) -> StepElem:
    """The M4 join over approximant combinations, on :class:`BoolElem` objects."""
    src = pm.source
    src_alg = src.algebra
    a0, pairs = decreasing_decomposition(t)
    lefts = src._lefts
    approximant_sets = [
        [src_alg.from_mask(k) for k in lefts.get(e.mask, ())] for _, e in pairs
    ]
    combos = list(itertools.product(*approximant_sets))
    if len(combos) > tuple_cap:
        combos = rng.sample(combos, tuple_cap)
    joined: StepElem | None = None
    for combo in combos:
        s = from_decomposition(
            src_alg, a0, [(b, k) for (b, _), k in zip(pairs, combo)]
        )
        image = pm.action(s)
        joined = image if joined is None else step_join(joined, image)
    assert joined is not None  # the empty product still yields one combo
    return joined


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
