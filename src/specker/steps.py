"""The boolean power in decreasing form: step functions.

A :class:`StepElem` is a decreasing step function from scalars into a
finite boolean algebra: value 1 up to a first threshold, then a strictly
decreasing chain of nonzero components on half-open intervals
``(a[i-1], a[i]]``, then 0.  Such functions encode decreasing
decompositions ``a0 + sum(b_i * e_i)`` with ``b_i > 0`` and strictly
decreasing idempotents, and they biject with orthogonal form via
upper-tail joins:

    to_steps(f)(a) = join of f(b) over b >= a.

The direct arithmetic formulas on step functions are

    (f + g)(a) = join of f(b1) & g(b2) over b1 + b2 >= a
    (b f)(a)   = join of f(c) over b c >= a            (b > 0)
    (f g)(a)   = join of f(b1) & g(b2) over b1, b2 >= 0, b1 b2 >= a
                                                        (f, g >= 0)
    (-f)(a)    = meet of ~f(b) over b > -a

each evaluated only at candidate thresholds, which suffices because both
sides are step functions whose breakpoints lie in those candidate sets.
Addition runs its formula on ints: both operands' thresholds times their
least common denominator, while the candidates and the result keep the
given scalars and their types.  Multiplication and subtraction hand the
classes of ``to_orth`` (the thresholds and the differences of the chain)
to the atom-value kernel of :mod:`specker.orthogonal` (``_by_atoms``, on
scaled ints when a threshold is a ``Fraction``) and turn the classes it
returns back into a chain; ``_sum``, the sum the sampled axiom suites
add with, runs the same kernel.  The product's formula stays a reference
in the tests, and the difference's is ``f + (-g)`` through
:func:`step_add`.  Scaling scales the thresholds, and
for ``b < 0`` reverses them and complements.  The tier-1 tests compare
every operation with its formula and with transport through the
bijection.  Meet, join, and the order are pointwise: meet and join
combine the two component chains in one walk (``_lattice``), while the
order, :func:`compatible_decreasing` and the lifted-proximity check read
the raw value pairs at each merged threshold from ``_merged``.

Elements keep their components as ``int`` masks over the atom order,
which every operation here reads; the :class:`BoolElem` components
(``idems``) are built on first read.  :func:`from_decomposition` rebuilds
``a0 + sum(b_i * e_i)`` by refining value classes: each pair moves the
part of every class inside ``e_i`` up by ``b_i``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .boolalg import (
    Algebra,
    BoolElem,
    _check_same_algebra,
    _field,
    _Frozen,
    _setattr,
    _shown,
    element_from_json,
    element_to_json,
    element_to_literal,
)
from .orthogonal import OrthElem, _by_atoms, _classes
from .orthogonal import _from_masks as _orth_from_masks
from .scalars import (
    Scalar,
    _random_values,
    _require_exact,
    format_scalar,
    parse_scalar,
)

__all__ = [
    "StepElem",
    "CompatibleSteps",
    "to_steps",
    "to_orth",
    "random_steps",
    "step_const",
    "step_zero",
    "step_one",
    "step_embed",
    "step_add",
    "step_sub",
    "step_scale_pos",
    "step_mul_nonneg",
    "step_neg",
    "step_mul",
    "step_scale",
    "step_meet",
    "step_join",
    "step_leq",
    "decreasing_decomposition",
    "from_decomposition",
    "compatible_decreasing",
    "step_to_json",
    "step_from_json",
]


class StepElem(_Frozen):
    """Decreasing step function in canonical form.

    ``thresholds`` strictly increase; ``idems`` strictly decrease with
    ``idems[0] == 1`` and ``idems[-1] != 0``.  The function is 1 for
    ``a <= thresholds[0]``, ``idems[i]`` on ``(thresholds[i-1],
    thresholds[i]]``, and 0 past ``thresholds[-1]``.
    """

    # the operations read the components as masks; ``idems`` builds them
    # once, on first read.  Equality and hashing read the masks.
    __slots__ = ("algebra", "thresholds", "_masks", "_idems")
    _fields = ("algebra", "thresholds", "_masks")
    algebra: Algebra
    thresholds: tuple[Scalar, ...]
    _masks: tuple[int, ...]

    def __init__(
        self,
        algebra: Algebra,
        thresholds: Sequence[Scalar],
        idems: Sequence[BoolElem],
    ) -> None:
        thresholds, idems = tuple(thresholds), tuple(idems)  # so that lists still hash
        _require_exact(*thresholds)
        _check_same_algebra(algebra, *idems)
        _fill(self, algebra, thresholds, tuple(e.mask for e in idems))
        _setattr(self, "_idems", idems)

    @property
    def idems(self) -> tuple[BoolElem, ...]:
        """The components as elements, built from the masks on first read."""
        try:
            return self._idems
        except AttributeError:
            algebra = self.algebra
            idems = tuple(BoolElem(algebra, mask) for mask in self._masks)
            _setattr(self, "_idems", idems)
            return idems

    def value(self, a: Scalar) -> BoolElem:
        """Evaluate the step function at ``a``."""
        index = bisect_left(self.thresholds, a)
        if index == len(self.thresholds):
            return self.algebra.zero
        try:  # the slot, not the property: this runs in the formula loops
            return self._idems[index]
        except AttributeError:
            return self.idems[index]

    def __add__(self, other: "StepElem") -> "StepElem":
        return step_add(self, other)

    def __sub__(self, other: "StepElem") -> "StepElem":
        return step_sub(self, other)

    def __mul__(self, other: "StepElem") -> "StepElem":
        return step_mul(self, other)

    def __neg__(self) -> "StepElem":
        return step_neg(self)

    def __str__(self) -> str:
        return " ".join(
            f"[{element_to_literal(idem).strip('[]')} | {format_scalar(threshold)}]"
            for threshold, idem in zip(self.thresholds, self.idems)
        )

    def __repr__(self) -> str:
        return f"StepElem({self})"


class CompatibleSteps(_Frozen):
    """Two step functions re-expressed over one shared threshold grid."""

    __slots__ = _fields = ("thresholds", "left", "right")
    thresholds: tuple[Scalar, ...]
    left: tuple[BoolElem, ...]
    right: tuple[BoolElem, ...]

    def __init__(
        self,
        thresholds: tuple[Scalar, ...],
        left: tuple[BoolElem, ...],
        right: tuple[BoolElem, ...],
    ) -> None:
        _setattr(self, "thresholds", thresholds)
        _setattr(self, "left", left)
        _setattr(self, "right", right)


def _assemble_masks(algebra: Algebra, points: Sequence[tuple[Scalar, int]]) -> StepElem:
    """Canonical step function from samples at its candidate breakpoints.

    ``points`` pairs strictly increasing scalars with the component masks
    sampled there, decreasing from 1; runs of equal components merge
    (keeping the largest scalar of each run) and a trailing zero run is
    dropped.
    """
    if not points:
        raise ValueError("cannot assemble a step function from no points")
    if points[0][1] != algebra.full_mask:
        raise ValueError("assembly requires the first sampled value to be 1")
    thresholds: list[Scalar] = []
    masks: list[int] = []
    last = -1
    for scalar, mask in points:
        if mask & last != mask:
            raise ValueError("assembly requires decreasing sampled values")
        if mask == last:
            thresholds[-1] = scalar
            continue
        thresholds.append(scalar)
        masks.append(mask)
        last = mask
    if last == 0:
        thresholds.pop()
        masks.pop()
    return _from_masks(algebra, thresholds, masks)


def _fill(
    elem: StepElem,
    algebra: Algebra,
    thresholds: tuple[Scalar, ...],
    masks: tuple[int, ...],
) -> StepElem:
    """Check the invariants of a step element on its masks, then store them;
    the masks are of ``algebra``, which the caller has checked."""
    if not thresholds or len(thresholds) != len(masks):
        raise ValueError("thresholds and components must align and be nonempty")
    if masks[0] != algebra.full_mask:
        raise ValueError("the first step must have component 1")
    if masks[-1] == 0:
        raise ValueError("the last step must have a nonzero component")
    for i in range(1, len(masks)):
        if not thresholds[i - 1] < thresholds[i]:
            raise ValueError("thresholds must strictly increase")
        below, here = masks[i - 1], masks[i]
        if here & below != here or here == below:
            raise ValueError("components must strictly decrease")
    _setattr(elem, "algebra", algebra)
    _setattr(elem, "thresholds", thresholds)
    _setattr(elem, "_masks", masks)
    return elem


def _from_masks(
    algebra: Algebra, thresholds: Sequence[Scalar], masks: Sequence[int]
) -> StepElem:
    """The step element with these component masks; builds no ``BoolElem``."""
    return _fill(StepElem.__new__(StepElem), algebra, tuple(thresholds), tuple(masks))


# --- the bijection with orthogonal form ----------------------------------


def _tail_masks(masks: Sequence[int]) -> list[int]:
    """Upper-tail joins: entry ``i`` is the join of ``masks[i:]``."""
    tails = []
    acc = 0
    for mask in reversed(masks):
        acc |= mask
        tails.append(acc)
    tails.reverse()
    return tails


def _differences(masks: tuple[int, ...]) -> list[int]:
    """Inverse of :func:`_tail_masks` on strictly decreasing ``masks``."""
    return [mask & ~past for mask, past in zip(masks, masks[1:] + (0,))]


def to_steps(f: OrthElem) -> StepElem:
    """Convert orthogonal form to step form by upper-tail joins."""
    return _from_masks(f.algebra, f._values, _tail_masks(f._masks))


def to_orth(g: StepElem) -> OrthElem:
    """Convert step form back to orthogonal form (inverse of to_steps)."""
    return _orth_from_masks(g.algebra, g.thresholds, _differences(g._masks))


def random_steps(rng: random.Random, algebra: Algebra, bound: int) -> StepElem:
    """A random element, one int per atom in [-bound, bound] (``bound`` >= 1);
    :func:`to_orth` of it is the same element in orthogonal form."""
    values, masks = _classes(_random_values(rng, len(algebra.atoms), bound))
    return _from_masks(algebra, values, _tail_masks(masks))


# --- distinguished elements ----------------------------------------------


def step_const(algebra: Algebra, a: Scalar) -> StepElem:
    _require_exact(a)
    return _from_masks(algebra, (a,), (algebra.full_mask,))


def step_zero(algebra: Algebra) -> StepElem:
    return step_const(algebra, 0)


def step_one(algebra: Algebra) -> StepElem:
    return step_const(algebra, 1)


def step_embed(e: BoolElem) -> StepElem:
    """Embed an idempotent as a step function (1 up to 0, ``e`` up to 1)."""
    return _assemble_masks(e.algebra, [(0, e.algebra.full_mask), (1, e.mask)])


# --- arithmetic -----------------------------------------------------------


def step_add(f: StepElem, g: StepElem) -> StepElem:
    algebra = _check_same_algebra(f, g)
    # the loop runs on ints: every threshold times the least common denominator
    scale = lcm(*[t.denominator for t in f.thresholds + g.thresholds])
    fs, gs = (
        StepElem(algebra, [t.numerator * (scale // t.denominator) for t in h.thresholds], h.idems)
        for h in (f, g)
    )
    candidates = sorted({u + v for u in f.thresholds for v in g.thresholds})
    points = []
    for c in candidates:
        cs = c.numerator * (scale // c.denominator)
        mask = 0
        for u in fs.thresholds:
            for v in gs.thresholds:
                if u + v >= cs:
                    mask |= (fs.value(u) & gs.value(v)).mask
        points.append((c, mask))
    return _assemble_masks(algebra, points)


def step_scale_pos(b: Scalar, f: StepElem) -> StepElem:
    """Multiply by a strictly positive scalar: thresholds scale, steps stay."""
    _require_exact(b)
    if not b > 0:
        raise ValueError("scalar must be > 0 here; use step_scale for general b")
    return _scaled(b, f)


def _pointwise(f: StepElem, g: StepElem, pick) -> StepElem:
    """The element taking ``pick(f(x), g(x))`` at each atom ``x``, from the
    classes of ``to_orth``."""
    algebra = _check_same_algebra(f, g)
    values, masks = _by_atoms(
        algebra, f.thresholds, _differences(f._masks), g.thresholds, _differences(g._masks), pick
    )
    return _from_masks(algebra, values, _tail_masks(masks))


def _sum(f: StepElem, g: StepElem) -> StepElem:
    """``f + g`` on the atom-value kernel; the sampled axiom suites add with it.

    :func:`step_add` still evaluates the formula at every candidate
    threshold; the tests hold the two equal.
    """
    return _pointwise(f, g, add)


def step_mul_nonneg(f: StepElem, g: StepElem) -> StepElem:
    _check_same_algebra(f, g)
    # a canonical element is >= 0 exactly when its first threshold is
    if not (f.thresholds[0] >= 0 and g.thresholds[0] >= 0):
        raise ValueError("both factors must be nonnegative; use step_mul instead")
    return _pointwise(f, g, mul)


def _scaled(b: Scalar, f: StepElem) -> StepElem:
    """``b f`` for ``b != 0``; for ``b < 0`` the component up to ``b t`` is
    the complement of the one just past ``t``."""
    if b > 0:
        return _from_masks(f.algebra, [b * t for t in f.thresholds], f._masks)
    full = f.algebra.full_mask
    return _from_masks(
        f.algebra,
        [b * t for t in reversed(f.thresholds)],
        [full ^ past for past in reversed(f._masks[1:] + (0,))],
    )


def step_neg(f: StepElem) -> StepElem:
    # (-f)(a) = meet of ~f(b) over b > -a: the complement of the value past -a
    return _scaled(-1, f)


def step_mul(f: StepElem, g: StepElem) -> StepElem:
    """General multiplication, atom by atom."""
    return _pointwise(f, g, mul)


def step_scale(b: Scalar, f: StepElem) -> StepElem:
    """General scalar action."""
    _require_exact(b)
    if b == 0:
        return step_zero(f.algebra)
    return _scaled(b, f)


def step_sub(f: StepElem, g: StepElem) -> StepElem:
    """``f - g``, atom by atom.

    The formula route ``step_add(f, step_neg(g))`` is the reference the
    tests hold it equal to.
    """
    return _pointwise(f, g, sub)


# --- order and lattice ----------------------------------------------------


def _merged(f: StepElem, g: StepElem) -> Iterator[tuple[Scalar, int, int]]:
    """``(c, f(c), g(c))`` at each threshold ``c`` of ``f`` or ``g``, ascending.

    The values are masks; a linear merge of the two threshold tuples.
    """
    ft, fm, gt, gm = f.thresholds, f._masks, g.thresholds, g._masks
    i = j = 0
    while i < len(ft) and j < len(gt):
        a, b = ft[i], gt[j]
        if a < b:
            yield a, fm[i], gm[j]
            i += 1
        elif b < a:
            yield b, fm[i], gm[j]
            j += 1
        else:
            yield a, fm[i], gm[j]
            i += 1
            j += 1
    for k in range(i, len(ft)):
        yield ft[k], fm[k], 0
    for k in range(j, len(gt)):
        yield gt[k], 0, gm[k]


def _lattice(f: StepElem, g: StepElem, meet: bool) -> StepElem:
    """``f & g`` if ``meet``, else ``f | g``, in one walk over both chains.

    The same merge as :func:`_merged`, written out because a generator
    yield costs as much as the work done at each merged threshold: it
    combines the two masks, moves the threshold of a run of equal masks
    up, and past the end of one chain a meet stops (it is 0 there on) and
    a join copies the rest of the other chain.
    """
    algebra = _check_same_algebra(f, g)
    ft, fm, gt, gm = f.thresholds, f._masks, g.thresholds, g._masks
    nf, ng = len(ft), len(gt)
    thresholds: list[Scalar] = []
    masks: list[int] = []
    last = -1
    i = j = 0
    while i < nf and j < ng:
        mask = fm[i] & gm[j] if meet else fm[i] | gm[j]
        a, b = ft[i], gt[j]
        if a < b:
            i += 1
        elif b < a:
            a = b
            j += 1
        else:
            i += 1
            j += 1
        if mask == last:
            thresholds[-1] = a
        elif mask:
            thresholds.append(a)
            masks.append(mask)
            last = mask
        else:  # a meet that reached 0 stays 0
            break
    if not meet:
        rest_t, rest_m = (ft[i:], fm[i:]) if i < nf else (gt[j:], gm[j:])
        if rest_m and rest_m[0] == last:
            thresholds[-1] = rest_t[0]
            rest_t, rest_m = rest_t[1:], rest_m[1:]
        thresholds.extend(rest_t)
        masks.extend(rest_m)
    return _from_masks(algebra, thresholds, masks)


def step_meet(f: StepElem, g: StepElem) -> StepElem:
    return _lattice(f, g, True)


def step_join(f: StepElem, g: StepElem) -> StepElem:
    return _lattice(f, g, False)


def step_leq(f: StepElem, g: StepElem) -> bool:
    """Pointwise order; checking the merged thresholds is exhaustive."""
    _check_same_algebra(f, g)
    return all(a & ~b == 0 for _, a, b in _merged(f, g))


# --- decompositions ---------------------------------------------------------


def decreasing_decomposition(
    f: StepElem,
) -> tuple[Scalar, tuple[tuple[Scalar, BoolElem], ...]]:
    """Read off ``a0 + sum(b_i * e_i)`` with ``b_i > 0`` from the steps."""
    pairs = tuple(
        (f.thresholds[i] - f.thresholds[i - 1], f.idems[i])
        for i in range(1, len(f.thresholds))
    )
    return f.thresholds[0], pairs


def from_decomposition(
    algebra: Algebra, a0: Scalar, pairs: Iterable[tuple[Scalar, BoolElem]]
) -> StepElem:
    """Rebuild the element ``a0 + sum(b * e)`` by refining value classes."""
    masks = []
    for b, e in pairs:
        _check_same_algebra(algebra, e)
        masks.append((b, e.mask))
    return _from_masks(algebra, *_refine_classes(algebra.full_mask, a0, masks))


def _refine_classes(
    full: int, a0: Scalar, pairs: Iterable[tuple[Scalar, int]]
) -> tuple[list[Scalar], list[int]]:
    """The thresholds and component masks of ``a0 + sum(b * e)``.

    ``classes`` maps each value to the mask of the atoms that take it;
    each pair moves the part of every class inside ``e`` up by ``b``.
    """
    classes = {a0: full}
    for b, inside in pairs:
        refined: dict[Scalar, int] = {}
        for value, mask in classes.items():
            if mask & ~inside:
                refined[value] = refined.get(value, 0) | mask & ~inside
            if mask & inside:
                moved = value + b
                refined[moved] = refined.get(moved, 0) | mask & inside
        classes = refined
    values = sorted(classes)
    return values, _tail_masks([classes[v] for v in values])


def compatible_decreasing(s: StepElem, t: StepElem) -> CompatibleSteps:
    """Re-express two elements over one shared threshold grid.

    The grid starts at a scalar lower bound of both elements and ends at
    an upper bound; when both elements are nonnegative the grid starts
    at 0.  Both elements reconstruct from their grid values, which the
    tier-1 tests check.
    """
    algebra = _check_same_algebra(s, t)
    points = list(_merged(s, t))
    if s.thresholds[0] >= 0 and t.thresholds[0] >= 0 and points[0][0] != 0:
        points.insert(0, (0, algebra.full_mask, algebra.full_mask))
    grid, left, right = zip(*points)
    elem = algebra.from_mask
    return CompatibleSteps(
        thresholds=grid, left=tuple(map(elem, left)), right=tuple(map(elem, right))
    )


# --- JSON ---------------------------------------------------------------


def step_to_json(f: StepElem) -> dict:
    return {
        "rep": "flat",
        "steps": [
            {"upto": format_scalar(threshold), "idem": element_to_json(idem)}
            for threshold, idem in zip(f.thresholds, f.idems)
        ],
    }


def step_from_json(algebra: Algebra, obj) -> StepElem:
    items = obj.get("steps") if isinstance(obj, dict) and obj.get("rep") == "flat" else None
    if not isinstance(items, list):
        raise ValueError(f"bad step-form JSON: {_shown(obj)}")
    points = [
        (parse_scalar(_field(item, "upto", "step-form")),
         element_from_json(algebra, _field(item, "idem", "step-form")).mask)
        for item in items
    ]
    for i in range(1, len(points)):
        if not points[i - 1][0] < points[i][0]:
            raise ValueError("step thresholds must strictly increase")
    return _assemble_masks(algebra, points)
