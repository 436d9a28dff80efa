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
Every direct formula is cross-checked against transport through the
bijection with orthogonal form.  Meet, join, and the order are pointwise.

Inside the layer the components are plain ``int`` masks over the atom
order: validation, assembly, the bijection, negation, meet, join, and the
order all work on masks, and :class:`BoolElem` objects are built only for
the components of a returned element (or taken from the caller at the
public boundary, where mixed algebras are rejected).
:func:`from_decomposition` rebuilds ``a0 + sum(b_i * e_i)`` by refining
value classes: starting from ``{a0: 1}``, each pair splits every class
into its part inside ``e_i`` (value raised by ``b_i``) and its part
outside, and classes with equal values merge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from .boolalg import (
    Algebra,
    BoolElem,
    _Frozen,
    _setattr,
    element_from_json,
    element_to_json,
    element_to_literal,
)
from .orthogonal import OrthElem, orth_add, orth_mul, orth_scale
from .scalars import Scalar, format_scalar, parse_scalar

__all__ = [
    "StepElem",
    "CompatibleSteps",
    "to_steps",
    "to_orth",
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
    "orth_to_decreasing",
    "from_decomposition",
    "compatible_decreasing",
    "is_idempotent",
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

    # ``_masks`` holds the components as masks, for the mask-level
    # operations of this module; it is derived, so equality, hashing and
    # the repr leave it out
    __slots__ = ("algebra", "thresholds", "idems", "_masks")
    algebra: Algebra
    thresholds: tuple[Scalar, ...]
    idems: tuple[BoolElem, ...]
    _masks: tuple[int, ...]

    def __init__(
        self,
        algebra: Algebra,
        thresholds: tuple[Scalar, ...],
        idems: tuple[BoolElem, ...],
    ) -> None:
        if not thresholds or len(thresholds) != len(idems):
            raise ValueError("thresholds and components must align and be nonempty")
        masks = tuple(idem.mask for idem in idems)
        if masks[0] != idems[0].algebra.full_mask:
            raise ValueError("the first step must have component 1")
        if masks[-1] == 0:
            raise ValueError("the last step must have a nonzero component")
        first_home = _same_algebra(idems[0].algebra, algebra)
        for i in range(1, len(thresholds)):
            if not thresholds[i - 1] < thresholds[i]:
                raise ValueError("thresholds must strictly increase")
            home = idems[i].algebra
            if home is not algebra and home != algebra:
                raise ValueError("components must strictly decrease")
            if not first_home:
                # idems[1] belongs here and idems[0] does not: a mixed pair
                raise ValueError(_MIXED)
            below, here = masks[i - 1], masks[i]
            if here & below != here or here == below:
                raise ValueError("components must strictly decrease")
        if not first_home:
            raise ValueError("component from a different algebra")
        _setattr(self, "algebra", algebra)
        _setattr(self, "thresholds", thresholds)
        _setattr(self, "idems", idems)
        _setattr(self, "_masks", masks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.algebra, self.thresholds, self.idems) == (
                other.algebra,
                other.thresholds,
                other.idems,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, self.thresholds, self.idems))

    def value(self, a: Scalar) -> BoolElem:
        """Evaluate the step function at ``a``."""
        index = bisect_left(self.thresholds, a)
        if index == len(self.thresholds):
            return self.algebra.zero
        return self.idems[index]

    def value_right(self, a: Scalar) -> BoolElem:
        """The value just past ``a``: join of the values at points > ``a``."""
        index = bisect_right(self.thresholds, a)
        if index == len(self.thresholds):
            return self.algebra.zero
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
        def bare(idem: BoolElem) -> str:
            if idem.is_zero or idem.is_one:
                return element_to_literal(idem)
            return ",".join(idem.atom_names())

        return " ".join(
            f"[{bare(idem)} | {format_scalar(threshold)}]"
            for threshold, idem in zip(self.thresholds, self.idems)
        )

    def __repr__(self) -> str:
        return f"StepElem({self})"


class CompatibleSteps(_Frozen):
    """Two step functions re-expressed over one shared threshold grid."""

    __slots__ = ("thresholds", "left", "right")
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.thresholds, self.left, self.right) == (
                other.thresholds,
                other.left,
                other.right,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.thresholds, self.left, self.right))

    def __repr__(self) -> str:
        return (
            f"CompatibleSteps(thresholds={self.thresholds!r}, "
            f"left={self.left!r}, right={self.right!r})"
        )


_MIXED = "mixed algebras: operands belong to different algebras"


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    return a is b or a == b


def _check_same_algebra(f: StepElem, g: StepElem) -> Algebra:
    if not _same_algebra(f.algebra, g.algebra):
        raise ValueError(_MIXED)
    return f.algebra


def _assemble(algebra: Algebra, points: Sequence[tuple[Scalar, BoolElem]]) -> StepElem:
    """Canonical step function from samples at its candidate breakpoints.

    ``points`` must be sorted by strictly increasing scalar with
    decreasing component values starting at 1; runs of equal components
    merge (keeping the largest scalar of each run) and a trailing zero
    run is dropped.  All components must share one algebra.
    """
    if not points:
        raise ValueError("cannot assemble a step function from no points")
    home = points[0][1].algebra
    if points[0][1].mask != home.full_mask:
        raise ValueError("assembly requires the first sampled value to be 1")
    for _, component in points:
        if not _same_algebra(component.algebra, home):
            raise ValueError(_MIXED)
    result = _assemble_masks(home, [(scalar, c.mask) for scalar, c in points])
    if _same_algebra(home, algebra):
        return result
    # the constructor rejects components of another algebra, with its message
    return StepElem(algebra, result.thresholds, result.idems)


def _assemble_masks(algebra: Algebra, points: Sequence[tuple[Scalar, int]]) -> StepElem:
    """:func:`_assemble` on component masks of ``algebra``."""
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


def _from_masks(
    algebra: Algebra, thresholds: Sequence[Scalar], masks: Sequence[int]
) -> StepElem:
    return StepElem(
        algebra, tuple(thresholds), tuple(BoolElem(algebra, m) for m in masks)
    )


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


def _to_steps_raw(f: OrthElem) -> StepElem:
    masks = [component.mask for _, component in f.entries]
    return _from_masks(f.algebra, f.values(), _tail_masks(masks))


def _to_orth_raw(g: StepElem) -> OrthElem:
    algebra, masks = g.algebra, g._masks
    entries = [
        (g.thresholds[i], BoolElem(algebra, masks[i] & ~masks[i + 1]))
        for i in range(len(masks) - 1)
    ]
    entries.append((g.thresholds[-1], g.idems[-1]))
    return OrthElem(algebra, tuple(entries))


def to_steps(f: OrthElem) -> StepElem:
    """Convert orthogonal form to step form by upper-tail joins."""
    result = _to_steps_raw(f)
    assert _to_orth_raw(result) == f
    return result


def to_orth(g: StepElem) -> OrthElem:
    """Convert step form back to orthogonal form (inverse of to_steps)."""
    result = _to_orth_raw(g)
    assert _to_steps_raw(result) == g
    return result


# --- distinguished elements ----------------------------------------------


def step_const(algebra: Algebra, a: Scalar) -> StepElem:
    return StepElem(algebra, (a,), (algebra.one,))


def step_zero(algebra: Algebra) -> StepElem:
    return step_const(algebra, 0)


def step_one(algebra: Algebra) -> StepElem:
    return step_const(algebra, 1)


def step_embed(e: BoolElem) -> StepElem:
    """Embed an idempotent as a step function (1 up to 0, ``e`` up to 1)."""
    algebra = e.algebra
    if e.is_one:
        return step_const(algebra, 1)
    if e.is_zero:
        return step_const(algebra, 0)
    return StepElem(algebra, (0, 1), (algebra.one, e))


# --- arithmetic -----------------------------------------------------------


def _transport(op, *elems: StepElem) -> StepElem:
    return _to_steps_raw(op(*(_to_orth_raw(f) for f in elems)))


def step_add(f: StepElem, g: StepElem) -> StepElem:
    algebra = _check_same_algebra(f, g)
    candidates = sorted({u + v for u in f.thresholds for v in g.thresholds})
    points = []
    for c in candidates:
        mask = 0
        for u in f.thresholds:
            for v in g.thresholds:
                if u + v >= c:
                    mask |= (f.value(u) & g.value(v)).mask
        points.append((c, algebra.from_mask(mask)))
    result = _assemble(algebra, points)
    assert result == _transport(orth_add, f, g)
    return result


def step_scale_pos(b: Scalar, f: StepElem) -> StepElem:
    """Multiply by a strictly positive scalar: thresholds scale, steps stay."""
    if not b > 0:
        raise ValueError("scalar must be > 0 here; use step_scale for general b")
    result = StepElem(
        f.algebra, tuple(b * t for t in f.thresholds), f.idems
    )
    assert result == _transport(lambda x: orth_scale(b, x), f)
    return result


def step_mul_nonneg(f: StepElem, g: StepElem) -> StepElem:
    algebra = _check_same_algebra(f, g)
    zero = step_zero(algebra)
    if not (step_leq(zero, f) and step_leq(zero, g)):
        raise ValueError("both factors must be nonnegative; use step_mul instead")
    candidates = sorted({u * v for u in f.thresholds for v in g.thresholds})
    points = []
    for c in candidates:
        mask = 0
        for u in f.thresholds:
            for v in g.thresholds:
                if u * v >= c:
                    mask |= (f.value(u) & g.value(v)).mask
        points.append((c, algebra.from_mask(mask)))
    result = _assemble(algebra, points)
    assert result == _transport(orth_mul, f, g)
    return result


def step_neg(f: StepElem) -> StepElem:
    # (-f)(a) = meet of ~f(b) over b > -a, which collapses to the
    # complement of the value just past -a: at a = -thresholds[i] that
    # is the complement of idems[i + 1] (of 0 past the last threshold)
    algebra = f.algebra
    full = algebra.full_mask
    points = [
        (-t, full ^ past)
        for t, past in zip(reversed(f.thresholds), reversed(f._masks[1:] + (0,)))
    ]
    result = _assemble_masks(algebra, points)
    assert result == _transport(lambda x: orth_scale(-1, x), f)
    return result


def step_mul(f: StepElem, g: StepElem) -> StepElem:
    """General multiplication, via transport through orthogonal form."""
    _check_same_algebra(f, g)
    result = _transport(orth_mul, f, g)
    zero = step_zero(f.algebra)
    if step_leq(zero, f) and step_leq(zero, g):
        assert result == step_mul_nonneg(f, g)
    return result


def step_scale(b: Scalar, f: StepElem) -> StepElem:
    """General scalar action, via transport through orthogonal form."""
    result = _transport(lambda x: orth_scale(b, x), f)
    if b > 0:
        assert result == step_scale_pos(b, f)
    elif b == -1:
        assert result == step_neg(f)
    return result


def step_sub(f: StepElem, g: StepElem) -> StepElem:
    return step_add(f, step_neg(g))


# --- order and lattice ----------------------------------------------------


def _merged_grid(f: StepElem, g: StepElem) -> list[Scalar]:
    return sorted(set(f.thresholds) | set(g.thresholds))


def _masks_at(f: StepElem, grid: Sequence[Scalar]) -> list[int]:
    """The values of ``f`` at the scalars of ``grid``, as masks."""
    padded = f._masks + (0,)
    return [padded[bisect_left(f.thresholds, c)] for c in grid]


def step_meet(f: StepElem, g: StepElem) -> StepElem:
    algebra = _check_same_algebra(f, g)
    grid = _merged_grid(f, g)
    points = [
        (c, a & b) for c, a, b in zip(grid, _masks_at(f, grid), _masks_at(g, grid))
    ]
    return _assemble_masks(algebra, points)


def step_join(f: StepElem, g: StepElem) -> StepElem:
    algebra = _check_same_algebra(f, g)
    grid = _merged_grid(f, g)
    points = [
        (c, a | b) for c, a, b in zip(grid, _masks_at(f, grid), _masks_at(g, grid))
    ]
    return _assemble_masks(algebra, points)


def _join_all(elems: Iterable[StepElem]) -> StepElem:
    """The join of one or more step functions of one algebra, in one pass.

    A step function is at ``c`` the union of its components at thresholds
    ``>= c``, so the join is the upper-tail union of all their steps.
    Each element's algebra is checked as it arrives; no elements at all
    leave no points, which ``_assemble_masks`` refuses.
    """
    algebra = None
    at: dict[Scalar, int] = {}
    for f in elems:
        if algebra is None:
            algebra = f.algebra
        elif not _same_algebra(f.algebra, algebra):
            raise ValueError(_MIXED)
        for threshold, mask in zip(f.thresholds, f._masks):
            at[threshold] = at.get(threshold, 0) | mask
    grid = sorted(at)
    return _assemble_masks(algebra, list(zip(grid, _tail_masks([at[c] for c in grid]))))


def step_leq(f: StepElem, g: StepElem) -> bool:
    """Pointwise order; checking the merged thresholds is exhaustive."""
    _check_same_algebra(f, g)
    fm, gm = f._masks + (0,), g._masks + (0,)
    return all(
        fm[bisect_left(f.thresholds, c)] & ~gm[bisect_left(g.thresholds, c)] == 0
        for c in _merged_grid(f, g)
    )


# --- decompositions ---------------------------------------------------------


def decreasing_decomposition(
    f: StepElem,
) -> tuple[Scalar, tuple[tuple[Scalar, BoolElem], ...]]:
    """Read off ``a0 + sum(b_i * e_i)`` with ``b_i > 0`` from the steps."""
    a0 = f.thresholds[0]
    pairs = tuple(
        (f.thresholds[i] - f.thresholds[i - 1], f.idems[i])
        for i in range(1, len(f.thresholds))
    )
    assert from_decomposition(f.algebra, a0, pairs) == f
    return a0, pairs


def from_decomposition(
    algebra: Algebra, a0: Scalar, pairs: Iterable[tuple[Scalar, BoolElem]]
) -> StepElem:
    """Rebuild the element ``a0 + sum(b * e)`` by refining value classes."""
    masks = []
    for b, e in pairs:
        if not _same_algebra(e.algebra, algebra):
            raise ValueError(_MIXED)
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
            for moved, part in ((value, mask & ~inside), (value + b, mask & inside)):
                if part:
                    refined[moved] = refined.get(moved, 0) | part
        classes = refined
    values = sorted(classes)
    return values, _tail_masks([classes[v] for v in values])


def orth_to_decreasing(
    f: OrthElem,
) -> tuple[Scalar, tuple[tuple[Scalar, BoolElem], ...]]:
    """Decreasing decomposition straight from an orthogonal decomposition.

    With values sorted ascending, each coefficient is the gap between
    consecutive values and each idempotent is the upper-tail join of the
    components at the larger values.
    """
    values = f.values()
    a0 = values[0]
    pairs = []
    tail = f.algebra.zero
    tails = []
    for _, component in reversed(f.entries):
        tail = tail | component
        tails.append(tail)
    tails.reverse()
    for i in range(1, len(values)):
        pairs.append((values[i] - values[i - 1], tails[i]))
    result = (a0, tuple(pairs))
    assert result == decreasing_decomposition(_to_steps_raw(f))
    return result


def compatible_decreasing(s: StepElem, t: StepElem) -> CompatibleSteps:
    """Re-express two elements over one shared threshold grid.

    The grid starts at a scalar lower bound of both elements and ends at
    an upper bound; when both elements are nonnegative the grid starts
    at 0.  Both elements reconstruct from their grid values, which is
    asserted.
    """
    algebra = _check_same_algebra(s, t)
    grid = _merged_grid(s, t)
    zero = step_zero(algebra)
    if step_leq(zero, s) and step_leq(zero, t) and grid[0] != 0:
        grid = [0] + grid
    result = CompatibleSteps(
        thresholds=tuple(grid),
        left=tuple(s.value(a) for a in grid),
        right=tuple(t.value(a) for a in grid),
    )
    assert result.left[0].is_one and result.right[0].is_one
    for elem, values in ((s, result.left), (t, result.right)):
        pairs = [
            (grid[i] - grid[i - 1], values[i]) for i in range(1, len(grid))
        ]
        assert from_decomposition(algebra, grid[0], pairs) == elem
    return result


def is_idempotent(f: StepElem) -> bool:
    """Order-theoretic idempotence test: ``f == (2 f) meet 1``."""
    doubled = step_scale_pos(2, f)
    by_order = step_meet(doubled, step_one(f.algebra)) == f
    g = _to_orth_raw(f)
    assert by_order == (orth_mul(g, g) == g)
    return by_order


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
    if not isinstance(obj, dict) or obj.get("rep") != "flat" or "steps" not in obj:
        raise ValueError(f"bad step-form JSON: {obj!r}")
    points = [
        (parse_scalar(item["upto"]), element_from_json(algebra, item["idem"]))
        for item in obj["steps"]
    ]
    for i in range(1, len(points)):
        if not points[i - 1][0] < points[i][0]:
            raise ValueError("step thresholds must strictly increase")
    return _assemble(algebra, points)
