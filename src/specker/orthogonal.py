"""The boolean power in orthogonal form.

An :class:`OrthElem` is a finitely-valued function from scalars to a
finite boolean algebra: a map ``{value -> component}`` whose components
are nonzero, pairwise disjoint, and join to 1.  Equivalently it is the
unique full orthogonal decomposition ``sum(value * component)`` of an
element of the idempotent-generated algebra over the coefficient domain,
with distinct values.

Sums, products, meets and joins work atom by atom: over a finite algebra
an element is fixed by its atom values, so the operands' values are read
from their component masks, combined, and regrouped by value into the
canonical form, in O(n + k log k) for n atoms and k classes.  The tests
compare this with the convolution formula ``(f + g)(a) = join of f(b) &
g(c) over b + c = a``.  The order's positive cone is the elements with
all values nonnegative.  Everything is immutable and exact.
"""

from __future__ import annotations

from operator import add, le, mul, sub
from typing import Iterable, Sequence

from .boolalg import (
    Algebra,
    BoolElem,
    _check_same_algebra,
    _Frozen,
    _setattr,
    element_from_json,
    element_to_json,
    element_to_literal,
)
from .scalars import Scalar, format_scalar, parse_scalar

__all__ = [
    "OrthElem",
    "orth_normalize",
    "orth_const",
    "orth_zero",
    "orth_unit",
    "orth_embed",
    "orth_add",
    "orth_sub",
    "orth_mul",
    "orth_scale",
    "orth_neg",
    "orth_is_nonneg",
    "orth_leq",
    "orth_meet",
    "orth_join",
    "annihilator_idempotent",
    "orth_to_json",
    "orth_from_json",
]


class OrthElem(_Frozen):
    """Canonical full orthogonal decomposition over a finite algebra.

    ``entries`` is sorted by ascending value; values are distinct, every
    component is nonzero, components are pairwise disjoint, and their
    join is 1.  Equality of elements is equality of these tuples.
    """

    __slots__ = ("algebra", "entries")
    algebra: Algebra
    entries: tuple[tuple[Scalar, BoolElem], ...]

    def __init__(
        self, algebra: Algebra, entries: tuple[tuple[Scalar, BoolElem], ...]
    ) -> None:
        if not entries:
            raise ValueError("an orthogonal decomposition cannot be empty")
        covered = 0
        previous = None
        for value, component in entries:
            if previous is not None and not previous < value:
                raise ValueError("values must be strictly increasing")
            previous = value
            if component.algebra is not algebra and component.algebra != algebra:
                raise ValueError("component from a different algebra")
            if component.mask == 0:
                raise ValueError("zero component in canonical form")
            if component.mask & covered:
                raise ValueError("components overlap")
            covered |= component.mask
        if covered != algebra.full_mask:
            raise ValueError("components do not join to 1")
        _setattr(self, "algebra", algebra)
        _setattr(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.algebra, self.entries) == (other.algebra, other.entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, self.entries))

    def values(self) -> tuple[Scalar, ...]:
        return tuple(value for value, _ in self.entries)

    def support(self) -> BoolElem:
        """Join of the components at nonzero values."""
        mask = 0
        for value, component in self.entries:
            if value != 0:
                mask |= component.mask
        return self.algebra.from_mask(mask)

    # operator sugar; the module-level functions are the primary surface
    def __add__(self, other: "OrthElem") -> "OrthElem":
        return orth_add(self, other)

    def __sub__(self, other: "OrthElem") -> "OrthElem":
        return orth_sub(self, other)

    def __mul__(self, other: "OrthElem") -> "OrthElem":
        return orth_mul(self, other)

    def __neg__(self) -> "OrthElem":
        return orth_neg(self)

    def __str__(self) -> str:
        parts = [
            f"{format_scalar(value)}·{element_to_literal(component)}"
            for value, component in reversed(self.entries)
        ]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"OrthElem({self})"


def orth_normalize(
    algebra: Algebra, entries: Iterable[tuple[Scalar, BoolElem]]
) -> OrthElem:
    """Canonicalize a list of (value, component) pairs.

    Duplicate values merge by join, zero components are dropped, the
    complement of the total join (when nonzero) is assigned value 0, and
    pairwise disjointness of distinct value classes is verified.
    """
    merged: dict[Scalar, int] = {}
    for value, component in entries:
        if component.algebra != algebra:
            raise ValueError("component from a different algebra")
        if component.mask == 0:
            continue
        merged[value] = merged.get(value, 0) | component.mask
    covered = 0
    for value in merged:
        if merged[value] & covered:
            raise ValueError(
                "overlapping components for distinct values: not an orthogonal family"
            )
        covered |= merged[value]
    rest = algebra.full_mask & ~covered
    if rest:
        merged[0] = merged.get(0, 0) | rest
    return OrthElem(algebra, tuple(
        (value, BoolElem(algebra, merged[value])) for value in sorted(merged)
    ))


def orth_const(algebra: Algebra, a: Scalar) -> OrthElem:
    """The constant ``a``, i.e. ``{a -> 1}``."""
    return OrthElem(algebra, ((a, algebra.one),))


def orth_zero(algebra: Algebra) -> OrthElem:
    return orth_const(algebra, 0)


def orth_unit(algebra: Algebra) -> OrthElem:
    return orth_const(algebra, 1)


def orth_embed(e: BoolElem) -> OrthElem:
    """Embed an idempotent: 1 on ``e``, 0 on its complement."""
    return orth_normalize(e.algebra, [(1, e), (0, ~e)])


def _atom_values(f: OrthElem) -> list[Scalar]:
    """The value of ``f`` at each atom, in atom order."""
    values = [0] * len(f.algebra.atoms)
    for value, component in f.entries:
        mask = component.mask
        while mask:
            low = mask & -mask
            values[low.bit_length() - 1] = value
            mask ^= low
    return values


def _by_atoms(f: OrthElem, g: OrthElem, pick) -> OrthElem:
    """The element taking ``pick(f(x), g(x))`` at each atom ``x``."""
    algebra = _check_same_algebra(f, g)
    classes: dict[Scalar, int] = {}
    for i, value in enumerate(map(pick, _atom_values(f), _atom_values(g))):
        classes[value] = classes.get(value, 0) | 1 << i
    return OrthElem(algebra, tuple(
        (value, BoolElem(algebra, classes[value])) for value in sorted(classes)
    ))


def orth_add(f: OrthElem, g: OrthElem) -> OrthElem:
    return _by_atoms(f, g, add)


def orth_mul(f: OrthElem, g: OrthElem) -> OrthElem:
    return _by_atoms(f, g, mul)


def orth_scale(b: Scalar, f: OrthElem) -> OrthElem:
    if b == 0:
        return orth_zero(f.algebra)
    return OrthElem(f.algebra, tuple(sorted(
        ((b * value, component) for value, component in f.entries),
        key=lambda item: item[0],
    )))


def orth_neg(f: OrthElem) -> OrthElem:
    return orth_scale(-1, f)


def orth_sub(f: OrthElem, g: OrthElem) -> OrthElem:
    return _by_atoms(f, g, sub)


def orth_is_nonneg(f: OrthElem) -> bool:
    """Whether ``f`` lies in the positive cone (all values nonnegative)."""
    return all(value >= 0 for value, _ in f.entries)


def orth_leq(f: OrthElem, g: OrthElem) -> bool:
    """Order by the positive cone: ``g - f`` is nonnegative at every atom."""
    _check_same_algebra(f, g)
    return all(map(le, _atom_values(f), _atom_values(g)))


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


def orth_meet(f: OrthElem, g: OrthElem) -> OrthElem:
    """Lattice meet: the smaller value at each atom.

    The tier-1 tests compare it with the ``min`` formula of
    :func:`_lattice_by_formula`.
    """
    return _by_atoms(f, g, min)


def orth_join(f: OrthElem, g: OrthElem) -> OrthElem:
    """Lattice join: the larger value at each atom.

    The tier-1 tests compare it with the ``max`` formula of
    :func:`_lattice_by_formula`.
    """
    return _by_atoms(f, g, max)


def annihilator_idempotent(gens: Sequence[OrthElem]) -> BoolElem:
    """Idempotent generating the annihilator of the ideal the ``gens`` span.

    Computed as the complement of the join of the generators' supports;
    the tier-1 tests check the defining property ``e * g == 0`` for every
    generator.
    """
    if not gens:
        raise ValueError("annihilator of an empty generator list is undefined")
    algebra = gens[0].algebra
    support_mask = 0
    for g in gens:
        if g.algebra != algebra:
            raise ValueError("mixed algebras in generator list")
        support_mask |= g.support().mask
    return algebra.from_mask(algebra.full_mask & ~support_mask)


# --- JSON ---------------------------------------------------------------


def orth_to_json(f: OrthElem) -> dict:
    return {
        "rep": "perp",
        "entries": [
            {"value": format_scalar(value), "idem": element_to_json(component)}
            for value, component in reversed(f.entries)
        ],
    }


def orth_from_json(algebra: Algebra, obj) -> OrthElem:
    if not isinstance(obj, dict) or obj.get("rep") != "perp" or "entries" not in obj:
        raise ValueError(f"bad orthogonal-form JSON: {obj!r}")
    entries = [
        (parse_scalar(item["value"]), element_from_json(algebra, item["idem"]))
        for item in obj["entries"]
    ]
    return orth_normalize(algebra, entries)
