"""The boolean power in orthogonal form.

An :class:`OrthElem` is a finitely-valued function from scalars to a
finite boolean algebra: a map ``{value -> component}`` whose components
are nonzero, pairwise disjoint, and join to 1.  Equivalently it is the
unique full orthogonal decomposition ``sum(value * component)`` of an
element of the idempotent-generated algebra over the coefficient domain,
with distinct values.

An element stores its values and its components as ``int`` masks over
the atom order; the :class:`BoolElem` components (``entries``) are built
on first read.  Sums, products, meets and joins work atom by atom
(``_by_atoms``): over a finite algebra an element is fixed by its atom
values, so the operands' values are read from their masks, combined, and
regrouped by value into the canonical form, in O(n + k log k) for n
atoms and k classes; step multiplication and the kernel step sum run the
same helper.  When a ``Fraction`` is among the operands' class values,
they are first scaled to ints over the least common multiple ``L`` of
their denominators, so that the per-atom work adds, compares and hashes
ints (a ``Fraction`` sum costs ~60x an int one); only each result class
builds a value, over ``L`` (``L**2`` for a product).  The type of a
class value is what the ``Fraction`` arithmetic gives at the class's
lowest atom: an ``int`` where both operands took ints there, else a
``Fraction``, even one equal to an int; a meet or join returns the
operand value it picked, the first on a tie.  With ints alone the only
extra cost is one scan of the class values.  The tests compare the
kernel with the convolution formula ``(f + g)(a) = join of f(b) & g(c)
over b + c = a``, and meet and join also with it evaluated at each value.
The order's positive cone is the elements with all values nonnegative.
Everything is immutable and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, le, mul, sub
from typing import Iterable, Sequence

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
from .scalars import (
    Scalar,
    _require_exact,
    format_scalar,
    parse_scalar,
)

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

    # the operations read the values and masks; ``entries`` builds the
    # components on first read.  Equality and hashing read the masks.
    __slots__ = ("algebra", "_values", "_masks", "_entries")
    _fields = ("algebra", "_values", "_masks")
    algebra: Algebra
    _values: tuple[Scalar, ...]
    _masks: tuple[int, ...]

    def __init__(
        self, algebra: Algebra, entries: Iterable[tuple[Scalar, BoolElem]]
    ) -> None:
        entries = tuple((value, c) for value, c in entries)  # pairs, as ``entries`` reads
        values = tuple(value for value, _ in entries)
        _require_exact(*values)
        _check_same_algebra(algebra, *(c for _, c in entries))
        _fill(self, algebra, values, tuple(c.mask for _, c in entries))
        _setattr(self, "_entries", entries)

    @property
    def entries(self) -> tuple[tuple[Scalar, BoolElem], ...]:
        """The (value, component) pairs, built from the masks on first read."""
        try:
            return self._entries
        except AttributeError:
            algebra = self.algebra
            entries = tuple(
                (value, BoolElem(algebra, mask))
                for value, mask in zip(self._values, self._masks)
            )
            _setattr(self, "_entries", entries)
            return entries

    def values(self) -> tuple[Scalar, ...]:
        return self._values

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


def _fill(
    elem: OrthElem,
    algebra: Algebra,
    values: tuple[Scalar, ...],
    masks: tuple[int, ...],
) -> OrthElem:
    """Check the invariants of an orthogonal element on its masks, then
    store them; the masks are of ``algebra``, which the caller has checked."""
    if not values:
        raise ValueError("an orthogonal decomposition cannot be empty")
    covered = 0
    for i, mask in enumerate(masks):
        if i and not values[i - 1] < values[i]:
            raise ValueError("values must be strictly increasing")
        if mask == 0:
            raise ValueError("zero component in canonical form")
        if mask & covered:
            raise ValueError("components overlap")
        covered |= mask
    if covered != algebra.full_mask:
        raise ValueError("components do not join to 1")
    _setattr(elem, "algebra", algebra)
    _setattr(elem, "_values", values)
    _setattr(elem, "_masks", masks)
    return elem


def _from_masks(
    algebra: Algebra, values: Sequence[Scalar], masks: Sequence[int]
) -> OrthElem:
    """The orthogonal element with these classes; builds no ``BoolElem``."""
    return _fill(OrthElem.__new__(OrthElem), algebra, tuple(values), tuple(masks))


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
        _require_exact(value)
        _check_same_algebra(algebra, component)
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
    values = sorted(merged)
    return _from_masks(algebra, values, [merged[value] for value in values])


def orth_const(algebra: Algebra, a: Scalar) -> OrthElem:
    """The constant ``a``, i.e. ``{a -> 1}``."""
    _require_exact(a)
    return _from_masks(algebra, (a,), (algebra.full_mask,))


def orth_zero(algebra: Algebra) -> OrthElem:
    return orth_const(algebra, 0)


def orth_unit(algebra: Algebra) -> OrthElem:
    return orth_const(algebra, 1)


def orth_embed(e: BoolElem) -> OrthElem:
    """Embed an idempotent: 1 on ``e``, 0 on its complement."""
    return orth_normalize(e.algebra, [(1, e), (0, ~e)])


def _atom_values(
    algebra: Algebra, values: Iterable[Scalar], masks: Iterable[int]
) -> list[Scalar]:
    """The value at each atom, in atom order, of disjoint classes ``masks``."""
    at = [0] * len(algebra.atoms)
    for value, mask in zip(values, masks):
        while mask:
            low = mask & -mask
            at[low.bit_length() - 1] = value
            mask ^= low
    return at


def _classes(at: Iterable[Scalar]) -> tuple[list[Scalar], list[int]]:
    """The distinct atom values, ascending, and the mask of atoms taking each."""
    classes: dict[Scalar, int] = {}
    for i, value in enumerate(at):
        classes[value] = classes.get(value, 0) | 1 << i
    values = sorted(classes)
    return values, [classes[value] for value in values]


def _int_mask(values: Sequence[Scalar], masks: Sequence[int]) -> int:
    """The join of the classes whose value is an ``int``."""
    joined = 0
    for value, mask in zip(values, masks):
        if isinstance(value, int):
            joined |= mask
    return joined


def _by_atoms(
    algebra: Algebra,
    f_values: tuple[Scalar, ...],
    f_masks: Sequence[int],
    g_values: tuple[Scalar, ...],
    g_masks: Sequence[int],
    pick,
) -> tuple[list[Scalar], list[int]]:
    """The classes, values ascending, of ``pick(f(x), g(x))`` at each atom ``x``.

    ``f`` and ``g`` are given by their disjoint classes; ``pick`` is
    ``add``, ``sub``, ``mul``, ``min`` or ``max``.  With a ``Fraction``
    among the values, both operands are scaled to ints over the least
    common denominator ``scale`` and each result class builds one value:
    ``v // scale`` (over ``scale**2`` for ``mul``) if its lowest atom took
    ints on both sides, else ``Fraction(v, scale)``; ``min`` and ``max``
    hand back the operand value they picked there, the first on a tie.
    """
    given = f_values + g_values
    for value in given:
        if value.__class__ is not int:
            break
    else:
        at = map(
            pick,
            _atom_values(algebra, f_values, f_masks),
            _atom_values(algebra, g_values, g_masks),
        )
        return _classes(at)
    scale = lcm(*[value.denominator for value in given])
    f_ints = [v.numerator * (scale // v.denominator) for v in f_values]
    g_ints = [v.numerator * (scale // v.denominator) for v in g_values]
    f_at = _atom_values(algebra, f_ints, f_masks)
    g_at = _atom_values(algebra, g_ints, g_masks)
    values, masks = _classes(map(pick, f_at, g_at))
    if pick is min or pick is max:
        f_of, g_of = dict(zip(f_ints, f_values)), dict(zip(g_ints, g_values))
        picked = []
        for value, mask in zip(values, masks):
            low = (mask & -mask).bit_length() - 1
            picked.append(f_of[value] if f_at[low] == value else g_of[value])
        return picked, masks
    if pick is mul:
        scale *= scale
    both = _int_mask(f_values, f_masks) & _int_mask(g_values, g_masks)
    return [
        value // scale if mask & -mask & both else Fraction(value, scale)
        for value, mask in zip(values, masks)
    ], masks


def _pointwise(f: OrthElem, g: OrthElem, pick) -> OrthElem:
    """The element taking ``pick(f(x), g(x))`` at each atom ``x``."""
    algebra = _check_same_algebra(f, g)
    classes = _by_atoms(algebra, f._values, f._masks, g._values, g._masks, pick)
    return _from_masks(algebra, *classes)


def orth_add(f: OrthElem, g: OrthElem) -> OrthElem:
    return _pointwise(f, g, add)


def orth_mul(f: OrthElem, g: OrthElem) -> OrthElem:
    return _pointwise(f, g, mul)


def orth_scale(b: Scalar, f: OrthElem) -> OrthElem:
    """Scale every value by ``b``; for ``b < 0`` the classes reverse their order."""
    _require_exact(b)
    if b == 0:
        return orth_zero(f.algebra)
    values = [b * value for value in f._values]
    if b > 0:
        return _from_masks(f.algebra, values, f._masks)
    return _from_masks(f.algebra, values[::-1], f._masks[::-1])


def orth_neg(f: OrthElem) -> OrthElem:
    return orth_scale(-1, f)


def orth_sub(f: OrthElem, g: OrthElem) -> OrthElem:
    return _pointwise(f, g, sub)


def orth_is_nonneg(f: OrthElem) -> bool:
    """Whether ``f`` lies in the positive cone (all values nonnegative)."""
    return f._values[0] >= 0


def orth_leq(f: OrthElem, g: OrthElem) -> bool:
    """Order by the positive cone: ``g - f`` is nonnegative at every atom."""
    algebra = _check_same_algebra(f, g)
    at = _atom_values(algebra, g._values, g._masks)
    return all(map(le, _atom_values(algebra, f._values, f._masks), at))


def orth_meet(f: OrthElem, g: OrthElem) -> OrthElem:
    """Lattice meet: the smaller value at each atom."""
    return _pointwise(f, g, min)


def orth_join(f: OrthElem, g: OrthElem) -> OrthElem:
    """Lattice join: the larger value at each atom."""
    return _pointwise(f, g, max)


def annihilator_idempotent(gens: Sequence[OrthElem]) -> BoolElem:
    """Idempotent generating the annihilator of the ideal the ``gens`` span.

    Computed as the complement of the join of the generators' supports
    (their components at nonzero values); the tier-1 tests check the
    defining property ``e * g == 0`` for every generator.
    """
    if not gens:
        raise ValueError("annihilator of an empty generator list is undefined")
    algebra = _check_same_algebra(*gens)
    support = 0
    for g in gens:  # a generator's components are disjoint: their sum is their join
        support |= sum(mask for value, mask in zip(g._values, g._masks) if value != 0)
    return algebra.from_mask(algebra.full_mask & ~support)


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
    items = obj.get("entries") if isinstance(obj, dict) and obj.get("rep") == "perp" else None
    if not isinstance(items, list):
        raise ValueError(f"bad orthogonal-form JSON: {_shown(obj)}")
    entries = [
        (parse_scalar(_field(item, "value", "orthogonal-form")),
         element_from_json(algebra, _field(item, "idem", "orthogonal-form")))
        for item in items
    ]
    return orth_normalize(algebra, entries)
