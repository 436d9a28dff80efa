"""Finite boolean algebras as powerset algebras over a named atom set.

An :class:`Algebra` is determined by an ordered tuple of distinct atom
names; its elements are the subsets of the atom set, stored as bitmasks
aligned with the atom order.  Free algebras on ``n`` generators are
realized as powerset algebras over the ``2**n`` minterms, with each
generator bound to the minterms in which its variable is true.

Elements carry a reference to their algebra and every operation rejects
operands from different algebras rather than coercing silently.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "Algebra",
    "BoolElem",
    "make_algebra",
    "make_free_algebra",
    "ba_apply",
    "element_to_literal",
    "element_from_literal",
    "element_to_json",
    "element_from_json",
    "algebra_to_json",
    "algebra_from_json",
]

# Atom names appear verbatim inside element literals like "[p,q]", so the
# characters used by that syntax cannot occur in a name.
_FORBIDDEN_IN_NAMES = set("[],|\"' \t\r\n")
_RESERVED_NAMES = {"0", "1"}

# Value types are plain classes with their methods written out: the
# ``dataclasses`` module and the code it generates per class cost about
# 20 ms at every start of the command line.  A frozen value is filled in
# by ``_setattr`` in its ``__init__``; equality and hashing read the same
# field tuple a generated ``__eq__``/``__hash__`` would.
_setattr = object.__setattr__


class _Frozen:
    """Base of the immutable value types: no attribute can be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # what copy and pickle restore: ``(None, {slot: value})`` for a
        # class with ``__slots__``, else the instance ``__dict__``
        if isinstance(state, tuple):
            state = state[1]
        for name, value in state.items():
            _setattr(self, name, value)


class Algebra(_Frozen):
    """Powerset boolean algebra over a fixed tuple of atom names."""

    __slots__ = ("atoms", "generators")
    atoms: tuple[str, ...]
    generators: tuple[tuple[str, int], ...]

    def __init__(
        self, atoms: tuple[str, ...], generators: tuple[tuple[str, int], ...] = ()
    ) -> None:
        if not atoms:
            raise ValueError("an algebra needs at least one atom")
        seen = set()
        for name in atoms:
            if not name or name in _RESERVED_NAMES or set(name) & _FORBIDDEN_IN_NAMES:
                raise ValueError(f"bad atom name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate atom name: {name!r}")
            seen.add(name)
        _setattr(self, "atoms", atoms)
        _setattr(self, "generators", generators)

    @property
    def size(self) -> int:
        """Number of elements, ``2 ** len(atoms)``."""
        return 1 << len(self.atoms)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    @property
    def zero(self) -> "BoolElem":
        return BoolElem(self, 0)

    @property
    def one(self) -> "BoolElem":
        return BoolElem(self, self.full_mask)

    def atom(self, name: str) -> "BoolElem":
        try:
            index = self.atoms.index(name)
        except ValueError:
            raise ValueError(f"unknown atom: {name!r}") from None
        return BoolElem(self, 1 << index)

    def element(self, names: Iterable[str]) -> "BoolElem":
        mask = 0
        for name in names:
            mask |= self.atom(name).mask
        return BoolElem(self, mask)

    def generator(self, name: str) -> "BoolElem":
        for gen_name, mask in self.generators:
            if gen_name == name:
                return BoolElem(self, mask)
        raise ValueError(f"unknown generator: {name!r}")

    def from_mask(self, mask: int) -> "BoolElem":
        return BoolElem(self, mask)

    def elements(self) -> Iterator["BoolElem"]:
        """All elements, in mask order (deterministic)."""
        for mask in range(self.size):
            yield BoolElem(self, mask)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.atoms, self.generators) == (other.atoms, other.generators)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.atoms, self.generators))

    def __repr__(self) -> str:
        return f"Algebra(atoms={list(self.atoms)!r})"


class BoolElem(_Frozen):
    """Element of a finite boolean algebra: a subset of its atoms."""

    __slots__ = ("algebra", "mask")
    algebra: Algebra
    mask: int

    def __init__(self, algebra: Algebra, mask: int) -> None:
        _setattr(self, "algebra", algebra)
        _setattr(self, "mask", mask)
        self.__post_init__()

    # a method of its own, so that a profiler can wrap it to count the
    # elements built (the benchmark's tracer does)
    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.algebra.full_mask:
            raise ValueError(f"mask {self.mask} out of range for {self.algebra!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.algebra, self.mask) == (other.algebra, other.mask)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, self.mask))

    # --- boolean operations -------------------------------------------------

    def __and__(self, other: "BoolElem") -> "BoolElem":
        _check_same_algebra(self, other)
        return BoolElem(self.algebra, self.mask & other.mask)

    def __or__(self, other: "BoolElem") -> "BoolElem":
        _check_same_algebra(self, other)
        return BoolElem(self.algebra, self.mask | other.mask)

    def __invert__(self) -> "BoolElem":
        return BoolElem(self.algebra, self.mask ^ self.algebra.full_mask)

    def __le__(self, other: "BoolElem") -> bool:
        _check_same_algebra(self, other)
        return self.mask & other.mask == self.mask

    def __ge__(self, other: "BoolElem") -> bool:
        return other.__le__(self)

    # --- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == self.algebra.full_mask

    def atom_names(self) -> tuple[str, ...]:
        return tuple(
            name for i, name in enumerate(self.algebra.atoms) if self.mask >> i & 1
        )

    def atom_count(self) -> int:
        return bin(self.mask).count("1")

    def __repr__(self) -> str:
        return f"BoolElem({element_to_literal(self)})"

    def __str__(self) -> str:
        return element_to_literal(self)


def _check_same_algebra(*items) -> Algebra:
    algebra = items[0].algebra
    for item in items[1:]:
        if item.algebra != algebra:
            raise ValueError("mixed algebras: operands belong to different algebras")
    return algebra


def make_algebra(atoms: Sequence[str]) -> Algebra:
    """Powerset algebra over the given distinct, nonempty atom names."""
    return Algebra(tuple(atoms))


def make_free_algebra(n: int, max_generators: int = 4) -> Algebra:
    """Free boolean algebra on ``n`` generators as a powerset of minterms.

    Minterm ``j`` encodes the truth assignment whose variable ``i`` is
    true iff bit ``i`` of ``j`` is set; generator ``g<i>`` is the set of
    minterms where variable ``i`` is true.
    """
    if not 1 <= n <= max_generators:
        raise ValueError(f"generator count {n} outside 1..{max_generators}")
    minterms = tuple(f"m{j}" for j in range(1 << n))
    generators = []
    for i in range(n):
        mask = 0
        for j in range(1 << n):
            if j >> i & 1:
                mask |= 1 << j
        generators.append((f"g{i}", mask))
    return Algebra(minterms, tuple(generators))


_CONNECTIVE_ARITY = {"not": 1, "meet": 2, "join": 2, "big_join": None, "big_meet": None}


def ba_apply(
    connective: str,
    operands: Sequence[BoolElem],
    algebra: Algebra | None = None,
) -> BoolElem:
    """Apply a boolean connective to elements of one algebra.

    ``big_join`` and ``big_meet`` take any number of operands; the empty
    join is 0 and the empty meet is 1 (``algebra`` must then be given so
    the result has a home).
    """
    if connective not in _CONNECTIVE_ARITY:
        raise ValueError(f"unknown connective: {connective!r}")
    arity = _CONNECTIVE_ARITY[connective]
    if arity is not None and len(operands) != arity:
        raise ValueError(f"{connective} takes {arity} operands, got {len(operands)}")
    if operands:
        shared = _check_same_algebra(*operands)
        if algebra is not None and algebra != shared:
            raise ValueError("mixed algebras: operands do not match the given algebra")
        algebra = shared
    if algebra is None:
        raise ValueError("empty operand list needs an explicit algebra")
    if connective == "not":
        return ~operands[0]
    if connective == "meet":
        return operands[0] & operands[1]
    if connective == "join":
        return operands[0] | operands[1]
    if connective == "big_join":
        result = algebra.zero
        for operand in operands:
            result = result | operand
        return result
    result = algebra.one
    for operand in operands:
        result = result & operand
    return result


# --- literals and JSON -------------------------------------------------------
#
# Element literals: "0", "1", or an atom-name list.  In JSON the list is a
# real JSON array (["p","q"]); in text contexts (CLI arguments, morphism
# table keys) it is rendered "[p,q]".


def element_to_literal(e: BoolElem) -> str:
    if e.is_zero:
        return "0"
    if e.is_one:
        return "1"
    return "[" + ",".join(e.atom_names()) + "]"


def element_from_literal(algebra: Algebra, text: str) -> BoolElem:
    text = text.strip()
    if text == "0":
        return algebra.zero
    if text == "1":
        return algebra.one
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        names = [part.strip() for part in inner.split(",")] if inner else []
        return algebra.element(names)
    raise ValueError(f"bad element literal: {text!r}")


def element_to_json(e: BoolElem) -> str | list[str]:
    if e.is_zero:
        return "0"
    if e.is_one:
        return "1"
    return list(e.atom_names())


def element_from_json(algebra: Algebra, obj) -> BoolElem:
    if isinstance(obj, str):
        return element_from_literal(algebra, obj)
    if isinstance(obj, list):
        return algebra.element(obj)
    raise ValueError(f"bad element JSON: {obj!r}")


def algebra_to_json(algebra: Algebra) -> dict:
    return {"atoms": list(algebra.atoms)}


def algebra_from_json(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise ValueError(f"bad algebra JSON: {obj!r}")
    if "atoms" in obj:
        atoms = obj["atoms"]
        # a string would be read as its characters, so "pq" would mean p, q
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise ValueError(f"algebra atoms must be a list of names: {atoms!r}")
        return make_algebra(atoms)
    if "free_generators" in obj:
        count = obj["free_generators"]
        # no truncation of 2.5 to 2, and true is not the count 1
        if type(count) is not int:
            raise ValueError(f"free_generators must be an integer: {count!r}")
        return make_free_algebra(count)
    raise ValueError("algebra JSON needs 'atoms' or 'free_generators'")
