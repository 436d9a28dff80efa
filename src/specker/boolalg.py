"""Finite boolean algebras as powerset algebras over a named atom set.

An :class:`Algebra` is determined by an ordered tuple of distinct atom
names; its elements are the subsets of the atom set, stored as bitmasks
aligned with the atom order.  Free algebras on ``n`` generators are
realized as powerset algebras over the ``2**n`` minterms, with each
generator bound to the minterms in which its variable is true.

Elements carry a reference to their algebra, and every operation rejects
operands from different algebras rather than coercing silently: in every
layer the one refusal is :func:`_check_same_algebra`, with its one message.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Algebra",
    "BoolElem",
    "make_algebra",
    "make_free_algebra",
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
_MAX_GENERATORS = 4  # of a free algebra: 16 minterms, 2^16 elements

# Value types are plain classes: the ``dataclasses`` module and the code
# it generates per class cost about 20 ms at every start of the command
# line.  A value type names the fields that make its value in ``_fields``
# and fills them in by ``_setattr`` in its ``__init__``; ``_Frozen`` reads
# that tuple for the one equality, hash and field-form ``repr`` of all of
# them, as a generated ``__eq__``/``__hash__``/``__repr__`` would.
_setattr = object.__setattr__


class _Frozen:
    """Base of the immutable value types: no attribute can be set or deleted."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # ``_key(value)`` is the field tuple, read in one call
        fields = getattr(cls, "_fields", None)
        if fields:
            get = attrgetter(*fields)
            cls._key = staticmethod(get if len(fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # what copy and pickle restore of a value type, which has ``__slots__``
        for name, value in state[1].items():
            _setattr(self, name, value)


class Algebra(_Frozen):
    """Powerset boolean algebra over a fixed tuple of atom names."""

    # ``full_mask`` and ``_bits`` (atom name -> bit) are derived from
    # ``atoms``: equality and hashing skip them
    __slots__ = ("atoms", "generators", "full_mask", "_bits")
    _fields = ("atoms", "generators")
    atoms: tuple[str, ...]
    generators: tuple[tuple[str, int], ...]
    full_mask: int
    _bits: dict[str, int]

    def __init__(
        self, atoms: tuple[str, ...], generators: tuple[tuple[str, int], ...] = ()
    ) -> None:
        # a string would be read as its characters, so "pq" would mean p, q
        if isinstance(atoms, str):
            raise ValueError(f"algebra atoms must be a list of names: {_shown(atoms)}")
        # tuples, so that a list given for either still hashes
        atoms = tuple(atoms)
        generators = tuple((name, mask) for name, mask in generators)
        if not atoms:
            raise ValueError("an algebra needs at least one atom")
        seen = set()
        for name in atoms:
            if not name or name in _RESERVED_NAMES or set(name) & _FORBIDDEN_IN_NAMES:
                raise ValueError(f"bad atom name: {_shown(name)}")
            if name in seen:
                raise ValueError(f"duplicate atom name: {_shown(name)}")
            seen.add(name)
        _setattr(self, "atoms", atoms)
        _setattr(self, "generators", generators)
        _setattr(self, "full_mask", (1 << len(atoms)) - 1)
        _setattr(self, "_bits", {name: 1 << i for i, name in enumerate(atoms)})

    @property
    def size(self) -> int:
        """Number of elements, ``2 ** len(atoms)``."""
        return 1 << len(self.atoms)

    @property
    def zero(self) -> "BoolElem":
        return BoolElem(self, 0)

    @property
    def one(self) -> "BoolElem":
        return BoolElem(self, self.full_mask)

    def atom(self, name: str) -> "BoolElem":
        return self.element((name,))

    def element(self, names: Iterable[str]) -> "BoolElem":
        bits = self._bits
        mask = 0
        for name in names:
            try:
                mask |= bits[name]
            except (KeyError, TypeError):  # TypeError: an unhashable name
                raise ValueError(f"unknown atom: {_shown(name)}") from None
        return BoolElem(self, mask)

    def generator(self, name: str) -> "BoolElem":
        for gen_name, mask in self.generators:
            if gen_name == name:
                return BoolElem(self, mask)
        raise ValueError(f"unknown generator: {_shown(name)}")

    def from_mask(self, mask: int) -> "BoolElem":
        return BoolElem(self, mask)

    def elements(self) -> Iterator["BoolElem"]:
        """All elements, in mask order (deterministic)."""
        for mask in range(self.size):
            yield BoolElem(self, mask)

    def __repr__(self) -> str:
        return f"Algebra(atoms={list(self.atoms)!r})"


class BoolElem(_Frozen):
    """Element of a finite boolean algebra: a subset of its atoms."""

    __slots__ = _fields = ("algebra", "mask")
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
            raise ValueError(f"mask {_shown(self.mask)} out of range for {_shown(self.algebra)}")

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

    def __repr__(self) -> str:
        return f"BoolElem({element_to_literal(self)})"

    def __str__(self) -> str:
        return element_to_literal(self)


_MIXED = "mixed algebras: operands belong to different algebras"


def _check_same_algebra(*items) -> Algebra:
    """The algebra that all ``items`` belong to; ``ValueError`` if they differ.

    The one refusal of operands from two algebras: no other code raises
    it.  The first item may be an ``Algebra``, which the rest must then
    belong to.  Identity is compared first: operands almost always share
    one ``Algebra`` object.
    """
    first = items[0]
    algebra = first if first.__class__ is Algebra else first.algebra
    for item in items[1:]:
        other = item.algebra
        if other is not algebra and other != algebra:
            raise ValueError(_MIXED)
    return algebra


def _first_failure(cases: Iterable) -> tuple[int, object]:
    """Run ``cases`` up to the first failure: ``(checked, witness)``.

    A case is ``None`` when it holds and its witness when it fails; the
    witness returned is ``None`` when every case held.  Every verdict in
    the package reads this pair the same way: a failure, or no case
    checked at all, fails the axiom or identity.
    """
    checked = 0
    for witness in cases:
        checked += 1
        if witness is not None:
            return checked, witness
    return checked, None


def make_algebra(atoms: Sequence[str]) -> Algebra:
    """Powerset algebra over the given distinct, nonempty atom names."""
    return Algebra(atoms)


def make_free_algebra(n: int) -> Algebra:
    """Free boolean algebra on ``n`` generators as a powerset of minterms.

    Minterm ``j`` encodes the truth assignment whose variable ``i`` is
    true iff bit ``i`` of ``j`` is set; generator ``g<i>`` is the set of
    minterms where variable ``i`` is true.
    """
    if not 1 <= n <= _MAX_GENERATORS:
        raise ValueError(f"generator count {_shown(n)} outside 1..{_MAX_GENERATORS}")
    minterms = tuple(f"m{j}" for j in range(1 << n))
    generators = []
    for i in range(n):
        mask = 0
        for j in range(1 << n):
            if j >> i & 1:
                mask |= 1 << j
        generators.append((f"g{i}", mask))
    return Algebra(minterms, tuple(generators))


# --- literals and JSON -------------------------------------------------------
#
# Element literals: "0", "1", or an atom-name list.  In JSON the list is a
# real JSON array (["p","q"]); in text contexts (CLI arguments, morphism
# table keys) it is rendered "[p,q]".


_QUOTED = 40  # the longest repr a refusal quotes, so that it stays one short line

# the most digits an int may have: CPython's default int-to-string limit,
# past which ``repr`` raises, refused with this package's own message
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS  # the least int over the bound


def _shown(value) -> str:
    """``repr(value)`` if short, else an object's keys, or the type and
    length; an int over ``_MAX_DIGITS`` digits is named by its bits."""
    if isinstance(value, int) and abs(value) >= _TOO_LONG:
        return f"an int of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:  # it holds an int over the bound, which repr refuses
        size = f" of length {len(value)}" if hasattr(value, "__len__") else ""
        return f"a {type(value).__name__}{size}"
    if len(text) <= _QUOTED:
        return text
    if isinstance(value, dict) and len(keys := repr(sorted(map(str, value)))) <= _QUOTED:
        return f"an object with keys {keys}"
    if isinstance(value, (dict, list, str)):
        return f"a {type(value).__name__} of length {len(value)}"
    if isinstance(value, Algebra):
        return f"an algebra of {len(value.atoms)} atoms"
    return f"{text[:_QUOTED]}..."


def _field(obj, key: str, what: str):
    """``obj[key]``; a non-object ``obj`` or a missing ``key`` is a ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"bad {what} JSON: {_shown(obj)} is not an object")
    if key not in obj:
        raise ValueError(f"malformed {what} JSON: missing key {key!r}")
    return obj[key]


def element_to_literal(e: BoolElem) -> str:
    if e.is_zero:
        return "0"
    if e.is_one:
        return "1"
    return "[" + ",".join(e.atom_names()) + "]"


def element_from_literal(algebra: Algebra, text: str) -> BoolElem:
    if not isinstance(text, str):
        raise ValueError(f"bad element literal: {_shown(text)}")
    text = text.strip()
    if text == "0":
        return algebra.zero
    if text == "1":
        return algebra.one
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        names = [part.strip() for part in inner.split(",")] if inner else []
        return algebra.element(names)
    raise ValueError(f"bad element literal: {_shown(text)}")


def element_to_json(e: BoolElem) -> str | list[str]:
    if e.is_zero:
        return "0"
    if e.is_one:
        return "1"
    return list(e.atom_names())


def element_from_json(algebra: Algebra, obj) -> BoolElem:
    if isinstance(obj, list):
        return algebra.element(obj)
    return element_from_literal(algebra, obj)


def algebra_to_json(algebra: Algebra) -> dict:
    """``{"free_generators": k}`` for ``make_free_algebra(k)``, else the atoms."""
    count = len(algebra.generators)
    if 1 <= count <= _MAX_GENERATORS and algebra == make_free_algebra(count):
        return {"free_generators": count}
    return {"atoms": list(algebra.atoms)}


def algebra_from_json(obj) -> Algebra:
    if not isinstance(obj, dict):
        raise ValueError(f"bad algebra JSON: {_shown(obj)} is not an object")
    if "atoms" in obj:
        atoms = obj["atoms"]
        # a string would be read as its characters, so "pq" would mean p, q
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise ValueError(f"algebra atoms must be a list of names: {_shown(atoms)}")
        return make_algebra(atoms)
    if "free_generators" in obj:
        count = obj["free_generators"]
        # no truncation of 2.5 to 2, and true is not the count 1
        if type(count) is not int:
            raise ValueError(f"free_generators must be an integer: {_shown(count)}")
        return make_free_algebra(count)
    raise ValueError("algebra JSON needs 'atoms' or 'free_generators'")
