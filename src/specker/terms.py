"""Term language for presentations by idempotent generators.

Terms are polynomial expressions in named generators ``x_e`` (each bound
to a boolean-algebra element), with exact scalar literals, ``+ - *``,
unary minus, nonnegative integer powers, and binary ``meet``/``join``.

Normalization is by evaluation: generators become embedded idempotents,
and the expression is computed with exact orthogonal-form arithmetic.
Because every element has a unique full orthogonal decomposition with
distinct values, the evaluated result *is* the canonical normal form,
and all the defining relations of the presentation (products of
generators vs. the generator of the meet, complements, the zero
generator) collapse automatically.  Each generator is embedded once per
evaluation, however often the term names it.

Parsing does each piece of work once: one regular-expression scan
tokenizes the text (an unknown character is a token, refused before
parsing starts), and each grammar rule returns its term together with
its depth and its largest product of exponents, so the bounds below are
checked without walking a subtree again.

Grammar::

    expr   := addend (("+" | "-") addend)*
    addend := factor ("*" factor)*
    factor := unary ("^" nat)*
    unary  := "-" unary | atom
    atom   := scalar | ident | "(" expr ")"
            | "meet(" expr "," expr ")" | "join(" expr "," expr ")"

Unary minus binds tighter than ``^``, which binds tighter than ``*``,
which binds tighter than binary ``+``/``-``.  A term nests at most
``MAX_DEPTH`` (100) levels, counting each operator and each pair of
parentheses, and its exponents, each alone and multiplied along any
root-to-leaf path, are at most ``MAX_EXPONENT`` (1000); other input,
a literal with a zero denominator included, is a :class:`ParseError`.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .boolalg import Algebra, BoolElem, _Frozen, _setattr, _shown
from .orthogonal import (
    OrthElem,
    orth_add,
    orth_const,
    orth_embed,
    orth_join,
    orth_meet,
    orth_mul,
    orth_neg,
    orth_sub,
    orth_unit,
)
from .scalars import Scalar, parse_scalar

__all__ = [
    "Term",
    "Lit",
    "Var",
    "BinOp",
    "Neg",
    "Pow",
    "ParseError",
    "parse_term",
    "normalize_term",
    "default_binding",
]


class Lit(_Frozen):
    __slots__ = _fields = ("value",)
    value: Scalar

    def __init__(self, value: Scalar) -> None:
        _setattr(self, "value", value)


class Var(_Frozen):
    __slots__ = _fields = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)


class Neg(_Frozen):
    __slots__ = _fields = ("operand",)
    operand: Term

    def __init__(self, operand: Term) -> None:
        _setattr(self, "operand", operand)


class Pow(_Frozen):
    __slots__ = _fields = ("base", "exponent")
    base: Term
    exponent: int

    def __init__(self, base: Term, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("exponents must be nonnegative")
        _setattr(self, "base", base)
        _setattr(self, "exponent", exponent)


# the binary operators, by symbol; each entry looks its function up when it
# is called, so a profiler that rebinds this module's names sees the call
_BINARY = {
    "+": lambda f, g: orth_add(f, g),
    "-": lambda f, g: orth_sub(f, g),
    "*": lambda f, g: orth_mul(f, g),
    "meet": lambda f, g: orth_meet(f, g),
    "join": lambda f, g: orth_join(f, g),
}

# how tightly each infix symbol of ``_BINARY`` binds: ``*`` over ``+``/``-``
_BINDING = {"+": 1, "-": 1, "*": 2}


class BinOp(_Frozen):
    __slots__ = _fields = ("op", "left", "right")
    op: str  # a key of _BINARY
    left: Term
    right: Term

    def __init__(self, op: str, left: Term, right: Term) -> None:
        if op not in _BINARY:
            raise ValueError(f"unknown operator {_shown(op)}")
        _setattr(self, "op", op)
        _setattr(self, "left", left)
        _setattr(self, "right", right)


Term = Union[Lit, Var, Neg, Pow, BinOp]


# the most levels a parsed term may nest; see parse_term
MAX_DEPTH = 100

# the largest exponent, and the largest product of the exponents on any
# root-to-leaf path, that a parsed term may hold; see parse_term
MAX_EXPONENT = 1000


class ParseError(ValueError):
    """Syntax error with the 0-based input position where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# one token per match; whitespace between tokens matches nothing and is
# skipped, and any other character is an ``unknown`` token
_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[()+\-*^,])"
    r"|(?P<unknown>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` per token, then an ``end`` token at ``len(text)``."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "unknown":
            raise ParseError(f"unknown token {match.group()!r}", match.start())
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; each rule returns ``(term, depth, power)``.

    ``depth`` counts the levels from the term down to its deepest literal
    or generator: one per operator and one per pair of parentheses.
    ``power`` is the largest product of the exponents on a path from the
    term down to a leaf.  ``nesting`` counts the levels open around the
    rule being parsed, so that a too deeply nested input is refused before
    it can exhaust the interpreter's stack.

    A token's text names its kind for every symbol the rules test for
    (``+``, ``-``, ``*``, ``^``, ``(``), so they compare the text alone.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    def _take_punct(self, value: str) -> None:
        kind, text, position = self.tokens[self.index]
        if kind != "punct" or text != value:
            raise ParseError(f"expected {value!r}", position)
        self.index += 1

    def _level(self, depth: int, position: int) -> int:
        """``depth``, or a ParseError when it is over ``MAX_DEPTH``."""
        if depth > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH} levels", position)
        return depth

    def _enter(self, position: int) -> None:
        """Open one nesting level; the caller closes it when its rule returns."""
        self.nesting = self._level(self.nesting + 1, position)

    def parse(self) -> Term:
        term = self.expr()[0]
        kind, text, position = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected token {_shown(text)}", position)
        return term

    def expr(self, level: int = 1) -> tuple[Term, int, int]:
        """The grammar's ``expr`` (level 1) and ``addend`` (level 2), left-associative:
        an operator takes as its right operand only what binds tighter than it."""
        term, depth, power = self.factor()
        tokens = self.tokens
        while True:
            _, op, position = tokens[self.index]
            binds = _BINDING.get(op, 0)
            if binds < level:
                return term, depth, power
            self.index += 1
            right, right_depth, right_power = self.expr(binds + 1)
            term = BinOp(op, term, right)
            depth = self._level(1 + max(depth, right_depth), position)
            power = max(power, right_power)

    def factor(self) -> tuple[Term, int, int]:
        term, depth, power = self.unary()
        tokens = self.tokens
        while tokens[self.index][1] == "^":
            position = tokens[self.index][2]
            # an end token follows every "^"
            kind, digits, at = tokens[self.index + 1]
            if kind != "number":
                raise ParseError("expected an exponent", at)
            if "/" in digits:
                raise ParseError("exponent must be a nonnegative integer", at)
            self.index += 2
            exponent = _exponent(digits, at)
            power *= exponent
            if power > MAX_EXPONENT:
                raise ParseError(
                    f"exponents multiply to more than {MAX_EXPONENT}", position
                )
            term = Pow(term, exponent)
            depth = self._level(depth + 1, position)
        return term, depth, power

    def unary(self) -> tuple[Term, int, int]:
        _, text, position = self.tokens[self.index]
        if text != "-":
            return self.atom()
        self.index += 1
        self._enter(position)
        operand, depth, power = self.unary()
        self.nesting -= 1
        return Neg(operand), self._level(depth + 1, position), power

    def atom(self) -> tuple[Term, int, int]:
        kind, text, position = self.tokens[self.index]
        self.index += 1
        if kind == "number":
            try:
                value = parse_scalar(text)
            except ValueError as exc:  # a zero denominator or too many digits
                raise ParseError(str(exc), position) from None
            return Lit(value), 0, 1
        if kind == "ident":
            if text != "meet" and text != "join":
                return Var(text), 0, 1
            self._take_punct("(")
            self._enter(position)
            left, left_depth, left_power = self.expr()
            self._take_punct(",")
            right, right_depth, right_power = self.expr()
            self._take_punct(")")
            self.nesting -= 1
            depth = self._level(1 + max(left_depth, right_depth), position)
            return BinOp(text, left, right), depth, max(left_power, right_power)
        if text == "(":
            self._enter(position)
            term, depth, power = self.expr()
            self._take_punct(")")
            self.nesting -= 1
            return term, self._level(depth + 1, position), power
        if kind == "end":
            raise ParseError("unexpected end of input", position)
        raise ParseError(f"unexpected token {_shown(text)}", position)


def _exponent(digits: str, position: int) -> int:
    """The integer ``digits`` spell, at most ``MAX_EXPONENT``."""
    digits = digits.lstrip("0") or "0"
    # lengths first: int() refuses digit strings over 4300 digits long
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ParseError(f"exponent larger than {MAX_EXPONENT}", position)
    return int(digits)


def parse_term(text: str) -> Term:
    """Parse an expression into a term tree, or raise :class:`ParseError`.

    A term may nest at most :data:`MAX_DEPTH` levels (each operator and
    each pair of parentheses is one level), so that parsing and
    normalizing it stay well inside the interpreter's recursion limit.

    Every exponent, and the product of the exponents on any path from the
    root to a leaf, is at most :data:`MAX_EXPONENT`.  ``normalize_term``
    computes ``t^n`` by ``n`` multiplications, and the product bounds how
    far a value can grow, so the cost of normalizing stays polynomial in
    the length of the text: ``(x_p+2)^2000000`` is a :class:`ParseError`,
    not hours of arithmetic.
    """
    return _Parser(text).parse()


def default_binding(algebra: Algebra) -> dict[str, BoolElem]:
    """Bind ``x_<atom>`` to each atom of the algebra."""
    return {f"x_{name}": algebra.atom(name) for name in algebra.atoms}


def normalize_term(
    term: Term,
    algebra: Algebra,
    binding: Mapping[str, BoolElem] | None = None,
) -> OrthElem:
    """Evaluate a term to its canonical orthogonal normal form.

    Each generator is embedded once per call, at its first occurrence,
    which is also where an unbound name or one bound in another algebra
    raises ``ValueError``.
    """
    if binding is None:
        binding = default_binding(algebra)
    embedded: dict[str, OrthElem] = {}

    def evaluate(node: Term) -> OrthElem:
        # the most common node first
        if isinstance(node, BinOp):
            return _BINARY[node.op](evaluate(node.left), evaluate(node.right))
        if isinstance(node, Var):
            name = node.name
            element = embedded.get(name)
            if element is None:
                try:
                    bound = binding[name]
                except KeyError:
                    raise ValueError(f"unbound generator name: {_shown(name)}") from None
                if bound.algebra != algebra:
                    raise ValueError(f"generator {_shown(name)} bound in another algebra")
                element = embedded[name] = orth_embed(bound)
            return element
        if isinstance(node, Lit):
            return orth_const(algebra, node.value)
        if isinstance(node, Pow):
            result = orth_unit(algebra)
            base = evaluate(node.base)
            for _ in range(node.exponent):
                result = orth_mul(result, base)
            return result
        if isinstance(node, Neg):
            return orth_neg(evaluate(node.operand))
        raise TypeError(f"not a term node: {node!r}")

    return evaluate(term)
