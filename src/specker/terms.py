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
generator) collapse automatically.

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
root-to-leaf path, are at most ``MAX_EXPONENT`` (1000); other input is a
:class:`ParseError`.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .boolalg import Algebra, BoolElem, _Frozen, _setattr
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
    __slots__ = ("value",)
    value: Scalar

    def __init__(self, value: Scalar) -> None:
        _setattr(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"Lit(value={self.value!r})"


class Var(_Frozen):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class Neg(_Frozen):
    __slots__ = ("operand",)
    operand: Term

    def __init__(self, operand: Term) -> None:
        _setattr(self, "operand", operand)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.operand,) == (other.operand,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.operand,))

    def __repr__(self) -> str:
        return f"Neg(operand={self.operand!r})"


class Pow(_Frozen):
    __slots__ = ("base", "exponent")
    base: Term
    exponent: int

    def __init__(self, base: Term, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("exponents must be nonnegative")
        _setattr(self, "base", base)
        _setattr(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.exponent) == (other.base, other.exponent)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.exponent))

    def __repr__(self) -> str:
        return f"Pow(base={self.base!r}, exponent={self.exponent!r})"


class BinOp(_Frozen):
    __slots__ = ("op", "left", "right")
    op: str  # one of + - * meet join
    left: Term
    right: Term

    def __init__(self, op: str, left: Term, right: Term) -> None:
        if op not in {"+", "-", "*", "meet", "join"}:
            raise ValueError(f"unknown operator {op!r}")
        _setattr(self, "op", op)
        _setattr(self, "left", left)
        _setattr(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.left, self.right) == (
                other.op,
                other.left,
                other.right,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"BinOp(op={self.op!r}, left={self.left!r}, right={self.right!r})"


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


_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[()+\-*^,]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unknown token {stripped[0]!r}", len(text) - len(stripped)
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent; each rule returns ``(term, depth)``.

    ``depth`` counts the levels from the term down to its deepest literal
    or generator: one per operator and one per pair of parentheses.
    ``nesting`` counts the levels open around the rule being parsed, so
    that a too deeply nested input is refused before it can exhaust the
    interpreter's stack.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0

    def _peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _position(self) -> int:
        token = self._peek()
        return token[2] if token else len(self.text)

    def _take_punct(self, value: str) -> None:
        token = self._peek()
        if token is None or token[0] != "punct" or token[1] != value:
            raise ParseError(f"expected {value!r}", self._position())
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
        term, _ = self.expr()
        if self._peek() is not None:
            raise ParseError(
                f"unexpected token {self._peek()[1]!r}", self._position()
            )
        return term

    def expr(self) -> tuple[Term, int]:
        term, depth = self.addend()
        while True:
            token = self._peek()
            if token and token[0] == "punct" and token[1] in "+-":
                self.index += 1
                right, right_depth = self.addend()
                term = BinOp(token[1], term, right)
                depth = self._level(1 + max(depth, right_depth), token[2])
            else:
                return term, depth

    def addend(self) -> tuple[Term, int]:
        term, depth = self.factor()
        while True:
            token = self._peek()
            if token and token[0] == "punct" and token[1] == "*":
                self.index += 1
                right, right_depth = self.factor()
                term = BinOp("*", term, right)
                depth = self._level(1 + max(depth, right_depth), token[2])
            else:
                return term, depth

    def factor(self) -> tuple[Term, int]:
        term, depth = self.unary()
        while True:
            token = self._peek()
            if token and token[0] == "punct" and token[1] == "^":
                self.index += 1
                exponent_token = self._peek()
                if exponent_token is None or exponent_token[0] != "number":
                    raise ParseError("expected an exponent", self._position())
                if "/" in exponent_token[1]:
                    raise ParseError(
                        "exponent must be a nonnegative integer",
                        exponent_token[2],
                    )
                self.index += 1
                exponent = _exponent(exponent_token)
                if exponent * _power(term) > MAX_EXPONENT:
                    raise ParseError(
                        f"exponents multiply to more than {MAX_EXPONENT}", token[2]
                    )
                term = Pow(term, exponent)
                depth = self._level(depth + 1, token[2])
            else:
                return term, depth

    def unary(self) -> tuple[Term, int]:
        token = self._peek()
        if token and token[0] == "punct" and token[1] == "-":
            self.index += 1
            self._enter(token[2])
            operand, depth = self.unary()
            self.nesting -= 1
            return Neg(operand), self._level(depth + 1, token[2])
        return self.atom()

    def atom(self) -> tuple[Term, int]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", self._position())
        kind, value, position = token
        if kind == "number":
            self.index += 1
            return Lit(parse_scalar(value)), 0
        if kind == "ident":
            self.index += 1
            if value in ("meet", "join"):
                self._take_punct("(")
                self._enter(position)
                left, left_depth = self.expr()
                self._take_punct(",")
                right, right_depth = self.expr()
                self._take_punct(")")
                self.nesting -= 1
                depth = self._level(1 + max(left_depth, right_depth), position)
                return BinOp(value, left, right), depth
            return Var(value), 0
        if kind == "punct" and value == "(":
            self.index += 1
            self._enter(position)
            term, depth = self.expr()
            self._take_punct(")")
            self.nesting -= 1
            return term, self._level(depth + 1, position)
        raise ParseError(f"unexpected token {value!r}", position)


def _exponent(token: tuple[str, str, int]) -> int:
    """The integer an exponent token spells, at most ``MAX_EXPONENT``."""
    digits = token[1].lstrip("0") or "0"
    # lengths first: int() refuses digit strings over 4300 digits long
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ParseError(f"exponent larger than {MAX_EXPONENT}", token[2])
    return int(digits)


def _power(term: Term) -> int:
    """The largest product of exponents on a path from ``term`` to a leaf."""
    if isinstance(term, Pow):
        return term.exponent * _power(term.base)
    if isinstance(term, BinOp):
        return max(_power(term.left), _power(term.right))
    if isinstance(term, Neg):
        return _power(term.operand)
    return 1


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
    """Evaluate a term to its canonical orthogonal normal form."""
    if binding is None:
        binding = default_binding(algebra)

    def evaluate(node: Term) -> OrthElem:
        if isinstance(node, Lit):
            return orth_const(algebra, node.value)
        if isinstance(node, Var):
            try:
                bound = binding[node.name]
            except KeyError:
                raise ValueError(f"unbound generator name: {node.name!r}") from None
            if bound.algebra != algebra:
                raise ValueError(f"generator {node.name!r} bound in another algebra")
            return orth_embed(bound)
        if isinstance(node, Neg):
            return orth_neg(evaluate(node.operand))
        if isinstance(node, Pow):
            result = orth_unit(algebra)
            base = evaluate(node.base)
            for _ in range(node.exponent):
                result = orth_mul(result, base)
            return result
        if isinstance(node, BinOp):
            left, right = evaluate(node.left), evaluate(node.right)
            if node.op == "+":
                return orth_add(left, right)
            if node.op == "-":
                return orth_sub(left, right)
            if node.op == "*":
                return orth_mul(left, right)
            if node.op == "meet":
                return orth_meet(left, right)
            return orth_join(left, right)
        raise TypeError(f"not a term node: {node!r}")

    return evaluate(term)
