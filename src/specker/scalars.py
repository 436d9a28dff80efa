"""Exact scalars for the coefficient domain.

The coefficient domain is a totally ordered integral domain: either the
integers or the rationals.  Integers are plain ``int`` (arbitrary
precision), rationals are ``fractions.Fraction`` (kept in lowest terms
with positive denominator).  Both are exact and totally ordered, the
integers embed in the rationals without loss, and no operation used
anywhere in this package can introduce rounding.  Which domain a
computation lives in is decided by whoever constructs the scalars
(parsers, random generators, callers); arithmetic itself never mixes in
floats.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import Union

from .boolalg import _MAX_DIGITS, _TOO_LONG, _shown

Scalar = Union[int, Fraction]

# optional sign, digits, optional "/digits"; no whitespace inside a literal
_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_scalar(text: str) -> Scalar:
    """Parse an integer or ``p/q`` rational literal into an exact scalar.

    Rationals are normalized; a rational that reduces to an integer is
    returned as ``int``.  Raises ``ValueError`` on malformed text, a
    zero denominator, or a part over ``_MAX_DIGITS`` digits.
    """
    if not isinstance(text, str) or not _LITERAL.fullmatch(text):
        raise ValueError(f"malformed scalar literal: {_shown(text)}")
    if len(text) > _MAX_DIGITS and max(map(len, text.lstrip("-").split("/"))) > _MAX_DIGITS:
        raise ValueError(f"scalar literal over the bound of {_MAX_DIGITS} digits")
    if "/" in text:
        num_text, den_text = text.split("/")
        den = int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator in scalar literal: {_shown(text)}")
        value = Fraction(int(num_text), den)
        return int(value) if value.denominator == 1 else value
    return int(text)


def format_scalar(value: Scalar) -> str:
    """Canonical text for a scalar; inverse of :func:`parse_scalar`, and
    refuses, as it does, a numerator or denominator over the bound."""
    if max(abs(value.numerator), value.denominator) >= _TOO_LONG:
        raise ValueError(f"scalar over the bound of {_MAX_DIGITS} digits")
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _require_exact(*values) -> None:
    """Refuse a scalar that is not an ``int`` or ``Fraction``: a float or a bool."""
    for value in values:
        if value.__class__ is bool or not isinstance(value, (int, Fraction)):
            raise TypeError(
                f"scalars must be int or Fraction, not {type(value).__name__}"
            )


def _require_coeff_bound(coeff_bound: int) -> None:
    """Refuse a sampling bound below 1: its range holds only constants or nothing."""
    if coeff_bound < 1:
        raise ValueError(f"coeff_bound must be at least 1, got {coeff_bound}")


def _require_domain(domain: str) -> None:
    """Refuse a coefficient domain other than ``"int"`` and ``"fraction"``."""
    if domain not in ("int", "fraction"):
        raise ValueError(f"unknown coefficient domain: {_shown(domain)}")


def _random_values(
    rng: random.Random, count: int, bound: int, domain: str = "int"
) -> tuple[Scalar, ...]:
    """``count`` random scalars bounded by ``bound``, one draw per value.

    ``domain`` selects the coefficient domain: ``"int"`` draws integers
    in [-bound, bound], ``"fraction"`` draws normalized rationals with
    numerator in that range and denominator in 1..4.  The random elements
    of every layer take their atom values from here, so equal seeds give
    equal values whichever form is built.
    """
    _require_coeff_bound(bound)
    _require_domain(domain)
    if domain == "int":
        return tuple(rng.randint(-bound, bound) for _ in range(count))
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(count)
    )
