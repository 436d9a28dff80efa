import itertools
import random

import pytest

from helpers import random_term, term_oracle, within
from specker.boolalg import make_algebra
from specker.orthogonal import orth_unit, orth_zero
from specker.pointwise import atom_values, orth_of_pointfn
from specker.terms import (
    MAX_DEPTH,
    MAX_EXPONENT,
    BinOp,
    Lit,
    Neg,
    ParseError,
    Pow,
    Var,
    default_binding,
    normalize_term,
    parse_term,
)


def test_parse_shapes():
    term = parse_term("x_p * x_p + 3*x_q - x_p")
    assert term == BinOp(
        "-",
        BinOp("+", BinOp("*", Var("x_p"), Var("x_p")), BinOp("*", Lit(3), Var("x_q"))),
        Var("x_p"),
    )
    assert parse_term("meet(x_p, 2)") == BinOp("meet", Var("x_p"), Lit(2))
    assert parse_term("join(x_p, x_q)") == BinOp("join", Var("x_p"), Var("x_q"))
    assert parse_term("-x_p") == Neg(Var("x_p"))
    assert parse_term("x_p^2") == Pow(Var("x_p"), 2)
    assert parse_term("(1)") == Lit(1)
    assert parse_term("3/4") == Lit(parse_term("3/4").value)


def test_parse_precedence():
    # unary minus binds tighter than ^, which binds tighter than *
    assert parse_term("-x_p^2") == Pow(Neg(Var("x_p")), 2)
    assert parse_term("2*x_p^2") == BinOp("*", Lit(2), Pow(Var("x_p"), 2))
    assert parse_term("1+2*3") == BinOp("+", Lit(1), BinOp("*", Lit(2), Lit(3)))
    # +/- associate to the left
    assert parse_term("2-3-1") == BinOp("-", BinOp("-", Lit(2), Lit(3)), Lit(1))
    # stacked exponents apply left to right
    assert parse_term("x_p^2^3") == Pow(Pow(Var("x_p"), 2), 3)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_term("x_p ^")
    assert info.value.position == 5

    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("x_p +")
    with pytest.raises(ParseError):
        parse_term("(x_p")
    with pytest.raises(ParseError):
        parse_term("meet(x_p x_q)")
    with pytest.raises(ParseError):
        parse_term("x_p $ x_q")
    with pytest.raises(ParseError):
        parse_term("x_p^-1")
    with pytest.raises(ParseError):
        parse_term("x_p x_q")


def _nested(depth: int) -> dict[str, str]:
    """Inputs that nest ``depth`` levels, one per way of nesting."""
    return {
        "parens": "(" * depth + "1" + ")" * depth,
        "minus": "-" * depth + "1",
        "meet": "meet(" * depth + "1" + ", 1)" * depth,
        "sum": "1+" * depth + "1",
        "product": "2*" * depth + "1",
        "power": "x_p" + "^1" * depth,
        # two levels per group, a parenthesis and a sum
        "mixed": "(1+" * ((depth + 1) // 2) + "1" + ")" * ((depth + 1) // 2),
    }


def test_nesting_bound_accepts_max_depth(b4):
    for text in _nested(MAX_DEPTH).values():
        normalize_term(parse_term(text), b4)  # parses and evaluates


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_nesting_bound_is_a_parse_error(depth):
    for text in _nested(depth).values():
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse_term(text)


def test_normalize_examples(b4):
    p, q = b4.atom("p"), b4.atom("q")
    from specker.orthogonal import orth_normalize

    assert normalize_term(parse_term("x_p * x_q"), b4) == orth_zero(b4)
    assert normalize_term(parse_term("x_p * x_p + 3*x_q - x_p"), b4) == orth_normalize(
        b4, [(3, q), (0, p)]
    )
    assert normalize_term(parse_term("1 - x_p"), b4) == orth_normalize(
        b4, [(1, q), (0, p)]
    )
    assert normalize_term(parse_term("x_p^0"), b4) == orth_unit(b4)


def test_normalize_unbound_name(b4):
    with pytest.raises(ValueError, match="unbound"):
        normalize_term(parse_term("x_r"), b4)


def test_relator_schemas_vanish_exhaustively(b4):
    zero = orth_zero(b4)
    relators = {
        "meet": "x_m - x_a*x_b",
        "join": "x_j - (x_a + x_b - x_a*x_b)",
        "complement": "x_c - (1 - x_a)",
        "bottom": "x_z",
    }
    parsed = {name: parse_term(text) for name, text in relators.items()}
    for e, f in itertools.product(b4.elements(), repeat=2):
        binding = {
            "x_a": e,
            "x_b": f,
            "x_m": e & f,
            "x_j": e | f,
            "x_c": ~e,
            "x_z": b4.zero,
        }
        for term in parsed.values():
            assert normalize_term(term, b4, binding) == zero


def test_random_terms_match_oracle(b4):
    rng = random.Random(47)
    binding = default_binding(b4)
    names = sorted(binding)
    for _ in range(200):
        term = random_term(rng, names, depth=5)
        got = normalize_term(term, b4, binding)
        assert atom_values(got) == term_oracle(term, b4, binding)


def test_normal_form_is_canonical(b4):
    rng = random.Random(53)
    binding = default_binding(b4)
    names = sorted(binding)

    def shuffled(term):
        # structurally different term with the same semantics
        if isinstance(term, BinOp) and term.op in ("+", "*", "meet", "join"):
            return BinOp(term.op, shuffled(term.right), shuffled(term.left))
        if isinstance(term, BinOp):
            return BinOp(term.op, shuffled(term.left), shuffled(term.right))
        if isinstance(term, Neg):
            return Neg(shuffled(term.operand))
        if isinstance(term, Pow):
            return Pow(shuffled(term.base), term.exponent)
        return term

    for _ in range(100):
        term = random_term(rng, names, depth=4)
        other = shuffled(term)
        assert normalize_term(term, b4, binding) == normalize_term(other, b4, binding)

    # hand-picked distinct spellings of equal elements
    pairs = [
        ("x_p + x_q", "join(x_p, x_q) + meet(x_p, x_q)"),
        ("x_p * x_p", "x_p"),
        ("x_p * x_q", "0*x_p"),
        ("(x_p + x_q)^2", "x_p + x_q"),
    ]
    for left, right in pairs:
        assert normalize_term(parse_term(left), b4) == normalize_term(
            parse_term(right), b4
        )


def test_idempotent_semantics_match_pointwise(b4):
    # a generator evaluates to its indicator function
    binding = default_binding(b4)
    got = normalize_term(parse_term("x_p"), b4, binding)
    assert atom_values(got).values == (1, 0)
    assert orth_of_pointfn(atom_values(got)) == got


def test_exponent_bound_accepts_max_exponent(b4):
    binding = default_binding(b4)
    accepted = [
        f"(x_p+2)^{MAX_EXPONENT}",
        f"x_p^{MAX_EXPONENT} * x_q^{MAX_EXPONENT}",  # products are per path
        f"((x_p+2)^40)^{MAX_EXPONENT // 40}",
        f"((x_p+2)^0)^{MAX_EXPONENT}",
        f"meet(-(x_p+1/3)^{MAX_EXPONENT // 2}, 1)^2",
    ]
    with within(1.0):
        for text in accepted:
            term = parse_term(text)
            result = normalize_term(term, b4, binding)
            assert atom_values(result) == term_oracle(term, b4, binding), text
    assert parse_term("x_p^0002") == Pow(Var("x_p"), 2)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("(x_p+2)^2000000", f"exponent larger than {MAX_EXPONENT}", 8),
        (f"x_p^{MAX_EXPONENT + 1}", f"exponent larger than {MAX_EXPONENT}", 4),
        ("x_p^" + "9" * 5000, f"exponent larger than {MAX_EXPONENT}", 4),
        ("((x_p+2)^40)^26", f"exponents multiply to more than {MAX_EXPONENT}", 12),
        ("(-(x_p^2)+1)^501", f"exponents multiply to more than {MAX_EXPONENT}", 12),
        ("x_p" + "^2" * 10, f"exponents multiply to more than {MAX_EXPONENT}", 21),
    ],
)
def test_exponent_bound_is_a_parse_error(text, message, position):
    with within(1.0):
        with pytest.raises(ParseError, match=message) as info:
            parse_term(text)
    assert info.value.position == position


@pytest.mark.parametrize(
    "text, literal, position",
    [("1/0", "1/0", 0), ("1/00", "1/00", 0), ("x_p + 3/0", "3/0", 6), ("(1/0", "1/0", 1)],
)
def test_zero_denominator_is_a_parse_error_at_the_literal(text, literal, position):
    with pytest.raises(ParseError, match=f"zero denominator in scalar literal: '{literal}'") as info:
        parse_term(text)
    assert info.value.position == position


def test_a_generator_bound_in_another_algebra_is_named_in_short():
    name = "x_" + "z" * 6000
    b4, b2 = make_algebra(["p", "q"]), make_algebra(["x"])
    with pytest.raises(ValueError) as refusal:
        normalize_term(Var(name), b4, {name: b2.one})
    assert str(refusal.value) == "generator a str of length 6002 bound in another algebra"
