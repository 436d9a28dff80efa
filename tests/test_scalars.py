from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specker.boolalg import make_algebra
from specker.orthogonal import (
    OrthElem,
    orth_const,
    orth_from_json,
    orth_normalize,
    orth_scale,
    orth_to_json,
)
from specker.scalars import format_scalar, parse_scalar
from specker.steps import (
    StepElem,
    step_const,
    step_from_json,
    step_one,
    step_scale,
    step_scale_pos,
    step_to_json,
)

scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


def test_parse_examples():
    assert parse_scalar("0") == 0
    assert parse_scalar("-3") == -3
    # gcd-normalization oracle: 4/6 reduces by gcd(4, 6) = 2
    assert parse_scalar("4/6") == Fraction(2, 3)
    assert parse_scalar("-4/6") == Fraction(-2, 3)
    assert parse_scalar("6/3") == 2
    assert isinstance(parse_scalar("6/3"), int)


@pytest.mark.parametrize(
    "bad",
    ["", " 1", "1 ", "1.5", "a", "1/", "/2", "3/-2", "1 / 2", "--1", "0x1", None],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="denominator"):
        parse_scalar("3/0")


# CPython's default int-to-string limit, which the scalar bound equals
DIGITS = 4300
WIDEST = 10**DIGITS - 1  # 4,300 nines


@pytest.mark.parametrize("sign", [1, -1])
def test_scalars_at_the_digit_bound_round_trip(sign):
    for value in (sign * WIDEST, Fraction(sign * WIDEST, 7), Fraction(sign, WIDEST)):
        text = format_scalar(value)
        assert max(len(part.lstrip("-")) for part in text.split("/")) == DIGITS
        assert parse_scalar(text) == value


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize(
    "digits",
    ["9" * (DIGITS + 1), "9" * (DIGITS + 1) + "/7", "1/" + "9" * (DIGITS + 1), "0" * (DIGITS + 1)],
    ids=["int", "numerator", "denominator", "zeros"],
)
def test_parse_refuses_a_part_past_the_bound(sign, digits):
    with pytest.raises(ValueError) as caught:
        parse_scalar(sign + digits)
    assert str(caught.value) == f"scalar literal over the bound of {DIGITS} digits"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "value",
    [WIDEST + 1, Fraction(WIDEST + 1, 7), Fraction(1, WIDEST + 1)],
    ids=["int", "numerator", "denominator"],
)
def test_format_refuses_a_part_past_the_bound(sign, value):
    with pytest.raises(ValueError) as caught:
        format_scalar(sign * value)
    assert str(caught.value) == f"scalar over the bound of {DIGITS} digits"


def test_format_examples():
    assert format_scalar(0) == "0"
    assert format_scalar(-3) == "-3"
    assert format_scalar(Fraction(2, 3)) == "2/3"
    assert format_scalar(Fraction(-1, 2)) == "-1/2"
    assert format_scalar(Fraction(4, 2)) == "2"


@given(scalars)
def test_parse_format_round_trip(a):
    text = format_scalar(a)
    assert parse_scalar(text) == a
    assert format_scalar(parse_scalar(text)) == text


@given(scalars, scalars, scalars)
def test_ring_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0


@given(scalars, scalars, scalars)
def test_order_laws(a, b, c):
    assert min(a, b) <= a <= max(a, b)
    assert min(a, max(a, b)) == a
    assert max(a, min(a, b)) == a
    if a <= b:
        assert a + c <= b + c
    if a < b and c > 0:
        assert a * c < b * c
    if a >= 0 and b >= 0:
        assert a * b >= 0


@given(scalars, scalars)
def test_no_zero_divisors(a, b):
    if a * b == 0:
        assert a == 0 or b == 0


# every entry point that takes a scalar from a caller, as (name, call)
_ENTRY_POINTS = [
    ("orth_const", lambda b, x: orth_const(b, x)),
    ("step_const", lambda b, x: step_const(b, x)),
    ("orth_scale", lambda b, x: orth_scale(x, orth_const(b, 1))),
    ("step_scale", lambda b, x: step_scale(x, step_one(b))),
    ("step_scale_pos", lambda b, x: step_scale_pos(x, step_one(b))),
    ("orth_normalize", lambda b, x: orth_normalize(b, [(x, b.one)])),
    ("OrthElem", lambda b, x: OrthElem(b, ((x, b.one),))),
    ("StepElem", lambda b, x: StepElem(b, (x,), (b.one,))),
]


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
@pytest.mark.parametrize("bad", [1.5, 0.5, True, "1", None], ids=repr)
def test_inexact_scalars_rejected_at_the_boundary(name, call, bad):
    message = f"^scalars must be int or Fraction, not {type(bad).__name__}$"
    with pytest.raises(TypeError, match=message):
        call(make_algebra(["x"]), bad)


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[n for n, _ in _ENTRY_POINTS])
def test_exact_scalars_round_trip_through_json(name, call):
    b2 = make_algebra(["x"])
    for good in (3, Fraction(1, 2)):
        elem = call(b2, good)
        if isinstance(elem, OrthElem):
            assert orth_from_json(b2, orth_to_json(elem)) == elem
        else:
            assert step_from_json(b2, step_to_json(elem)) == elem
