"""The value and type of each result class of the atom-value kernel.

Every orthogonal sum, difference, product, meet and join, and the step
products, difference and kernel sum, take ``pick(f(x), g(x))`` at each atom ``x`` and
group the atoms by value.  This pins what each class's value is, down to
its type: the value ``pick`` gives on the original scalars at the class's
lowest atom (a dict in atom order keeps the first key), so an ``int``
stays an ``int``, a ``Fraction`` with denominator 1 stays a ``Fraction``,
and ``min``/``max`` return the first operand on a tie.

Operands take int, ``Fraction`` and integral-``Fraction`` values at once,
on 1-16 atoms; the reference is written here, sharing no code with the
kernel.
"""

from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specker.boolalg import make_algebra
from specker.orthogonal import (
    orth_add,
    orth_join,
    orth_meet,
    orth_mul,
    orth_normalize,
    orth_sub,
)
from specker.scalars import format_scalar
from specker.steps import (
    StepElem,
    _sum,
    step_mul,
    step_mul_nonneg,
    step_sub,
    to_orth,
    to_steps,
)

ALGEBRAS = {n: make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 17)}

ints = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# a Fraction equal to an int, such as Fraction(4, 2)
integral = st.builds(lambda n: Fraction(2 * n, 2), st.integers(-6, 6))
scalars = st.one_of(ints, fractions, integral)

# name -> (operation, form of its operands, pointwise pick, nonnegative operands)
OPS = {
    "orth_add": (orth_add, "orth", add, False),
    "orth_sub": (orth_sub, "orth", sub, False),
    "orth_mul": (orth_mul, "orth", mul, False),
    "orth_meet": (orth_meet, "orth", min, False),
    "orth_join": (orth_join, "orth", max, False),
    "step_mul": (step_mul, "steps", mul, False),
    "step_mul_nonneg": (step_mul_nonneg, "steps", mul, True),
    "steps._sum": (_sum, "steps", add, False),
    "steps.step_sub": (step_sub, "steps", sub, False),
}


def _grouped(at):
    """``[(value, mask)]`` ascending; each value is the first key in atom order."""
    classes = {}
    for i, value in enumerate(at):
        classes[value] = classes.get(value, 0) | 1 << i
    return sorted(classes.items(), key=lambda item: item[0])


@st.composite
def valuations(draw, nonneg=False):
    """Two valuations of one algebra's atoms, each value int, Fraction or integral."""
    n = draw(st.integers(1, 16))
    values = scalars.map(abs) if nonneg else scalars
    return n, [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(2)]


def _element(algebra, at, form):
    classes = [(value, algebra.from_mask(mask)) for value, mask in _grouped(at)]
    elem = orth_normalize(algebra, classes)
    return to_steps(elem) if form == "steps" else elem


def _classes_of(elem):
    orth = to_orth(elem) if isinstance(elem, StepElem) else elem
    return [(value, component.mask) for value, component in orth.entries]


def _value_at(elem, i):
    return next(value for value, mask in _classes_of(elem) if mask >> i & 1)


def _check(name, case):
    op, form, pick, _ = OPS[name]
    n, (fat, gat) = case
    algebra = ALGEBRAS[n]
    f, g = (_element(algebra, at, form) for at in (fat, gat))
    # the operands' own atom values: an atom takes its class's first key
    fat, gat = ([_value_at(h, i) for i in range(n)] for h in (f, g))
    expected = _grouped(map(pick, fat, gat))
    got = _classes_of(op(f, g))
    assert [mask for _, mask in got] == [mask for _, mask in expected]
    for (value, _), (want, _) in zip(got, expected):
        assert value == want and type(value) is type(want)
        assert format_scalar(value) == format_scalar(want)


@pytest.mark.parametrize("name", [name for name in OPS if not OPS[name][3]])
@settings(max_examples=80, deadline=None)
@given(case=valuations())
def test_class_values_keep_the_type_of_their_lowest_atom(name, case):
    _check(name, case)


@settings(max_examples=80, deadline=None)
@given(case=valuations(nonneg=True))
def test_nonneg_step_product_keeps_the_type_of_its_lowest_atom(case):
    _check("step_mul_nonneg", case)


def test_integral_fraction_operands_give_fraction_values():
    b2 = ALGEBRAS[1]
    two, half = Fraction(4, 2), Fraction(1, 2)
    f = _element(b2, [two], "orth")
    g = _element(b2, [2], "orth")
    assert type(orth_add(f, g).values()[0]) is Fraction
    assert type(orth_add(g, g).values()[0]) is int
    # a tie: the first operand's value, whichever type it has
    assert type(orth_meet(f, g).values()[0]) is Fraction
    assert type(orth_join(g, f).values()[0]) is int
    h = _element(b2, [half], "orth")
    assert orth_mul(h, f).values() == (1,) and type(orth_mul(h, f).values()[0]) is Fraction
