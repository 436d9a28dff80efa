"""Independent pointwise semantics used as a differential-testing oracle.

Every element of a boolean power over a finite atomic algebra is, up to
isomorphism, a function from atoms to scalars.  This module implements
that naive model directly: a :class:`PointFn` stores one exact scalar
per atom, and operations act coordinatewise.  It deliberately shares no
arithmetic code with the orthogonal or step-function representations so
that agreement between the two is evidence, not tautology.

:func:`oracle_diff` checks every public orthogonal and step operation
against this model from one table: each row names the operation, how its
operands are drawn, its pointwise reference and the form of its expected
value, and one generic check runs every row.  An operation passes when
every case held and at least one case ran; a check of nothing fails.

The library's random elements (``orthogonal.random_orth``,
``steps.random_steps``) are built on the core kernel, so no sampled axiom
suite loads this module: of the command line, only ``oracle-diff`` and
``eval`` do.  :func:`random_steps` here is the oracle's own construction
of the same element, which the tests compare with the core's.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence, Union

from .boolalg import Algebra, _check_same_algebra, _first_failure, _Frozen, _setattr, _shown
from .orthogonal import OrthElem
from .scalars import (
    Scalar,
    _random_values,
    _require_coeff_bound,
    _require_domain,
    format_scalar,
)
from .steps import StepElem

__all__ = [
    "PointFn",
    "atom_values",
    "pointwise_apply",
    "orth_of_pointfn",
    "steps_of_pointfn",
    "random_pointfn",
    "random_steps",
    "oracle_diff",
]


class PointFn(_Frozen):
    """Total map from the atoms of a finite algebra to exact scalars."""

    __slots__ = _fields = ("algebra", "values")
    algebra: Algebra
    values: tuple[Scalar, ...]

    def __init__(self, algebra: Algebra, values: tuple[Scalar, ...]) -> None:
        if len(values) != len(algebra.atoms):
            raise ValueError("one value per atom required")
        _setattr(self, "algebra", algebra)
        _setattr(self, "values", values)

    def __str__(self) -> str:
        return " ".join(
            f"{name}={format_scalar(value)}"
            for name, value in zip(self.algebra.atoms, self.values)
        )

    def __repr__(self) -> str:
        return f"PointFn({self})"


def atom_values(elem: Union[OrthElem, StepElem]) -> PointFn:
    """Evaluate a represented element at every atom.

    For orthogonal form, an atom takes the value of the unique class
    containing it.  For step form, an atom takes the largest threshold
    whose component still contains it (the first threshold when only the
    leading 1-component does).
    """
    if isinstance(elem, OrthElem):
        layers = elem.entries
    elif isinstance(elem, StepElem):
        # thresholds ascend, so the largest one containing an atom is set last
        layers = zip(elem.thresholds, elem.idems)
    else:
        raise TypeError(f"cannot evaluate {type(elem).__name__} at atoms")
    values: list[Scalar] = [0] * len(elem.algebra.atoms)
    for value, component in layers:
        for i in range(len(values)):
            if component.mask >> i & 1:
                values[i] = value
    return PointFn(elem.algebra, tuple(values))


_POINTWISE_OPS: dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
}


def pointwise_apply(
    op: str, args: Sequence[PointFn], scalar: Scalar | None = None
) -> PointFn:
    """Coordinatewise add/mul/min/max, scalar multiple, or negation."""
    if not args:
        raise ValueError("no operands")
    algebra = _check_same_algebra(*args)
    if op == "scalar":
        if len(args) != 1 or scalar is None:
            raise ValueError("scalar multiplication takes one operand and a scalar")
        return PointFn(algebra, tuple(scalar * v for v in args[0].values))
    if op == "neg":
        if len(args) != 1:
            raise ValueError("negation takes one operand")
        return PointFn(algebra, tuple(-v for v in args[0].values))
    if op not in _POINTWISE_OPS:
        raise ValueError(f"unknown pointwise operation: {_shown(op)}")
    if len(args) != 2:
        raise ValueError(f"{op} takes two operands, got {len(args)}")
    fn = _POINTWISE_OPS[op]
    return PointFn(
        algebra,
        tuple(fn(a, b) for a, b in zip(args[0].values, args[1].values)),
    )


def _value_classes(pf: PointFn) -> list[tuple[Scalar, int]]:
    """``(value, mask of the atoms taking it)`` per distinct value, ascending."""
    classes: dict[Scalar, int] = {}
    for i, value in enumerate(pf.values):
        classes[value] = classes.get(value, 0) | (1 << i)
    return sorted(classes.items(), key=lambda item: item[0])


def orth_of_pointfn(pf: PointFn) -> OrthElem:
    """Group atoms by value; inverse of ``atom_values`` on orthogonal form."""
    algebra = pf.algebra
    return OrthElem(
        algebra,
        tuple((value, algebra.from_mask(mask)) for value, mask in _value_classes(pf)),
    )


def steps_of_pointfn(pf: PointFn) -> StepElem:
    """Build step form directly: distinct values ascending, tail unions."""
    algebra = pf.algebra
    ordered = _value_classes(pf)
    tails, mask = [], 0
    for _, class_mask in reversed(ordered):
        mask |= class_mask
        tails.append(algebra.from_mask(mask))
    thresholds = tuple(value for value, _ in ordered)
    return StepElem(algebra, thresholds, tuple(reversed(tails)))


def random_pointfn(
    rng: random.Random, algebra: Algebra, bound: int, domain: str = "int"
) -> PointFn:
    """Random atom valuation with entries bounded by ``bound``.

    The values are the draws of ``scalars._random_values``: ``domain``
    ``"int"`` gives, seed for seed, the atom values of ``specker.random_orth``
    and ``specker.random_steps``, and ``"fraction"`` rational ones.
    """
    return PointFn(algebra, _random_values(rng, len(algebra.atoms), bound, domain))


def random_steps(rng: random.Random, algebra: Algebra, bound: int) -> StepElem:
    """The oracle's step sampler, built through :class:`PointFn`.

    The library samples with ``steps.random_steps`` on the atom-value
    kernel; the tier-1 tests hold it to this construction, draw for draw.
    """
    return steps_of_pointfn(random_pointfn(rng, algebra, bound))


# --- differential runner ---------------------------------------------------

# The checked operations in run order: name, operand shape, the form the
# operands are handed over in, pointwise reference, and the form of the
# expected value: "orth" or "steps" (the reference in that form), "bool"
# (the reference itself), or "conversion" (the reference in step form,
# which must also evaluate back to it at every atom).
_ORACLE = (
    ("orth_add", "pair", "orth", "add", "orth"),
    ("orth_mul", "pair", "orth", "mul", "orth"),
    ("orth_meet", "pair", "orth", "min", "orth"),
    ("orth_join", "pair", "orth", "max", "orth"),
    ("orth_scale", "scalar", "orth", "scalar", "orth"),
    ("orth_leq", "pair", "orth", "leq", "bool"),
    ("orth_is_nonneg", "one", "orth", "nonneg", "bool"),
    ("to_steps", "one", "orth", "same", "conversion"),
    ("to_orth", "one", "steps", "same", "orth"),
    ("step_add", "pair", "steps", "add", "steps"),
    ("step_mul", "pair", "steps", "mul", "steps"),
    ("step_mul_nonneg", "nonneg pair", "steps", "mul", "steps"),
    ("step_meet", "pair", "steps", "min", "steps"),
    ("step_join", "pair", "steps", "max", "steps"),
    ("step_scale_pos", "positive scalar", "steps", "scalar", "steps"),
    ("step_scale", "scalar", "steps", "scalar", "steps"),
    ("step_neg", "one", "steps", "neg", "steps"),
    ("step_leq", "pair", "steps", "leq", "bool"),
)


def _draw(
    shape: str, rng: random.Random, algebra: Algebra, bound: int, domain: str
) -> tuple:
    """The operands of one case, their atom values from ``domain``; a
    scalar operand is an ``int``, and comes first but is drawn last."""
    first = random_pointfn(rng, algebra, bound, domain)
    if shape == "one":
        return (first,)
    if shape.endswith("scalar"):
        return rng.randint(1 if shape == "positive scalar" else -bound, bound), first
    pair = (first, random_pointfn(rng, algebra, bound, domain))
    if shape == "pair":
        return pair
    # "nonneg pair": the absolute values
    return tuple(
        pointwise_apply("max", [pf, pointwise_apply("neg", [pf])]) for pf in pair
    )


def _reference(name: str, operands: tuple):
    """What the pointwise model says one case's operation gives."""
    if name == "scalar":
        return pointwise_apply("scalar", operands[1:], scalar=operands[0])
    if name == "leq":
        return all(a <= b for a, b in zip(operands[0].values, operands[1].values))
    if name == "nonneg":
        return all(v >= 0 for v in operands[0].values)
    if name == "same":
        return operands[0]
    return pointwise_apply(name, operands)


def _represent(form: str, pf: PointFn) -> Union[OrthElem, StepElem]:
    return orth_of_pointfn(pf) if form == "orth" else steps_of_pointfn(pf)


def _oracle_cases(
    row: tuple, op: Callable, rng: random.Random, algebra: Algebra, bound: int,
    samples: int, domain: str,
) -> Iterator[dict | None]:
    """Each case of one table row: ``None`` when it holds, else its witness."""
    name, shape, given, reference, form = row
    for case in range(samples):
        operands = _draw(shape, rng, algebra, bound, domain)
        got = op(
            *(_represent(given, x) if isinstance(x, PointFn) else x for x in operands)
        )
        value = _reference(reference, operands)
        expected = value if form == "bool" else _represent(form, value)
        if got != expected or (form == "conversion" and atom_values(got) != value):
            yield {
                "op": name,
                "case": case,
                "operands": [str(x) for x in operands],
                "got": str(got),
                "expected": str(expected),
            }
        else:
            yield None


def oracle_diff(
    algebra: Algebra,
    seed: int = 0,
    samples: int = 200,
    coeff_bound: int = 10,
    domain: str = "int",
) -> list[dict]:
    """Run every public arithmetic/order operation against this oracle.

    Returns one record per checked operation, in a fixed order, with
    fields ``op``, ``seed``, ``case`` (cases run, or the failing case
    index), ``status``, and a ``witness`` on a failing case.  An operation
    that checked no case (``samples=0``) fails, with ``case`` 0 and no
    witness.  Each operation draws its cases from its own generator,
    seeded by ``seed`` and its name, so a record does not depend on the
    others.  Each operation is looked up on ``specker.orthogonal`` or
    ``specker.steps`` as its row runs, so a test injects a fault by
    patching it there.  ``coeff_bound`` must be at least 1.
    ``domain`` (``"int"`` or ``"fraction"``) is the coefficient domain of
    the elements' atom values; scalar operands are always ints.
    """
    from . import orthogonal as og
    from . import steps as st

    _require_coeff_bound(coeff_bound)
    _require_domain(domain)
    records: list[dict] = []
    for row in _ORACLE:
        name = row[0]
        op = getattr(og if name.startswith("orth_") else st, name)
        # string seeding is stable across processes, unlike hash() of a str
        rng = random.Random(f"{seed}:{name}")
        checked, witness = _first_failure(
            _oracle_cases(row, op, rng, algebra, coeff_bound, samples, domain)
        )
        record = {"op": name, "seed": seed, "case": checked, "status": "pass"}
        if witness is not None:
            record.update(case=witness["case"], status="fail", witness=witness)
        elif not checked:  # a check of nothing is no evidence
            record["status"] = "fail"
        records.append(record)
    return records
