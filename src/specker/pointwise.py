"""Independent pointwise semantics used as a differential-testing oracle.

Every element of a boolean power over a finite atomic algebra is, up to
isomorphism, a function from atoms to scalars.  This module implements
that naive model directly: a :class:`PointFn` stores one exact scalar
per atom, and operations act coordinatewise.  It deliberately shares no
arithmetic code with the orthogonal or step-function representations so
that agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence, Union

from .boolalg import Algebra, _Frozen, _setattr
from .orthogonal import OrthElem
from .scalars import Scalar, format_scalar
from .steps import StepElem

__all__ = [
    "PointFn",
    "atom_values",
    "pointwise_apply",
    "orth_of_pointfn",
    "steps_of_pointfn",
    "random_pointfn",
    "random_orth",
    "random_steps",
    "oracle_diff",
]


class PointFn(_Frozen):
    """Total map from the atoms of a finite algebra to exact scalars."""

    __slots__ = ("algebra", "values")
    algebra: Algebra
    values: tuple[Scalar, ...]

    def __init__(self, algebra: Algebra, values: tuple[Scalar, ...]) -> None:
        if len(values) != len(algebra.atoms):
            raise ValueError("one value per atom required")
        _setattr(self, "algebra", algebra)
        _setattr(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.algebra, self.values) == (other.algebra, other.values)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, self.values))

    def value_at(self, atom_name: str) -> Scalar:
        return self.values[self.algebra.atoms.index(atom_name)]

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
    algebra = elem.algebra
    values: list[Scalar] = []
    if isinstance(elem, OrthElem):
        for i in range(len(algebra.atoms)):
            bit = 1 << i
            for value, component in elem.entries:
                if component.mask & bit:
                    values.append(value)
                    break
    elif isinstance(elem, StepElem):
        for i in range(len(algebra.atoms)):
            bit = 1 << i
            best = elem.thresholds[0]
            for threshold, idem in zip(elem.thresholds, elem.idems):
                if idem.mask & bit:
                    best = threshold
            values.append(best)
    else:
        raise TypeError(f"cannot evaluate {type(elem).__name__} at atoms")
    return PointFn(algebra, tuple(values))


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
    algebra = args[0].algebra
    for arg in args[1:]:
        if arg.algebra != algebra:
            raise ValueError("mixed algebras in pointwise operation")
    if op == "scalar":
        if len(args) != 1 or scalar is None:
            raise ValueError("scalar multiplication takes one operand and a scalar")
        return PointFn(algebra, tuple(scalar * v for v in args[0].values))
    if op == "neg":
        if len(args) != 1:
            raise ValueError("negation takes one operand")
        return PointFn(algebra, tuple(-v for v in args[0].values))
    if op not in _POINTWISE_OPS:
        raise ValueError(f"unknown pointwise operation: {op!r}")
    if len(args) != 2:
        raise ValueError(f"{op} takes two operands, got {len(args)}")
    fn = _POINTWISE_OPS[op]
    return PointFn(
        algebra,
        tuple(fn(a, b) for a, b in zip(args[0].values, args[1].values)),
    )


def orth_of_pointfn(pf: PointFn) -> OrthElem:
    """Group atoms by value; inverse of ``atom_values`` on orthogonal form."""
    algebra = pf.algebra
    classes: dict[Scalar, int] = {}
    for i, value in enumerate(pf.values):
        classes[value] = classes.get(value, 0) | (1 << i)
    entries = tuple(
        (value, algebra.from_mask(mask))
        for value, mask in sorted(classes.items(), key=lambda item: item[0])
    )
    return OrthElem(algebra, entries)


def steps_of_pointfn(pf: PointFn) -> StepElem:
    """Build step form directly: distinct values ascending, tail unions."""
    algebra = pf.algebra
    classes: dict[Scalar, int] = {}
    for i, value in enumerate(pf.values):
        classes[value] = classes.get(value, 0) | (1 << i)
    ordered = sorted(classes.items(), key=lambda item: item[0])
    thresholds = tuple(value for value, _ in ordered)
    tails = []
    mask = 0
    for _, class_mask in reversed(ordered):
        mask |= class_mask
        tails.append(algebra.from_mask(mask))
    tails.reverse()
    return StepElem(algebra, thresholds, tuple(tails))


def random_pointfn(
    rng: random.Random, algebra: Algebra, bound: int, domain: str = "int"
) -> PointFn:
    """Random atom valuation with entries bounded by ``bound``.

    ``domain`` selects the coefficient domain per instance: ``"int"``
    draws integers in [-bound, bound], ``"fraction"`` draws normalized
    rationals with numerator in that range and denominator in 1..4.
    """
    if domain == "int":
        values = tuple(
            rng.randint(-bound, bound) for _ in algebra.atoms
        )
    elif domain == "fraction":
        values = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
            for _ in algebra.atoms
        )
    else:
        raise ValueError(f"unknown coefficient domain: {domain!r}")
    return PointFn(algebra, values)


def random_orth(
    rng: random.Random, algebra: Algebra, bound: int, domain: str = "int"
) -> OrthElem:
    return orth_of_pointfn(random_pointfn(rng, algebra, bound, domain))


def random_steps(
    rng: random.Random, algebra: Algebra, bound: int, domain: str = "int"
) -> StepElem:
    return steps_of_pointfn(random_pointfn(rng, algebra, bound, domain))


# --- differential runner ---------------------------------------------------


def _witness(op: str, case: int, operands, got, expected) -> dict:
    return {
        "op": op,
        "case": case,
        "operands": [str(x) for x in operands],
        "got": str(got),
        "expected": str(expected),
    }


def oracle_diff(
    algebra: Algebra,
    seed: int = 0,
    samples: int = 200,
    coeff_bound: int = 10,
    overrides: dict[str, Callable] | None = None,
) -> list[dict]:
    """Run every public arithmetic/order operation against this oracle.

    Returns one record per checked identity with fields ``op``, ``seed``,
    ``case`` (cases run, or the failing case index), ``status``, and a
    ``witness`` on failure.  Deterministic for a fixed seed.  ``overrides``
    substitutes implementations by name, which is how fault-injection
    tests exercise the mismatch path.
    """
    from . import orthogonal as og
    from . import steps as st

    ops = {
        "orth_add": og.orth_add,
        "orth_mul": og.orth_mul,
        "orth_scale": og.orth_scale,
        "orth_meet": og.orth_meet,
        "orth_join": og.orth_join,
        "orth_leq": og.orth_leq,
        "orth_is_nonneg": og.orth_is_nonneg,
        "to_steps": st.to_steps,
        "to_orth": st.to_orth,
        "step_add": st.step_add,
        "step_scale_pos": st.step_scale_pos,
        "step_mul_nonneg": st.step_mul_nonneg,
        "step_neg": st.step_neg,
        "step_mul": st.step_mul,
        "step_scale": st.step_scale,
        "step_meet": st.step_meet,
        "step_join": st.step_join,
        "step_leq": st.step_leq,
    }
    if overrides:
        ops.update(overrides)

    records: list[dict] = []

    def run(op_name: str, check: Callable[[random.Random, int], dict | None]) -> None:
        # string seeding is stable across processes, unlike hash() of a str
        rng = random.Random(f"{seed}:{op_name}")
        for case in range(samples):
            witness = check(rng, case)
            if witness is not None:
                records.append(
                    {
                        "op": op_name,
                        "seed": seed,
                        "case": case,
                        "status": "fail",
                        "witness": witness,
                    }
                )
                return
        records.append(
            {"op": op_name, "seed": seed, "case": samples, "status": "pass"}
        )

    def pf_pair(rng):
        return (
            random_pointfn(rng, algebra, coeff_bound),
            random_pointfn(rng, algebra, coeff_bound),
        )

    def binary_orth(op_name: str, pointwise_op: str):
        def check(rng, case):
            pa, pb = pf_pair(rng)
            got = ops[op_name](orth_of_pointfn(pa), orth_of_pointfn(pb))
            expected = orth_of_pointfn(pointwise_apply(pointwise_op, [pa, pb]))
            if got != expected:
                return _witness(op_name, case, (pa, pb), got, expected)
            return None

        return check

    def binary_steps(op_name: str, pointwise_op: str, nonneg: bool = False):
        def check(rng, case):
            pa, pb = pf_pair(rng)
            if nonneg:
                pa = pointwise_apply("max", [pa, pointwise_apply("neg", [pa])])
                pb = pointwise_apply("max", [pb, pointwise_apply("neg", [pb])])
            got = ops[op_name](steps_of_pointfn(pa), steps_of_pointfn(pb))
            expected = steps_of_pointfn(pointwise_apply(pointwise_op, [pa, pb]))
            if got != expected:
                return _witness(op_name, case, (pa, pb), got, expected)
            return None

        return check

    run("orth_add", binary_orth("orth_add", "add"))
    run("orth_mul", binary_orth("orth_mul", "mul"))
    run("orth_meet", binary_orth("orth_meet", "min"))
    run("orth_join", binary_orth("orth_join", "max"))

    def check_orth_scale(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        b = rng.randint(-coeff_bound, coeff_bound)
        got = ops["orth_scale"](b, orth_of_pointfn(pa))
        expected = orth_of_pointfn(pointwise_apply("scalar", [pa], scalar=b))
        if got != expected:
            return _witness("orth_scale", case, (b, pa), got, expected)
        return None

    run("orth_scale", check_orth_scale)

    def check_orth_leq(rng, case):
        pa, pb = pf_pair(rng)
        got = ops["orth_leq"](orth_of_pointfn(pa), orth_of_pointfn(pb))
        expected = all(a <= b for a, b in zip(pa.values, pb.values))
        if got != expected:
            return _witness("orth_leq", case, (pa, pb), got, expected)
        return None

    run("orth_leq", check_orth_leq)

    def check_orth_is_nonneg(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        got = ops["orth_is_nonneg"](orth_of_pointfn(pa))
        expected = all(v >= 0 for v in pa.values)
        if got != expected:
            return _witness("orth_is_nonneg", case, (pa,), got, expected)
        return None

    run("orth_is_nonneg", check_orth_is_nonneg)

    def check_to_steps(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        f = orth_of_pointfn(pa)
        g = ops["to_steps"](f)
        if g != steps_of_pointfn(pa) or atom_values(g) != pa:
            return _witness("to_steps", case, (pa,), g, steps_of_pointfn(pa))
        return None

    run("to_steps", check_to_steps)

    def check_to_orth(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        g = steps_of_pointfn(pa)
        f = ops["to_orth"](g)
        if f != orth_of_pointfn(pa):
            return _witness("to_orth", case, (pa,), f, orth_of_pointfn(pa))
        return None

    run("to_orth", check_to_orth)

    run("step_add", binary_steps("step_add", "add"))
    run("step_mul", binary_steps("step_mul", "mul"))
    run("step_mul_nonneg", binary_steps("step_mul_nonneg", "mul", nonneg=True))
    run("step_meet", binary_steps("step_meet", "min"))
    run("step_join", binary_steps("step_join", "max"))

    def check_step_scale_pos(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        b = rng.randint(1, coeff_bound)
        got = ops["step_scale_pos"](b, steps_of_pointfn(pa))
        expected = steps_of_pointfn(pointwise_apply("scalar", [pa], scalar=b))
        if got != expected:
            return _witness("step_scale_pos", case, (b, pa), got, expected)
        return None

    run("step_scale_pos", check_step_scale_pos)

    def check_step_scale(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        b = rng.randint(-coeff_bound, coeff_bound)
        got = ops["step_scale"](b, steps_of_pointfn(pa))
        expected = steps_of_pointfn(pointwise_apply("scalar", [pa], scalar=b))
        if got != expected:
            return _witness("step_scale", case, (b, pa), got, expected)
        return None

    run("step_scale", check_step_scale)

    def check_step_neg(rng, case):
        pa = random_pointfn(rng, algebra, coeff_bound)
        got = ops["step_neg"](steps_of_pointfn(pa))
        expected = steps_of_pointfn(pointwise_apply("neg", [pa]))
        if got != expected:
            return _witness("step_neg", case, (pa,), got, expected)
        return None

    run("step_neg", check_step_neg)

    def check_step_leq(rng, case):
        pa, pb = pf_pair(rng)
        got = ops["step_leq"](steps_of_pointfn(pa), steps_of_pointfn(pb))
        expected = all(a <= b for a, b in zip(pa.values, pb.values))
        if got != expected:
            return _witness("step_leq", case, (pa, pb), got, expected)
        return None

    run("step_leq", check_step_leq)

    return records
