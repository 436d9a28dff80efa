"""Work bounds of the atom-value kernel, counted in elements built.

A count repeats exactly on any host, where a timing would not.
``BoolElem.__post_init__`` runs once per element built, so wrapping it
counts constructions, as the benchmark's tracer does.  The operands have
64 atoms and 64 value classes each: pair refinement of their components
would build 64 * 64 cells.
"""

import pytest

from specker.boolalg import BoolElem, make_algebra
from specker.orthogonal import (
    orth_add,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
    orth_normalize,
)
from specker.steps import step_join, step_meet, step_mul, step_neg, step_scale, to_steps

N = 64
ALGEBRA = make_algebra([f"a{i}" for i in range(N)])
F = orth_normalize(ALGEBRA, [(3 * i - 50, ALGEBRA.atom(f"a{i}")) for i in range(N)])
G = orth_normalize(ALGEBRA, [((7 * i) % N - 20, ALGEBRA.atom(f"a{i}")) for i in range(N)])


@pytest.fixture
def built(monkeypatch):
    """A one-item list holding the number of ``BoolElem``s built so far."""
    count = [0]
    original = BoolElem.__post_init__

    def counted(elem):
        count[0] += 1
        original(elem)

    monkeypatch.setattr(BoolElem, "__post_init__", counted)
    return count


def test_operands_have_one_class_per_atom():
    assert len(F.entries) == len(G.entries) == N


@pytest.mark.parametrize("op", [orth_add, orth_mul, orth_meet, orth_join])
def test_orth_ops_build_one_element_per_result_class(op, built):
    result = op(F, G)
    assert built[0] == len(result.entries) <= N


def test_orth_leq_builds_nothing(built):
    assert not orth_leq(F, G) and orth_leq(F, F)
    assert built[0] == 0


def test_step_ops_build_nothing_until_idems_is_read(built):
    s, t = to_steps(F), to_steps(G)
    results = [s, t, step_neg(s), step_meet(s, t), step_join(s, t)]
    assert built[0] == 0
    for result in results:
        result.idems
    assert built[0] == sum(len(result.thresholds) for result in results)


def test_transported_step_ops_build_one_element_per_class(built):
    s, t = to_steps(F), to_steps(G)
    # to_orth builds one element per class of each operand, the kernel one
    # per class of the result, to_steps none
    step_mul(s, t)
    assert built[0] <= 3 * N
    built[0] = 0
    step_scale(-2, s)
    assert built[0] == N
