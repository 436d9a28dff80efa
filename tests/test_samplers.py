"""The library's random elements, built on the core kernel.

``orthogonal.random_orth`` and ``steps.random_steps`` draw one int per
atom through ``scalars._random_values`` and group the atoms by value on
the masks; they take no coefficient domain, since only the tests ever
asked for another.  The oracle builds the same element through ``PointFn``; the
two must agree element for element and draw for draw, so every seeded
suite that switched from one to the other reports what it did before.

The seeded suites of the library draw from seed 0 unless told otherwise.
"""

import inspect
import random

import pytest

import specker
from specker import pointwise
from specker.boolalg import BoolElem, make_algebra
from specker.morphisms import naturality_check, sample_morphism_axioms
from specker.orthogonal import random_orth
from specker.pointwise import orth_of_pointfn, random_pointfn, steps_of_pointfn
from specker.proximity import _random_grid, sample_proximity_axioms
from specker.steps import random_steps

ALGEBRAS = [make_algebra([f"a{i}" for i in range(n)]) for n in range(1, 7)]


# the samplers draw ints only; rational elements come from random_pointfn
@pytest.mark.parametrize("domain", ["int"])
@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: f"{len(a.atoms)}atoms")
def test_core_samplers_match_the_oracle(algebra, domain):
    def valuation(rng):
        return random_pointfn(rng, algebra, 6, domain)

    for seed in range(20):
        for sampler, reference in (
            (random_steps, lambda rng: steps_of_pointfn(valuation(rng))),
            (random_steps, lambda rng: pointwise.random_steps(rng, algebra, 6)),
            (random_orth, lambda rng: orth_of_pointfn(valuation(rng))),
        ):
            core, oracle = random.Random(seed), random.Random(seed)
            got, expected = sampler(core, algebra, 6), reference(oracle)
            assert got == expected and str(got) == str(expected)
            assert core.getstate() == oracle.getstate()


def test_package_exports_the_core_samplers():
    assert specker.random_steps is random_steps
    assert specker.random_orth is random_orth
    for sampler in (random_steps, random_orth, pointwise.random_steps):
        assert list(inspect.signature(sampler).parameters) == ["rng", "algebra", "bound"]


def test_core_samplers_build_no_bool_elem(monkeypatch):
    built = []
    original = BoolElem.__post_init__

    def counted(elem):
        built.append(elem)
        original(elem)

    algebra = ALGEBRAS[-1]
    rng = random.Random(0)
    monkeypatch.setattr(BoolElem, "__post_init__", counted)
    for _ in range(20):
        random_steps(rng, algebra, 10)
        random_orth(rng, algebra, 10)
    assert built == []


@pytest.mark.parametrize("sampler", [random_steps, random_orth])
def test_core_samplers_refuse_what_the_oracle_refuses(sampler):
    algebra = ALGEBRAS[1]
    with pytest.raises(ValueError, match="coeff_bound must be at least 1"):
        sampler(random.Random(0), algebra, 0)


@pytest.mark.parametrize(
    "suite",
    [sample_proximity_axioms, sample_morphism_axioms, naturality_check, pointwise.oracle_diff],
    ids=lambda suite: suite.__name__,
)
def test_the_seeded_suites_default_to_seed_0(suite):
    assert inspect.signature(suite).parameters["seed"].default == 0


def test_random_grid_draws_every_size_its_bound_allows():
    # a grid has 1 to min(4, points in [lo, coeff_bound]) points: at bound 1
    # from 0 that is 1 or 2 points of {0, 1}, and at bound 2 from -2, 1 to 4
    narrow, wide = set(), set()
    for seed in range(200):
        rng = random.Random(seed)
        grid = _random_grid(rng, 1, low=0)
        assert set(grid) <= {0, 1}
        narrow.add(len(grid))
        wide.add(len(_random_grid(rng, 2)))
    assert narrow == {1, 2}
    assert wide == {1, 2, 3, 4}
