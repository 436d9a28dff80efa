"""Work bounds of the atom-value kernel, counted in elements built.

A count repeats exactly on any host, where a timing would not.
``BoolElem.__post_init__`` runs once per element built, so wrapping it
counts constructions, as the benchmark's tracer does.  The operands have
64 atoms and 64 value classes each: pair refinement of their components
would build 64 * 64 cells, and the candidate formulas of nonnegative
multiplication and of subtraction 64 * 64 candidates of 64 * 64 cells
each.  An element literal names its atoms, and reading one builds only
the element it names.

``step_add`` still runs its formula, but on ints: one all-``Fraction``
sum at 16 atoms makes fewer Python-level calls into ``fractions.py``
than 20,000, the order of 16 * 16 candidates (counted with
``sys.setprofile``; the loop on ``Fraction`` scalars made 1.78 million),
and rational operands read as many step values as int operands of the
same class structure.

Past the de Vries gate the relation is ``<=``, and the lifted layer reads
it by its definition.  Wrapping ``ProxRel.has``, the one read that
tests a given pair, counts the searches of a relation: the public lifted
entries and both sampled suites make none, on ``<=`` at 2-5 atoms.  They
read a relation only through ``count`` and ``pair_at``, for the gate and
for their seeded draws of related pairs.

``normalize_term`` embeds each generator of a term once, however often
the term names it: wrapping ``terms.orth_embed`` counts the embeddings.

One M4 case runs a morphism's action on the sampled element and on at
most ``_APPROXIMANT_DRAWS`` drawn approximants, however many
combinations there are: wrapping the action counts its runs.

A morphism file whose map is too short to cover its source is refused
before either side's proximity is read: wrapping ``leq_proximity``
counts the reads.  ``<=`` stores no pairs, so ``check-prox`` on 64
atoms, and ``check-morphism``, ``lift --morphism`` and ``compose`` into
a 64-atom ``"leq"`` target, give ``ProxRel`` no pair set: wrapping
``ProxRel.__init__`` records the pair sets given, and wrapping
``ProxRel.pair_at`` counts the draws, a few per sample.  The elements
they build grow at most linearly with ``--samples``.  ``lift --morphism
--json`` into 16 ``"leq"`` atoms writes the target as ``"leq"``, and
``check-morphism`` loads its output back.  The 16- and 64-atom runs
are ``helpers.capped``: one that built ``<=``'s pairs again would fail
with ``MemoryError`` in seconds, even where ``within`` cannot stop it.
"""

import fractions
import json
import random
import sys
from fractions import Fraction

import pytest

from helpers import capped, m4_outcomes, steps_from_values, within
from specker import proximity, terms
from specker.boolalg import element_from_json, element_from_literal, make_algebra
from specker.cli import run
from specker.morphisms import (
    _APPROXIMANT_DRAWS,
    ProxMorphism,
    enumerate_boolean_homs,
    identity_prox,
    lift_morphism,
    sample_morphism_axioms,
)
from specker.orthogonal import (
    orth_add,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
    orth_normalize,
    orth_scale,
    orth_sub,
)
from specker.proximity import (
    ProxRel,
    interpolant,
    interpolate_lifted,
    leq_proximity,
    lift_check,
    positive_approximant,
    restrict_lift,
    sample_proximity_axioms,
    sample_related_pair,
)
from specker.steps import (
    StepElem,
    random_steps,
    step_add,
    step_join,
    step_meet,
    step_mul,
    step_mul_nonneg,
    step_neg,
    step_one,
    step_scale,
    step_sub,
    to_orth,
    to_steps,
)

N = 64
ALGEBRA = make_algebra([f"a{i}" for i in range(N)])
ATOMS = [ALGEBRA.atom(f"a{i}") for i in range(N)]
F = orth_normalize(ALGEBRA, [(3 * i - 50, atom) for i, atom in enumerate(ATOMS)])
G = orth_normalize(ALGEBRA, [(7 * i % N - 20, atom) for i, atom in enumerate(ATOMS)])
# nonnegative operands for step_mul_nonneg, also one class per atom
F_NONNEG = orth_normalize(ALGEBRA, [(3 * i, atom) for i, atom in enumerate(ATOMS)])
G_NONNEG = orth_normalize(ALGEBRA, [(7 * i % N, atom) for i, atom in enumerate(ATOMS)])


def test_operands_have_one_class_per_atom():
    for f in (F, G, F_NONNEG, G_NONNEG):
        assert len(f.values()) == N


@pytest.mark.parametrize(
    "op",
    [
        orth_add,
        orth_sub,
        orth_mul,
        orth_meet,
        orth_join,
        pytest.param(lambda f, g: orth_scale(-2, f), id="orth_scale"),
    ],
)
def test_orth_ops_build_one_element_per_result_class(op, built):
    # none while computing; one per class when ``entries`` is first read
    result = op(F, G)
    assert built[0] == 0
    entries = result.entries
    assert result.entries is entries and built[0] == len(entries) <= N


def test_orth_leq_builds_nothing(built):
    assert not orth_leq(F, G) and orth_leq(F, F)
    assert built[0] == 0


def test_step_ops_build_nothing_until_idems_is_read(built):
    s, t = to_steps(F), to_steps(G)
    results = [
        s,
        t,
        step_neg(s),
        step_meet(s, t),
        step_join(s, t),
        step_mul(s, t),
        step_mul_nonneg(to_steps(F_NONNEG), to_steps(G_NONNEG)),
        step_scale(-2, s),
        step_scale(3, s),
    ]
    back = to_orth(s)
    assert built[0] == 0
    for result in results:
        result.idems
    assert built[0] == sum(len(result.thresholds) for result in results)
    built[0] = 0
    assert back.entries and built[0] == N


def test_transported_step_ops_build_one_element_per_class(built):
    s, t = to_steps(F), to_steps(G)
    # the kernel reads atom values from masks; the only elements built are
    # the result's idempotents, one per class, when ``idems`` is first read
    product = step_mul(s, t)
    product.idems
    assert built[0] == len(product.thresholds) <= 3 * N
    built[0] = 0
    step_scale(-2, s).idems
    assert built[0] == N


def test_step_sub_builds_nothing_until_idems_is_read(built):
    # the formula f + (-g) runs 64 * 64 candidates over 64 * 64 pairs,
    # reading every component as an element
    s, t = to_steps(F), to_steps(G)
    with within(1):
        difference = step_sub(s, t)
    assert built[0] == 0
    difference.idems
    assert built[0] == len(difference.thresholds) <= N


def test_step_mul_nonneg_at_64_atoms_is_interactive():
    # the candidate formula runs 64 * 64 candidates over 64 * 64 pairs
    s, t = to_steps(F_NONNEG), to_steps(G_NONNEG)
    with within(1):
        step_mul_nonneg(s, t)


# 16 classes each, with denominators 1-4, and the same values times 12 as ints
SMALL = make_algebra([f"a{i}" for i in range(16)])
F_VALUES = [Fraction(3 * i - 20, 1 + i % 4) for i in range(16)]
G_VALUES = [Fraction(7 * i % 16 - 5, 4 - i % 4) for i in range(16)]
F_RATIONAL, G_RATIONAL = (steps_from_values(SMALL, values) for values in (F_VALUES, G_VALUES))
F_INT, G_INT = (steps_from_values(SMALL, [int(12 * v) for v in vs]) for vs in (F_VALUES, G_VALUES))


def _fraction_calls(call) -> int:
    """Python-level calls into ``fractions.py`` while ``call()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


def test_a_rational_step_add_makes_order_k_squared_fraction_calls():
    assert len(F_RATIONAL.thresholds) == len(G_RATIONAL.thresholds) == 16
    assert all(type(t) is Fraction for t in F_RATIONAL.thresholds + G_RATIONAL.thresholds)
    assert 0 < _fraction_calls(lambda: step_add(F_RATIONAL, G_RATIONAL)) < 20_000


def test_step_add_reads_as_many_values_on_rationals_as_on_ints(monkeypatch):
    reads = [0]
    value = StepElem.value

    def counted(self, a):
        reads[0] += 1
        return value(self, a)

    assert all(type(t) is int for t in F_INT.thresholds + G_INT.thresholds)
    monkeypatch.setattr(StepElem, "value", counted)
    total = step_add(F_RATIONAL, G_RATIONAL)
    rational, reads[0] = reads[0], 0
    assert step_scale(12, total) == step_add(F_INT, G_INT)
    assert rational == reads[0] > 0


def test_a_literal_builds_one_element(built):
    names = [f"a{i}" for i in range(0, N, 2)]
    e = element_from_literal(ALGEBRA, "[" + ",".join(names) + "]")
    assert built[0] == 1
    assert e == element_from_json(ALGEBRA, names)
    assert built[0] == 2


@pytest.fixture
def searches(monkeypatch):
    """Calls of ``ProxRel.has`` so far."""
    count = {"has": 0}

    def counting(name):
        original = getattr(ProxRel, name)

        def counted(*args):
            count[name] += 1
            return original(*args)

        return counted

    for name in count:
        monkeypatch.setattr(ProxRel, name, counting(name))
    return count


@pytest.mark.parametrize("atoms", range(2, 6))
def test_the_lifted_layer_searches_no_pairs(atoms, searches):
    algebra = make_algebra([f"a{i}" for i in range(atoms)])
    leq = leq_proximity(algebra)
    rng = random.Random(atoms)
    for _ in range(20):
        s, t = sample_related_pair(rng, leq, 6)
        assert lift_check(leq, s, t)
        assert interpolate_lifted(leq, s, t) == s
        positive = step_join(random_steps(rng, algebra, 6), step_one(algebra))
        assert lift_check(leq, positive_approximant(leq, positive), positive)
    for e in algebra.elements():
        assert interpolant(leq, e, algebra.one) == e
    assert restrict_lift(leq) == leq
    assert sample_proximity_axioms(leq, samples=20).ok
    # the identity, and the hom sending e to 1 if a0 <= e, else to 0
    through_a0 = lift_morphism(enumerate_boolean_homs(algebra, algebra)[0])
    for pm in (identity_prox(leq), through_a0):
        assert sample_morphism_axioms(pm, samples=10).ok
    assert searches == {"has": 0}


def test_normalize_term_embeds_each_generator_once(monkeypatch):
    algebra = make_algebra(["p", "q"])
    embedded = []
    original = terms.orth_embed

    def counted(element):
        embedded.append(element)
        return original(element)

    monkeypatch.setattr(terms, "orth_embed", counted)
    term = terms.parse_term("x_p*x_p + 3*x_q - x_p")
    terms.normalize_term(term, algebra)
    assert embedded == [algebra.atom("p"), algebra.atom("q")]


@pytest.mark.parametrize("atoms", [5, 12])
def test_an_m4_join_runs_the_action_at_most_draws_plus_one_times(atoms):
    # a full chain: components of atoms - 1, ..., 1 atoms under <= make
    # 2^(atoms * (atoms - 1) / 2) approximant combinations, 1,024 at 5 atoms
    leq = leq_proximity(make_algebra([f"a{i}" for i in range(atoms)]))
    pm = ProxMorphism(leq, leq, lambda f: f)
    t = steps_from_values(leq.algebra, list(range(atoms)))
    (verdict, state, runs), (expected, expected_state, expected_runs) = m4_outcomes(pm, t, 5)
    assert verdict is expected is True
    assert state == expected_state
    assert runs == expected_runs
    assert runs[0] == t
    assert 1 < len(runs) <= _APPROXIMANT_DRAWS + 1


def test_a_short_morphism_map_is_refused_before_leq_is_built(tmp_path, monkeypatch, capsys):
    # each side's <= has 3^16 pairs: the stand-in counts the builds and
    # makes none
    built = []

    def counted(algebra):
        built.append(algebra)
        return ProxRel(algebra, frozenset())

    monkeypatch.setattr(proximity, "leq_proximity", counted)
    side = {"algebra": {"atoms": [f"a{i}" for i in range(16)]}}
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"source": side, "target": side, "map": {}}), encoding="utf-8")
    assert run(["check-morphism", "--morphism", str(path)]) == 2
    assert capsys.readouterr().err == "error: morphism map must cover every source element\n"
    assert built == []


@pytest.fixture
def reads(monkeypatch):
    """The pair sets given to ``ProxRel`` so far (``<=`` is given none), and
    the calls of ``ProxRel.pair_at``."""
    seen = {"pair sets": [], "pair_at": 0}
    init, pair_at = ProxRel.__init__, ProxRel.pair_at

    def recorded(rel, algebra, pairs):
        if pairs is not None:
            seen["pair sets"].append(pairs)
        init(rel, algebra, pairs)

    def counted(rel, k):
        seen["pair_at"] += 1
        return pair_at(rel, k)

    monkeypatch.setattr(ProxRel, "__init__", recorded)
    monkeypatch.setattr(ProxRel, "pair_at", counted)
    return seen


def _one_atom_into(tmp_path, atoms: int, image_of_one: str = "1") -> str:
    """A morphism file from one atom into ``atoms`` atoms, both sides ``"leq"``."""
    target = {"algebra": {"atoms": [f"a{i}" for i in range(atoms)]}, "proximity": "leq"}
    obj = {"source": {"algebra": {"atoms": ["x"]}}, "target": target,
           "map": {"0": "0", "1": image_of_one}}
    path = tmp_path / f"into{atoms}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "image_of_one, code, out",
    [
        ("1", 0, "seed=0 samples=200 coeff-bound=10\nPASS (7 axioms)\n"),
        ("0", 1, "FAIL (M3: FAIL (0, 0))\n"),
    ],
    ids=["hom", "no-hom"],
)
def test_check_morphism_into_sixteen_leq_atoms_gives_its_verdict(
    tmp_path, capsys, reads, image_of_one, code, out
):
    # the target's <= has 3^16 pairs, and none is stored: a hom passes
    # M1-M7, and a table that is none fails M1-M4 over its 1-atom source
    path = _one_atom_into(tmp_path, 16, image_of_one)
    with within(2), capped():
        assert run(["check-morphism", "--morphism", path]) == code
    assert (*capsys.readouterr(),) == (out, "")
    assert reads["pair sets"] == []


SAMPLES = 20
# ``pair_at`` calls per sample: a related pair takes at most 3 draws (a
# grid has at most 4 points); P2-P9 draw at most 11 pairs per sample, M3
# one, and a lift or a composition of morphisms draws none
DRAWS_PER_SAMPLE = {"check-prox": 33, "check-morphism": 3, "lift": 0, "compose": 0}


def _operands_at_64(tmp_path, command: str) -> list[str]:
    """The operands of ``command`` on 64 atoms, or into a 64-atom target."""
    b64 = tmp_path / "b64.json"
    b64.write_text(json.dumps({"atoms": [f"a{i}" for i in range(64)]}), encoding="utf-8")
    into64 = _one_atom_into(tmp_path, 64)
    one = {"algebra": {"atoms": ["x"]}}
    identity = tmp_path / "id1.json"
    identity.write_text(
        json.dumps({"source": one, "target": one, "map": {"0": "0", "1": "1"}}), encoding="utf-8"
    )
    return {
        "check-prox": ["--algebra", str(b64)],
        "check-morphism": ["--morphism", into64],
        "lift": ["--morphism", into64],
        # the 1-atom identity first, then into 64 atoms
        "compose": [into64, str(identity)],
    }[command]


@pytest.mark.parametrize("command", sorted(DRAWS_PER_SAMPLE))
def test_64_atoms_store_no_pairs_and_draw_a_few_per_sample(tmp_path, capsys, reads, command):
    operands = _operands_at_64(tmp_path, command)
    with within(2), capped():
        assert run([command, *operands, "--samples", str(SAMPLES)]) == 0
    assert capsys.readouterr().err == ""
    assert reads["pair sets"] == []
    assert reads["pair_at"] <= DRAWS_PER_SAMPLE[command] * SAMPLES


@pytest.mark.parametrize("command", sorted(DRAWS_PER_SAMPLE))
def test_64_atoms_build_elements_linearly_in_the_samples(tmp_path, capsys, built, command):
    # O(samples * n) elements: doubling the samples at most doubles the
    # count, plus the elements that loading the files builds
    operands, counts = _operands_at_64(tmp_path, command), []
    for samples in (SAMPLES, 2 * SAMPLES):
        built[0] = 0
        with within(2), capped():
            assert run([command, *operands, "--samples", str(samples)]) == 0
        counts.append(built[0])
    assert capsys.readouterr().err == ""
    assert counts[0] <= SAMPLES * N and counts[1] <= 2 * counts[0] + N


def test_lift_json_into_sixteen_leq_atoms_writes_leq_and_loads_back(tmp_path, capsys, reads):
    # the target's <= is written as "leq", not as its 3^16 pairs
    with within(2), capped():
        assert run(["lift", "--morphism", _one_atom_into(tmp_path, 16), "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["target"]["proximity"] == "leq"
    lifted = tmp_path / "lifted16.json"
    lifted.write_text(out, encoding="utf-8")
    with within(2), capped():
        assert run(["check-morphism", "--morphism", str(lifted)]) == 0
    assert capsys.readouterr().out.endswith("\nPASS (7 axioms)\n")
    # the one pair set read is the 1-atom source's <=, listed within the bound
    assert [len(pairs) for pairs in reads["pair sets"]] == [3]
