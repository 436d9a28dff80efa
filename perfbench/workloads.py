"""The benchmark's workloads: seeded inputs, the calls, and their checks.

Every workload yields its operations in rounds.  Round ``r`` is built from
``random.Random(f"{seed}:{workload}:{r}")`` alone, so a pass can replay
exactly the rounds an earlier pass ran.  An operation is an :class:`Op`;
``call()`` is the only part that is timed, and ``check(result)`` runs
after it, outside the timed span.  Checks compare against the
benchmark's own coordinatewise arithmetic and never against ``specker``
code, and they use no ``assert``, because ``python -O`` strips those.
"""

from __future__ import annotations

import importlib
import json
import operator
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from spans import Profile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def fresh_specker():
    """Import ``specker`` from ``src/`` anew, as a process starting up would."""
    for name in [n for n in sys.modules if n == "specker" or n.startswith("specker.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    specker = importlib.import_module("specker")
    if Path(specker.__file__).resolve().parent != SRC / "specker":
        raise RuntimeError(f"imported specker from {specker.__file__}, not from {SRC}")
    return specker


# --- the benchmark's own reference forms ------------------------------------


def orth_form(values) -> tuple:
    """Canonical orthogonal form of an atom valuation: ``((value, mask), ...)``."""
    classes: dict = {}
    for i, value in enumerate(values):
        classes[value] = classes.get(value, 0) | 1 << i
    return tuple(sorted(classes.items(), key=lambda item: item[0]))


def step_form(values) -> tuple:
    """Canonical step form: ascending distinct values and their upper tails."""
    ordered = orth_form(values)
    tails = []
    mask = 0
    for _, class_mask in reversed(ordered):
        mask |= class_mask
        tails.append(mask)
    tails.reverse()
    return tuple(value for value, _ in ordered), tuple(tails)


def read_orth(result, atoms) -> tuple | None:
    """``orth_form`` of a result, or None when it is no orthogonal element."""
    if not isinstance(result, sys.modules["specker.orthogonal"].OrthElem):
        return None
    if result.algebra.atoms != atoms:
        return None
    return tuple((value, component.mask) for value, component in result.entries)


def read_steps(result, atoms) -> tuple | None:
    """``step_form`` of a result, or None when it is no step element."""
    if not isinstance(result, sys.modules["specker.steps"].StepElem):
        return None
    if result.algebra.atoms != atoms:
        return None
    return tuple(result.thresholds), tuple(idem.mask for idem in result.idems)


class InProcess:
    """A workload whose operations are library calls in this process."""

    name = ""
    children = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specker = None

    def _rng(self, r: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{r}")

    def module(self, short: str):
        return sys.modules[f"specker.{short}"]

    def call_late(self, short: str, function: str, *args) -> Callable[[], Any]:
        """A call that looks the function up when it runs, so spans see it."""
        return lambda: getattr(self.module(short), function)(*args)

    def close(self) -> None:
        pass


# --- arith-wide ----------------------------------------------------------------

ARITH_ATOMS = 16
ARITH_BOUND = 1000
RATIONAL_EVERY = 8  # one operand pair in eight is rational


def _nonneg(x):
    return x >= 0


def _same(x):
    return x


# name -> (module, operands, reference on atom values, result form).
# Operands: f/s = orthogonal/step form of a; ff/ss = of a and b; nn = step
# forms of |a| and |b|; bf/bs = scalar c with a; ps = scalar c > 0 with a.
ARITH_OPS = {
    "orth_add": ("orthogonal", "ff", operator.add, "orth"),
    "orth_mul": ("orthogonal", "ff", operator.mul, "orth"),
    "orth_scale": ("orthogonal", "bf", operator.mul, "orth"),
    "orth_meet": ("orthogonal", "ff", min, "orth"),
    "orth_join": ("orthogonal", "ff", max, "orth"),
    "orth_leq": ("orthogonal", "ff", operator.le, "all"),
    "orth_is_nonneg": ("orthogonal", "f", _nonneg, "all"),
    "to_steps": ("steps", "f", _same, "steps"),
    "to_orth": ("steps", "s", _same, "orth"),
    "step_add": ("steps", "ss", operator.add, "steps"),
    "step_sub": ("steps", "ss", operator.sub, "steps"),
    "step_scale_pos": ("steps", "ps", operator.mul, "steps"),
    "step_mul_nonneg": ("steps", "nn", operator.mul, "steps"),
    "step_neg": ("steps", "s", operator.neg, "steps"),
    "step_mul": ("steps", "ss", operator.mul, "steps"),
    "step_scale": ("steps", "bs", operator.mul, "steps"),
    "step_meet": ("steps", "ss", min, "steps"),
    "step_join": ("steps", "ss", max, "steps"),
    "step_leq": ("steps", "ss", operator.le, "all"),
}
ARITH_NAMES = tuple(ARITH_OPS)


def _scalar(rng: random.Random, rational: bool):
    if rational:
        return Fraction(rng.randint(-ARITH_BOUND, ARITH_BOUND), rng.randint(1, 4))
    return rng.randint(-ARITH_BOUND, ARITH_BOUND)


def arith_op(workload: InProcess, name: str, rng: random.Random, rational: bool) -> Op:
    """One seeded ``arith-wide`` operation with its expected result."""
    module, operands, reference, form = ARITH_OPS[name]
    algebra = workload.algebra
    atoms = algebra.atoms
    a = [_scalar(rng, rational) for _ in atoms]
    b = [_scalar(rng, rational) for _ in atoms]
    c = _scalar(rng, rational)
    if operands == "nn":
        a, b = [abs(x) for x in a], [abs(y) for y in b]
    if operands == "ps":
        c = abs(c) or 1
    if operands in ("f", "s"):
        expected_values = [reference(x) for x in a]
    elif operands in ("ff", "ss", "nn"):
        expected_values = [reference(x, y) for x, y in zip(a, b)]
    else:
        expected_values = [reference(c, x) for x in a]

    orth_cls = workload.module("orthogonal").OrthElem
    step_cls = workload.module("steps").StepElem

    def orth(values):
        return orth_cls(
            algebra, tuple((v, algebra.from_mask(m)) for v, m in orth_form(values))
        )

    def steps(values):
        thresholds, tails = step_form(values)
        return step_cls(algebra, thresholds, tuple(algebra.from_mask(m) for m in tails))

    if operands == "f":
        args = (orth(a),)
    elif operands == "s":
        args = (steps(a),)
    elif operands == "ff":
        args = (orth(a), orth(b))
    elif operands in ("ss", "nn"):
        args = (steps(a), steps(b))
    elif operands == "bf":
        args = (c, orth(a))
    else:
        args = (c, steps(a))

    if form == "orth":
        expected = orth_form(expected_values)

        def check(result) -> bool:
            return read_orth(result, atoms) == expected

    elif form == "steps":
        expected = step_form(expected_values)

        def check(result) -> bool:
            return read_steps(result, atoms) == expected

    else:
        expected = all(expected_values)

        def check(result) -> bool:
            return isinstance(result, bool) and result == expected

    label = f"{name} (rational)" if rational else name
    return Op(label, workload.call_late(module, name, *args), check)


class ArithWide(InProcess):
    """Library arithmetic on 16-atom elements with ~16 value classes."""

    name = "arith-wide"

    def setup(self) -> None:
        self.specker = fresh_specker()
        self.algebra = self.specker.make_algebra([f"a{i}" for i in range(ARITH_ATOMS)])
        self.round(0)
        small = self.specker.make_algebra(["p", "q", "r"])
        f = self.specker.orth_normalize(small, [(1, small.atom("p"))])
        self.specker.step_add(self.specker.to_steps(f), self.specker.to_steps(f))

    def round(self, r: int) -> list[Op]:
        """Every op once, in seeded order; rational pairs on a fixed schedule.

        Op ``j`` of round ``r`` is rational when ``(r * 19 + j) % 8 == 0``, so
        one pair in eight is rational and every run of the same length has
        the same ops rational, whatever the seed.
        """
        rng = self._rng(r)
        order = list(range(len(ARITH_NAMES)))
        rng.shuffle(order)
        return [
            arith_op(
                self,
                ARITH_NAMES[j],
                rng,
                (r * len(ARITH_NAMES) + j) % RATIONAL_EVERY == 0,
            )
            for j in order
        ]


# --- terms ---------------------------------------------------------------------

TERM_ATOMS = 6
TERM_DEPTH = 6
TERM_MAX_EXPONENT = 40
TERMS_PER_ROUND = 32
_TERM_OPS = ("+", "-", "*", "meet", "join", "neg", "pow")


def random_expression(rng: random.Random, generators, depth: int, pow_ok: bool = True):
    """A seeded expression tree: ``(text, evaluate(atom_index) -> scalar)``.

    At most one ``^`` lies on any root-to-leaf path, so exponents stay
    within 0..40 without compounding.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.55:
            g = rng.choice(generators)
            return f"x_a{g}", lambda atom, g=g: 1 if atom == g else 0
        if rng.random() < 0.7:
            value = rng.randint(-9, 9)
        else:
            value = Fraction(rng.randint(-9, 9), rng.randint(2, 4))
        text = str(abs(value))
        if value < 0:
            text = f"(-{text})"
        return text, lambda atom, value=value: value
    kind = rng.choice(_TERM_OPS if pow_ok else _TERM_OPS[:-1])
    if kind == "pow":
        exponent = rng.randint(0, TERM_MAX_EXPONENT)
        text, base = random_expression(rng, generators, depth - 1, False)
        return f"({text})^{exponent}", lambda atom: base(atom) ** exponent
    if kind == "neg":
        text, inner = random_expression(rng, generators, depth - 1, pow_ok)
        # unary minus binds tighter than ^, so the operand gets its own parens
        return f"(-({text}))", lambda atom: -inner(atom)
    left_text, left = random_expression(rng, generators, depth - 1, pow_ok)
    right_text, right = random_expression(rng, generators, depth - 1, pow_ok)
    if kind in ("meet", "join"):
        pick = min if kind == "meet" else max
        return (
            f"{kind}({left_text}, {right_text})",
            lambda atom: pick(left(atom), right(atom)),
        )
    combine = {"+": operator.add, "-": operator.sub, "*": operator.mul}[kind]
    return (
        f"({left_text} {kind} {right_text})",
        lambda atom: combine(left(atom), right(atom)),
    )


class Terms(InProcess):
    """Parse and normalize seeded text terms over 6 atoms."""

    name = "terms"

    def setup(self) -> None:
        self.specker = fresh_specker()
        self.algebra = self.specker.make_algebra([f"a{i}" for i in range(TERM_ATOMS)])
        self.round(0)
        self.specker.normalize_term(self.specker.parse_term("x_a0 * 2 + 1"), self.algebra)

    def term_op(self, text: str, evaluate) -> Op:
        atoms = self.algebra.atoms
        expected = orth_form([evaluate(i) for i in range(len(atoms))])
        algebra = self.algebra

        def call():
            terms = self.module("terms")
            return terms.normalize_term(terms.parse_term(text), algebra)

        return Op("term", call, lambda result: read_orth(result, atoms) == expected)

    def round(self, r: int) -> list[Op]:
        """32 terms, each over 1-3 of the 6 generators (1-4 value classes)."""
        rng = self._rng(r)
        ops = []
        for _ in range(TERMS_PER_ROUND):
            generators = rng.sample(range(TERM_ATOMS), rng.randint(1, 3))
            ops.append(self.term_op(*random_expression(rng, generators, TERM_DEPTH)))
        return ops


# --- verify ----------------------------------------------------------------------

SAMPLES = 50


def _literal(atoms, mask: int) -> str:
    if mask == 0:
        return "0"
    if mask == (1 << len(atoms)) - 1:
        return "1"
    return "[" + ",".join(a for i, a in enumerate(atoms) if mask >> i & 1) + "]"


def hom_table(source_atoms, dual: list[int]) -> list[int]:
    """Boolean homomorphism from its dual map (target atom -> source atom)."""
    return [
        sum(1 << t for t, s in enumerate(dual) if mask >> s & 1)
        for mask in range(1 << len(source_atoms))
    ]


def morphism_json(source_atoms, target_atoms, table) -> dict:
    return {
        "source": {"algebra": {"atoms": list(source_atoms)}, "proximity": "leq"},
        "target": {"algebra": {"atoms": list(target_atoms)}, "proximity": "leq"},
        "map": {
            _literal(source_atoms, mask): _literal(target_atoms, value)
            for mask, value in enumerate(table)
        },
    }


def _lines(expected: list[str]) -> Callable[[list[str]], bool]:
    return lambda lines: lines == expected


def _single_fail(lines: list[str]) -> bool:
    return len(lines) == 1 and lines[0].startswith("FAIL (") and lines[0].endswith(")")


def _equiv_lines(lines: list[str]) -> bool:
    # homs among {b2, b4} (1 and 2 atoms): 1 + 1 + 2 + 4 = 8 naturality reports
    return (
        len(lines) == 11
        and lines[0] == f"seed=0 samples={SAMPLES}"
        and sum(line.endswith("Id(Sp(-)) round-trip OK") for line in lines[1:3]) == 2
        and sum(
            line.startswith("hom ") and line.endswith(": PASS (2 axioms)")
            for line in lines[3:]
        )
        == 8
    )


_ORACLE_OPS = set(ARITH_OPS) - {"step_sub"}


def _oracle_lines(lines: list[str]) -> bool:
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        return False
    return (
        len(records) == len(_ORACLE_OPS)
        and {r.get("op") for r in records} == _ORACLE_OPS
        and all(r.get("status") == "pass" and r.get("case") == SAMPLES for r in records)
    )


@dataclass
class Invocation:
    label: str
    argv: list[str]
    exit_code: int
    verdict: Callable[[list[str]], bool]


def check_child(invocation: Invocation, result) -> bool:
    """Exit code, verdict lines, and no traceback on stderr."""
    code, out, err = result
    return (
        code == invocation.exit_code
        and "Traceback" not in err
        and invocation.verdict(out.splitlines())
    )


class Verify:
    """A fixed mix of real ``specker`` CLI runs, each in a fresh child."""

    name = "verify"
    children = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.mode = "plain"  # or "traced", "traced-O"
        self.profile = Profile()
        self.speed = None  # a HostSpeed gathering the children's probes, when set
        self.work = ROOT / ".perfbench_tmp" / f"verify-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.invocations: list[Invocation] = []

    def _write(self, directory: Path, name: str, obj) -> None:
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")

    def make_inputs(self, directory: Path) -> list[Invocation]:
        """Write the seeded input files and return the invocation mix."""
        rng = random.Random(f"{self.seed}:verify")
        names = {n: [f"a{i}" for i in range(n)] for n in (2, 4, 5)}
        s3, t3, u2 = ["s0", "s1", "s2"], ["t0", "t1", "t2"], ["u0", "u1"]
        c3, d3 = ["c0", "c1", "c2"], ["d0", "d1", "d2"]
        w4 = ["w0", "w1", "w2", "w3"]
        for n, atoms in names.items():
            self._write(directory, f"b{n}.json", {"atoms": atoms})
        self._write(directory, "b3.json", {"atoms": c3})
        leq3 = [(e, f) for e in range(8) for f in range(8) if e & f == e]
        leq3.remove(rng.choice(leq3))
        self._write(
            directory,
            "not_devries.json",
            {"proximity": {"pairs": [[_literal(c3, e), _literal(c3, f)] for e, f in leq3]}},
        )
        inner = hom_table(s3, [rng.randrange(3) for _ in t3])
        outer = hom_table(t3, [rng.randrange(3) for _ in u2])
        hom3 = hom_table(c3, [rng.randrange(3) for _ in d3])
        hom4 = hom_table(names[4], [rng.randrange(4) for _ in w4])
        broken = hom_table(c3, [rng.randrange(3) for _ in d3])
        spot = rng.randrange(1, 7)  # neither 0 nor 1: a single changed entry
        broken[spot] = rng.choice([m for m in range(8) if m != broken[spot]])
        self._write(directory, "hom3.json", morphism_json(c3, d3, hom3))
        self._write(directory, "hom4.json", morphism_json(names[4], w4, hom4))
        self._write(directory, "not_hom.json", morphism_json(c3, d3, broken))
        self._write(directory, "inner.json", morphism_json(s3, t3, inner))
        self._write(directory, "outer.json", morphism_json(t3, u2, outer))
        composed = ", ".join(
            f"{_literal(s3, m)}->{_literal(u2, outer[v])}" for m, v in enumerate(inner)
        )
        passed = [f"seed=0 samples={SAMPLES} coeff-bound=10"]
        return [
            Invocation("check-prox-2", ["check-prox", "--algebra", "b2.json"], 0,
                       _lines(passed + ["PASS (10 axioms)"])),
            Invocation("check-prox-4", ["check-prox", "--algebra", "b4.json"], 0,
                       _lines(passed + ["PASS (10 axioms)"])),
            Invocation("check-prox-5", ["check-prox", "--algebra", "b5.json"], 0,
                       _lines(passed + ["PASS (10 axioms)"])),
            Invocation("check-prox-bad",
                       ["check-prox", "--algebra", "b3.json", "--proximity", "not_devries.json"],
                       1, _single_fail),
            Invocation("check-devries-5", ["check-devries", "--algebra", "b5.json"], 0,
                       _lines(["PASS (7 axioms)"])),
            Invocation("lift-restrict-5", ["lift", "--algebra", "b5.json"], 0,
                       _lines([f"lift restricts to {3 ** 5} pairs; round-trip OK"])),
            Invocation("check-morphism-3", ["check-morphism", "--morphism", "hom3.json"], 0,
                       _lines(passed + ["PASS (7 axioms)"])),
            Invocation("check-morphism-4", ["check-morphism", "--morphism", "hom4.json"], 0,
                       _lines(passed + ["PASS (7 axioms)"])),
            Invocation("check-morphism-bad", ["check-morphism", "--morphism", "not_hom.json"],
                       1, _single_fail),
            Invocation("lift-morphism-4", ["lift", "--morphism", "hom4.json"], 0,
                       _lines(["lifted morphism; restriction round-trip OK"])),
            Invocation("compose", ["compose", "outer.json", "inner.json"], 0,
                       _lines([f"DVMorphism({composed})"])),
            Invocation("equiv-check", ["equiv-check"], 0, _equiv_lines),
            Invocation("oracle-diff-4", ["oracle-diff", "--algebra", "b4.json"], 0,
                       _oracle_lines),
        ]

    def setup(self) -> None:
        """Write the inputs anew and warm the bytecode cache with one child."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.invocations = self.make_inputs(self.work)
        warm = Invocation("warm-up", ["check-devries", "--algebra", "b2.json"], 0,
                          _lines(["PASS (7 axioms)"]))
        if not check_child(warm, self.spawn(warm)):
            raise RuntimeError("the warm-up CLI run failed")

    def spawn(self, invocation: Invocation):
        argv = invocation.argv + ["--samples", str(SAMPLES)]
        stats = None
        if self.mode == "plain" and self.speed is not None:
            probes = self.work / "probes.json"
            command = [sys.executable, str(HERE / "speedchild.py"), str(probes), *argv]
        elif self.mode == "plain":
            command = [sys.executable, "-m", "specker.cli", *argv]
        else:
            stats = self.work / "stats.json"
            if stats.exists():
                stats.unlink()
            flags = ["-O"] if self.mode == "traced-O" else []
            command = [sys.executable, *flags, str(HERE / "tracechild.py"), str(stats), *argv]
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        if command[1] == str(HERE / "speedchild.py"):
            self.speed.merge(json.loads(probes.read_text(encoding="utf-8")))
            probes.unlink()
        if stats is not None and stats.exists():
            data = json.loads(stats.read_text(encoding="utf-8"))
            covered = sum(data["self_s"].values()) + data["counters"].get("import_s", 0.0)
            data["wall_s"] = wall
            data["bench_s"] = wall - covered
            self.profile.add(data)
        return done.returncode, done.stdout, done.stderr

    def round(self, r: int) -> list[Op]:
        """The 13 invocations, in an order seeded per round."""
        order = list(self.invocations)
        random.Random(f"{self.seed}:verify:{r}").shuffle(order)
        return [
            Op(inv.label, lambda inv=inv: self.spawn(inv),
               lambda result, inv=inv: check_child(inv, result))
            for inv in order
        ]

    def close(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {"arith-wide": ArithWide, "verify": Verify, "terms": Terms}
