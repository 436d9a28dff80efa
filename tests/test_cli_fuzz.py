"""Fuzzing the command line: small argv and JSON files, well-formed or not.

Every run must end with exit code 0, 1 or 2 and print no traceback; 2
covers every malformed invocation or input, and prints exactly one
stderr line of at most 300 bytes.  Each input file has a role (algebra,
element, proximity, morphism) and holds a well-formed document for it,
the same document with one entry dropped or replaced, or random JSON.
Most invocations have the shape their subcommand expects, with options
it takes (from ``cli._COMMANDS``) mixed in; the rest are random and may
name options it does not take.  Inputs stay small (at most two atoms, at
most three samples), so the examples run in a few seconds, except for
one over-long argument in some of them: a 5,000-character string or a
5,000-digit integer, alone or after an option's ``=``, put anywhere in
argv.  argparse quotes such a token, and a file name, an ``--expr`` or
an integer option reach their own refusals.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specker.cli import _COMMANDS, run

KEYS = [
    "atoms", "free_generators", "rep", "entries", "steps", "value", "idem",
    "upto", "proximity", "pairs", "source", "target", "algebra", "map",
]  # fmt: skip
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.sampled_from(["0", "1", "[p]", "[p,q]", "2", "-1/2", "leq", "p", "", "x"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    ),
    max_leaves=8,
)


def _side(atoms: list[str]) -> dict:
    return {"algebra": {"atoms": atoms}, "proximity": "leq"}


# well-formed documents for each file, over the atoms p and q
TEMPLATES = {
    "alg.json": [{"atoms": ["p"]}, {"atoms": ["p", "q"]}, {"free_generators": 1}],
    "s.json": [
        {
            "rep": "perp",
            "entries": [{"value": "2", "idem": ["p"]}, {"value": "0", "idem": ["q"]}],
        },
        {"rep": "perp", "entries": [{"value": "-1/2", "idem": "1"}]},
        {
            "rep": "flat",
            "steps": [{"upto": "1", "idem": "1"}, {"upto": "3", "idem": ["p"]}],
        },
    ],
    "prox.json": [
        {"proximity": "leq"},
        {"proximity": {"pairs": [["0", "0"], ["0", "1"], ["1", "1"]]}},
        {"proximity": {"pairs": [["0", "0"], ["1", "1"]]}},
    ],
    "m.json": [
        {"source": _side(["p"]), "target": _side(["p"]), "map": {"0": "0", "1": "1"}},
        {
            "source": _side(["p", "q"]),
            "target": _side(["p"]),
            "map": {"0": "0", "[p]": "1", "[q]": "0", "1": "1"},
        },
        {
            "source": _side(["p", "q"]),
            "target": _side(["p", "q"]),
            "map": {"0": "0", "[p]": "[q]", "[q]": "[p]", "1": "1"},
        },
    ],
}
TEMPLATES["t.json"] = TEMPLATES["s.json"]
TEMPLATES["n.json"] = TEMPLATES["m.json"]
FILES = sorted(TEMPLATES) + ["missing.json", "broken.json"]


@st.composite
def documents(draw, name: str):
    """The file's template as it is, with one entry dropped or replaced, or noise."""
    choice = draw(st.integers(0, 5))
    if choice == 5:
        return draw(json_values)
    obj = json.loads(json.dumps(draw(st.sampled_from(TEMPLATES[name]))))
    if choice == 3:
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif choice == 4:
        obj[draw(st.sampled_from(sorted(obj)))] = draw(json_values)
    return obj


terms = st.recursive(
    st.sampled_from(["x_p", "x_q", "x_r", "0", "2", "1/3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join),
        st.tuples(st.sampled_from(["meet(", "join("]), inner, inner).map(
            lambda t: f"{t[0]}{t[1]},{t[2]})"
        ),
        st.tuples(inner, st.integers(0, 12)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda t: f"-({t})"),
    ),
    max_leaves=6,
)
exprs = st.one_of(terms, st.text(alphabet="x_pq0123()+-*^/, meetjoin", max_size=24))

# the arguments each subcommand expects, as lists of alternatives
SHAPES = {
    "normalize": [["--algebra", "alg.json", "--expr", "EXPR"]],
    "eval": [["--algebra", "alg.json", "--expr", "EXPR"]],
    "convert": [["--algebra", "alg.json", "s.json"]],
    "order": [["--algebra", "alg.json", "s.json", "t.json"]],
    "meet": [["--algebra", "alg.json", "s.json", "t.json"]],
    "join": [["--algebra", "alg.json", "s.json", "t.json"]],
    "check-devries": [["--algebra", "alg.json", "--proximity", "prox.json"]],
    "enumerate-devries": [["--algebra", "alg.json"]],
    "lift": [
        ["--algebra", "alg.json", "--proximity", "prox.json"],
        ["--algebra", "alg.json", "s.json", "t.json"],
        ["--morphism", "m.json"],
    ],
    "check-prox": [["--algebra", "alg.json", "--proximity", "prox.json"]],
    "check-morphism": [["--morphism", "m.json"]],
    "compose": [["m.json", "n.json"]],
    "equiv-check": [[], ["--algebra", "alg.json"]],
    "oracle-diff": [["--algebra", "alg.json"]],
}
OPTIONS = sorted({option for _, _, options in _COMMANDS.values() for option in options})

LONG = 5000
over_long_values = st.one_of(
    st.text(min_size=1, max_size=3).map(lambda unit: (unit * LONG)[:LONG]),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=3)).map(
        lambda t: t[0] + ("9" + t[1] * LONG)[:LONG]
    ),
)
over_long = st.one_of(
    over_long_values,
    st.tuples(st.sampled_from([*OPTIONS, "-h"]), over_long_values).map("=".join),
)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["bogus"]))
    argv = [command]
    extras = OPTIONS
    if command in SHAPES and draw(st.integers(0, 3)):
        argv += draw(st.sampled_from(SHAPES[command]))
        extras = _COMMANDS[command][2]
        if "--samples" in extras:
            argv += ["--samples", str(draw(st.integers(1, 3)))]
    for option in draw(st.lists(st.sampled_from([*extras, "file"]), max_size=3)):
        if option == "--json":
            argv.append(option)
        elif option in ("--samples", "--coeff-bound", "--seed"):
            argv += [option, str(draw(st.integers(-2, 3)))]
        elif option == "--expr":
            argv += [option, "EXPR"]
        elif option == "--domain":
            argv += [option, draw(st.sampled_from(["int", "fraction", "real"]))]
        elif option == "--proximity":
            argv += [option, draw(st.sampled_from(["leq", *FILES]))]
        elif option == "file":
            argv.append(draw(st.sampled_from(FILES)))
        else:
            argv += [option, draw(st.sampled_from(FILES))]
    argv = [draw(exprs) if arg == "EXPR" else arg for arg in argv]
    if draw(st.booleans()):
        # one over-long token, in place of an argument or between two
        at = draw(st.integers(0, len(argv)))
        argv[at : at + draw(st.integers(0, 1))] = [draw(over_long)]
    return argv


STDERR_BOUND = 300  # bytes in the one line a refusal prints


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _assert_refused_on_one_short_line(argv: list[str], err: str) -> None:
    shown = [arg if len(arg) <= 80 else f"<{len(arg)} characters>" for arg in argv]
    assert err.endswith("\n") and err.count("\n") == 1, (shown, err[:500])
    assert len(err.encode("utf-8")) <= STDERR_BOUND, (shown, err[:500])
    assert "set_int_max_str_digits" not in err, (shown, err[:500])


@settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(invocations(), st.fixed_dictionaries({n: documents(n) for n in TEMPLATES}))
def test_cli_exits_0_1_or_2_without_a_traceback(argv, docs):
    with tempfile.TemporaryDirectory() as directory:
        folder = Path(directory)
        for name, doc in docs.items():
            (folder / name).write_text(json.dumps(doc), encoding="utf-8")
        (folder / "broken.json").write_text("{not json", encoding="utf-8")
        argv = [str(folder / arg) if arg in FILES else arg for arg in argv]
        code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        _assert_refused_on_one_short_line(argv, err)


NINES = "9" * LONG
XS = "x" * LONG


# each printed a line of about 5 KB, or CPython's digit-limit line, before
@pytest.mark.parametrize(
    "argv",
    [
        ["check-prox", "--algebra", "alg.json", "--samples", NINES],
        ["check-prox", "--algebra", "alg.json", f"--coeff-bound={NINES}"],
        ["check-prox", "--algebra", "alg.json", "--samples", "-" + NINES[:4000]],
        ["check-prox", "--algebra", "alg.json", "--seed", NINES],
        [XS],
        ["check-prox", "--algebra", "alg.json", "--" + XS],
        ["oracle-diff", "--algebra", "alg.json", "--domain", XS],
        ["check-prox", "--algebra", "alg.json", f"--json={XS}"],
        ["check-prox", "--algebra", "alg.json", "-h" + XS],
        ["convert", "--algebra", "alg.json", "s.json", XS],
        ["check-prox", "--algebra", "d" * 300],
        ["check-prox", "--algebra", "missing/" * 40 + "alg.json"],
        ["check-prox", "--algebra", "nul\0" + XS],
    ],
    ids=[
        "samples", "coeff-bound=", "samples-below-1", "seed", "command", "option", "domain",
        "explicit-argument", "short-flag", "extra-positional", "long-file-name", "missing-path",
        "nul-in-path",
    ],
)  # fmt: skip
def test_an_over_long_argument_is_refused_on_one_short_line(tmp_path, monkeypatch, argv):
    (tmp_path / "alg.json").write_text(json.dumps(TEMPLATES["alg.json"][0]), encoding="utf-8")
    (tmp_path / "s.json").write_text(json.dumps(TEMPLATES["s.json"][0]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, err = _run(argv)
    assert code == 2
    _assert_refused_on_one_short_line(argv, err)
