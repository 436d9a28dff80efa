"""Fuzzing the command line: small argv and JSON files, well-formed or not.

Every run must end with exit code 0, 1 or 2 and print no traceback; 2
covers every malformed invocation or input.  Each input file has a role
(algebra, element, proximity, morphism) and holds a well-formed document
for it, the same document with one entry dropped or replaced, or random
JSON.  Most invocations have the shape their subcommand expects, with
extra options mixed in; the rest are random.  Inputs stay small (at most
two atoms, at most three samples), so the examples run in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

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
OPTIONS = [
    "--algebra", "--proximity", "--expr", "--morphism", "--samples",
    "--coeff-bound", "--seed", "--json", "file",
]  # fmt: skip


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["bogus"]))
    argv = [command]
    if command in SHAPES and draw(st.integers(0, 3)):
        argv += draw(st.sampled_from(SHAPES[command]))
        argv += ["--samples", str(draw(st.integers(1, 3)))]
    for option in draw(st.lists(st.sampled_from(OPTIONS), max_size=3)):
        if option == "--json":
            argv.append(option)
        elif option in ("--samples", "--coeff-bound", "--seed"):
            argv += [option, str(draw(st.integers(-2, 3)))]
        elif option == "--expr":
            argv += [option, "EXPR"]
        elif option == "--proximity":
            argv += [option, draw(st.sampled_from(["leq", *FILES]))]
        elif option == "file":
            argv.append(draw(st.sampled_from(FILES)))
        else:
            argv += [option, draw(st.sampled_from(FILES))]
    return [draw(exprs) if arg == "EXPR" else arg for arg in argv]


@settings(max_examples=150, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(invocations(), st.fixed_dictionaries({n: documents(n) for n in TEMPLATES}))
def test_cli_exits_0_1_or_2_without_a_traceback(argv, docs):
    with tempfile.TemporaryDirectory() as directory:
        folder = Path(directory)
        for name, doc in docs.items():
            (folder / name).write_text(json.dumps(doc), encoding="utf-8")
        (folder / "broken.json").write_text("{not json", encoding="utf-8")
        argv = [str(folder / arg) if arg in FILES else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip(), argv
