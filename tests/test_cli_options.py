"""Each subcommand takes only the options its handler reads.

``cli._COMMANDS`` lists every subcommand's handler, positionals and
options, and the parser is built from it alone, so argparse exits 2 on an
option a subcommand would ignore.  The guard reads the source: the
``args.<name>`` reads of each handler, and of each helper it passes
``args`` to, must be the row of its table entry, apart from the options
in ``UNREAD``.
"""

from __future__ import annotations

import ast
import builtins
import json
from pathlib import Path

import pytest

from specker import cli

SOURCE = Path(cli.__file__).read_text(encoding="utf-8")

# (subcommand, option) pairs taken without being read, and why
UNREAD = {
    # --json is on every subcommand; oracle-diff prints JSON records either way
    ("oracle-diff", "--json"),
    # the verify benchmark appends --samples to every run and to its warm-up
    ("check-devries", "--samples"),
    ("lift", "--samples"),
    ("compose", "--samples"),
}


def _dest(option: str) -> str:
    return "as_json" if option == "--json" else option[2:].replace("-", "_")


def _functions(source: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(source)
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _reads(functions: dict[str, ast.FunctionDef], name: str) -> tuple[set[str], set[str]]:
    """``(args attributes read, helpers passed args)`` of ``name`` and those helpers."""
    reads: set[str] = set()
    helpers: set[str] = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = any(isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args)
            if passed and node.func.id in functions:
                inner_reads, inner_helpers = _reads(functions, node.func.id)
                reads |= inner_reads
                helpers |= inner_helpers | {node.func.id}
    return reads, helpers


def _handler_name(handler) -> str:
    return getattr(handler, "func", handler).__name__  # meet and join are partials


def test_each_subcommand_takes_the_options_its_handler_reads():
    functions = _functions(SOURCE)
    seen_helpers: set[str] = set()
    for name, (handler, positionals, options) in cli._COMMANDS.items():
        reads, helpers = _reads(functions, _handler_name(handler))
        seen_helpers |= helpers
        taken = {_dest(o) for o in options if (name, o) not in UNREAD}
        expected = taken | {p.rstrip("?") for p in positionals}
        assert reads - {"command"} == expected, name
    assert seen_helpers == {"_normalized_expr", "_the_morphism", "_print_sampled"}


def test_every_unread_option_is_taken_and_json_is_everywhere():
    for name, option in UNREAD:
        assert option in cli._COMMANDS[name][2]
    assert all("--json" in options for _, _, options in cli._COMMANDS.values())


def test_the_guard_sees_a_planted_read():
    planted = SOURCE.replace(
        "elem = _load_element(algebra, args.element)",
        "elem = _load_element(algebra, args.element or args.seed)",
    )
    assert planted != SOURCE
    reads, _ = _reads(_functions(planted), "_cmd_convert")
    assert "seed" in reads


# a run of each subcommand that exits 0 as it stands
WELL_FORMED = {
    "normalize": ["--algebra", "b2.json", "--expr", "x_x"],
    "eval": ["--algebra", "b2.json", "--expr", "x_x"],
    "convert": ["--algebra", "b2.json", "s.json"],
    "order": ["--algebra", "b2.json", "s.json", "s.json"],
    "meet": ["--algebra", "b2.json", "s.json", "s.json"],
    "join": ["--algebra", "b2.json", "s.json", "s.json"],
    "check-devries": ["--algebra", "b2.json"],
    "enumerate-devries": ["--algebra", "b2.json"],
    "lift": ["--algebra", "b2.json"],
    "check-prox": ["--algebra", "b2.json"],
    "check-morphism": ["--morphism", "id2.json"],
    "compose": ["id2.json", "id2.json"],
    "equiv-check": [],
    "oracle-diff": ["--algebra", "b2.json"],
}
VALUES = {
    "--algebra": ["b2.json"],
    "--proximity": ["leq2.json"],
    "--expr": ["x_x"],
    "--morphism": ["id2.json"],
    "--samples": ["5"],
    "--coeff-bound": ["3"],
    "--seed": ["1"],
    "--json": [],
    "--domain": ["fraction"],
}
OUTSIDE = [
    pytest.param([name, *WELL_FORMED[name], option, *VALUES[option]], id=f"{name}{option}")
    for name, (_, _, options) in cli._COMMANDS.items()
    for option in cli._OPTIONS
    if option not in options
]
# runs that exited 0 while they ignored every option shown
REPRODUCTIONS = [
    pytest.param(
        ["equiv-check", "--proximity", "no_such.json", "--morphism", "nope.json",
         "--coeff-bound", "3", "--expr", "x"],
        id="equiv-check-ignoring-four-options",
    ),
    pytest.param(
        ["order", "--algebra", "b4.json", "s4.json", "s4.json", "--morphism", "nope.json",
         "--samples", "5"],
        id="order-ignoring-two-options",
    ),
]  # fmt: skip
FILES = {
    "b2.json": {"atoms": ["x"]},
    "b4.json": {"atoms": ["p", "q"]},
    "s.json": {"rep": "perp", "entries": [{"value": "2", "idem": ["x"]}]},
    "s4.json": {"rep": "perp", "entries": [{"value": "2", "idem": ["p"]}]},
    "leq2.json": {"proximity": {"pairs": [["0", "0"], ["0", "1"], ["1", "1"]]}},
    "id2.json": {
        "source": {"algebra": {"atoms": ["x"]}, "proximity": "leq"},
        "target": {"algebra": {"atoms": ["x"]}, "proximity": "leq"},
        "map": {"0": "0", "1": "1"},
    },
}


def _write_files(directory: Path) -> None:
    for name, obj in FILES.items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")


def _paths(directory: Path, argv: list[str]) -> list[str]:
    return [str(directory / arg) if arg.endswith(".json") else arg for arg in argv]


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_each_well_formed_run_reaches_its_handler(tmp_path, capsys, name):
    _write_files(tmp_path)
    samples = ["--samples", "2"] if "--samples" in cli._COMMANDS[name][2] else []
    assert cli.run(_paths(tmp_path, [name, *WELL_FORMED[name], *samples])) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", OUTSIDE + REPRODUCTIONS)
def test_an_option_outside_the_table_exits_2_and_opens_no_file(
    tmp_path, capsys, monkeypatch, argv
):
    _write_files(tmp_path)
    argv = _paths(tmp_path, argv)
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    code = cli.run(argv)
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not [path for path in opened if path.startswith(str(tmp_path))]
