"""A run builds only its own subcommand's parser, and prints what the full one does.

``cli.run`` builds the subparser that ``argv[0]`` names, when it names
one, and all 14 otherwise.  Each help text and each argument error below
must come out byte for byte as from a run forced through the full
parser, which is ``cli._build_parser(())``.
"""

from __future__ import annotations

import argparse

import pytest

from specker import cli

NAMES = list(cli._COMMANDS)


def _argument_errors(name: str) -> list[list[str]]:
    """The argument errors of ``name`` that the option and fuzz tests raise."""
    _, positionals, options = cli._COMMANDS[name]
    outside = next(option for option in cli._OPTIONS if option not in options)
    argvs = [[name, "--no-such-option"], [name, outside, "1"], [name, "--json", "extra", "x"]]
    if any(not p.endswith("?") for p in positionals):
        argvs.append([name])  # a missing positional
    for option in ("--samples", "--coeff-bound", "--seed"):
        if option in options:
            argvs.append([name, option, "x"])  # not an int
    if "--algebra" in options:
        argvs.append([name, "--algebra"])  # an option without its value
    return argvs


RUNS = [
    *([name, flag] for name in NAMES for flag in ("--help", "-h")),
    *(argv for name in NAMES for argv in _argument_errors(name)),
    ["check-prox", "--json", "--help"],
]


def _output(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_own_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    own = _output(capsys, argv)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: full(()))
    assert own == _output(capsys, argv)
    code, out, err = own
    if code == 0:
        assert out.startswith(f"usage: specker {argv[0]} ") and not err
    else:
        assert code == 2 and not out and err.startswith("error: ")


@pytest.fixture
def parsers_built(monkeypatch):
    """The names of the subparsers built, in order."""
    built: list[str] = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return built


@pytest.mark.parametrize("name", NAMES)
def test_a_known_subcommand_builds_one_subparser(capsys, parsers_built, name):
    assert cli.run([name, "--help"]) == 0
    assert parsers_built == [name]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["nosuch"], ["--json", "order"]])
def test_any_other_run_builds_all_subparsers(capsys, parsers_built, argv):
    cli.run(argv)
    assert parsers_built == NAMES
    out = capsys.readouterr()
    if argv[:1] in (["--help"], ["-h"]):
        assert "{" + ",".join(NAMES) + "}" in out.out
