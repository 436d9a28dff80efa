"""What a fresh process loads: ``import specker`` and each CLI subcommand.

``import specker`` loads the Specker-algebra core (``boolalg``,
``scalars``, ``orthogonal``, ``steps``) and serves the names of the other
layers on first use; each subcommand imports the layers it runs.  The
sampled suites draw their elements from the core, so only ``oracle-diff``
and ``eval`` load the oracle ``pointwise``.  None of them loads
``dataclasses`` or the ``inspect`` module it pulls in, which would add
about 20 ms to every start.  A handler that forgets such an import only
fails in a process that has not loaded the layer yet, and in-process
tests never are one (an earlier test has loaded every module), so these
tests run fresh child processes.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specker

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = {"specker.boolalg", "specker.scalars", "specker.orthogonal", "specker.steps"}
# modules no fresh process may load: the value types are plain classes
UNWANTED = {"dataclasses", "inspect"}

# subcommand argv -> (exit code, first stdout line, layers loaded beyond the core)
RUNS = {
    "normalize": (
        ["normalize", "--algebra", "b2.json", "--expr", "x_x + 1"], 0, "2·1", {"terms"}
    ),
    "eval": (
        ["eval", "--algebra", "b2.json", "--expr", "x_x + 1"],
        0,
        "x=2",
        {"terms", "pointwise"},
    ),
    "convert": (["convert", "--algebra", "b2.json", "s.json"], 0, "[1 | 2]", set()),
    "order": (["order", "--algebra", "b2.json", "s.json", "t.json"], 0, "LEQ", set()),
    "meet": (["meet", "--algebra", "b2.json", "s.json", "t.json"], 0, "2·1", set()),
    "join": (["join", "--algebra", "b2.json", "s.json", "t.json"], 0, "3·1", set()),
    "check-devries": (
        ["check-devries", "--algebra", "b2.json"], 0, "PASS (7 axioms)", {"proximity"}
    ),
    "enumerate-devries": (
        ["enumerate-devries", "--algebra", "b2.json"],
        0,
        "1 de Vries proximities",
        {"proximity"},
    ),
    "lift": (
        ["lift", "--algebra", "b2.json"],
        0,
        "lift restricts to 3 pairs; round-trip OK",
        {"proximity"},
    ),
    "check-prox": (
        ["check-prox", "--algebra", "b2.json", "--samples", "2"],
        0,
        "seed=0 samples=2 coeff-bound=10",
        {"proximity"},
    ),
    "check-morphism": (
        ["check-morphism", "--morphism", "id2.json", "--samples", "2"],
        0,
        "seed=0 samples=2 coeff-bound=10",
        {"proximity", "morphisms"},
    ),
    "compose": (
        ["compose", "id2.json", "id2.json"],
        0,
        "DVMorphism(0->0, 1->1)",
        {"proximity", "morphisms"},
    ),
    "equiv-check": (
        ["equiv-check", "--algebra", "b2.json", "--samples", "2"],
        0,
        "seed=0 samples=2",
        {"proximity", "morphisms"},
    ),
    "oracle-diff": (
        ["oracle-diff", "--algebra", "b2.json", "--samples", "2"],
        0,
        '{"op": "orth_add", "seed": 0, "case": 2, "status": "pass"}',
        {"pointwise"},
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cold")
    files = {
        "b2.json": {"atoms": ["x"]},
        "s.json": {"rep": "perp", "entries": [{"value": "2", "idem": ["x"]}]},
        "t.json": {"rep": "flat", "steps": [{"upto": "3", "idem": ["x"]}]},
        "id2.json": {
            "source": {"algebra": {"atoms": ["x"]}, "proximity": "leq"},
            "target": {"algebra": {"atoms": ["x"]}, "proximity": "leq"},
            "map": {"0": "0", "1": "1"},
        },
    }
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")
    return directory


def _python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8"),
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )


def _all_imported(importtime_log: str) -> set[str]:
    """Every module a ``-X importtime`` log shows imported."""
    return {line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines()}


def _imported(importtime_log: str) -> set[str]:
    """The ``specker`` modules a ``-X importtime`` log shows imported."""
    names = _all_imported(importtime_log)
    return {name for name in names if name.startswith("specker.")}


def test_every_subcommand_is_covered():
    from specker.cli import _COMMANDS

    assert set(RUNS) == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_subcommand_in_a_fresh_process(inputs, command):
    argv, code, first_line, layers = RUNS[command]
    done = _python(["-X", "importtime", "-m", "specker.cli", *argv], inputs)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[0] == first_line
    assert "Traceback" not in done.stderr
    # ``-m`` runs the CLI as ``__main__``, so it is not listed itself
    assert _imported(done.stderr) == CORE | {f"specker.{name}" for name in layers}
    assert not _all_imported(done.stderr) & UNWANTED


def test_import_specker_loads_the_core_only(inputs):
    done = _python(["-X", "importtime", "-c", "import specker"], inputs)
    assert done.returncode == 0, done.stderr
    assert _imported(done.stderr) == CORE
    assert not _all_imported(done.stderr) & UNWANTED


def test_check_devries_loads_no_morphisms_oracle_or_terms(inputs):
    loaded = _python(
        [
            "-c",
            "import json, sys; from specker.cli import run; "
            "run(['check-devries', '--algebra', 'b2.json']); "
            "print(json.dumps([m for m in sys.modules if m.startswith('specker.')]))",
        ],
        inputs,
    )
    assert loaded.returncode == 0, loaded.stderr
    modules = set(json.loads(loaded.stdout.splitlines()[-1]))
    assert modules == CORE | {"specker.cli", "specker.proximity"}


def test_exported_names_resolve():
    assert len(specker.__all__) == 86
    assert set(specker.__all__) <= set(dir(specker))
    for name in specker.__all__:
        module = specker._LAZY.get(name)
        expected = (
            vars(specker)[name]
            if module is None
            else getattr(importlib.import_module(f"specker.{module}"), name)
        )
        assert getattr(specker, name) is expected, name
        namespace: dict = {}
        exec(f"from specker import {name}", namespace)
        assert namespace[name] is expected, name
    with pytest.raises(AttributeError):
        specker.no_such_name  # noqa: B018


def test_lazy_names_follow_their_module(monkeypatch):
    """Each access reads the submodule, so patching it is seen through the package."""
    from specker import proximity

    def replacement(rel):
        return rel

    assert specker.check_devries is proximity.check_devries
    monkeypatch.setattr(proximity, "check_devries", replacement)
    assert specker.check_devries is replacement
    assert "check_devries" not in vars(specker)
