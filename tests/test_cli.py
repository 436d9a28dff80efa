import ast
import io
import json
import os
import sys
from pathlib import Path

import pytest

from helpers import capped, leq_pairs, within
from specker.boolalg import make_algebra
from specker.cli import _about, run


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return {
        "b4": write("b4.json", {"atoms": ["p", "q"]}),
        "b2": write("b2.json", {"atoms": ["x"]}),
        "s": write(
            "s.json",
            {
                "rep": "perp",
                "entries": [
                    {"value": "2", "idem": ["p"]},
                    {"value": "0", "idem": ["q"]},
                ],
            },
        ),
        "t": write(
            "t.json",
            {
                "rep": "perp",
                "entries": [
                    {"value": "3", "idem": ["p"]},
                    {"value": "1", "idem": ["q"]},
                ],
            },
        ),
        "t_flat": write(
            "t_flat.json",
            {
                "rep": "flat",
                "steps": [
                    {"upto": "1", "idem": "1"},
                    {"upto": "3", "idem": ["p"]},
                ],
            },
        ),
        "bad_prox": write(
            "bad_prox.json", {"proximity": {"pairs": [["0", "0"], ["1", "1"]]}}
        ),
        "at_p": write(
            "at_p.json",
            {
                "source": {"algebra": {"atoms": ["p", "q"]}, "proximity": "leq"},
                "target": {"algebra": {"atoms": ["x"]}, "proximity": "leq"},
                "map": {"0": "0", "[p]": "1", "[q]": "0", "1": "1"},
            },
        ),
        "id4": write(
            "id4.json",
            {
                "source": {"algebra": {"atoms": ["p", "q"]}, "proximity": "leq"},
                "target": {"algebra": {"atoms": ["p", "q"]}, "proximity": "leq"},
                "map": {"0": "0", "[p]": "[p]", "[q]": "[q]", "1": "1"},
            },
        ),
        "dir": tmp_path,
    }


def test_normalize_example(files, capsys):
    code = run(
        ["normalize", "--algebra", files["b4"], "--expr", "x_p*x_p + 3*x_q - x_p"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "3·[q] + 0·[p]"


def test_order_example(files, capsys):
    assert run(["order", "--algebra", files["b4"], files["s"], files["t"]]) == 0
    assert capsys.readouterr().out.strip() == "LEQ"
    assert run(["order", "--algebra", files["b4"], files["t"], files["s"]]) == 0
    assert capsys.readouterr().out.strip() == "GEQ"
    assert run(["order", "--algebra", files["b4"], files["s"], files["s"]]) == 0
    assert capsys.readouterr().out.strip() == "EQ"


def test_check_devries_pass(files, capsys):
    code = run(["check-devries", "--algebra", files["b4"], "--proximity", "leq"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "PASS (7 axioms)"


def test_check_devries_fail_exit_code(files, capsys):
    code = run(
        ["check-devries", "--algebra", files["b2"], "--proximity", files["bad_prox"]]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_2(files, capsys):
    assert run(["normalize", "--algebra", files["b4"], "--expr", "x_p ^"]) == 2
    assert run(["normalize", "--algebra", "missing.json", "--expr", "1"]) == 2
    assert run(["normalize", "--algebra", files["b4"]]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["normalize", "--algebra", files["b4"], "--expr", "x_zzz"]) == 2
    capsys.readouterr()


def test_deep_term_is_a_one_line_syntax_error(files, capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    assert run(["normalize", "--algebra", files["b4"], "--expr", deep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "syntax error: term nested deeper than 100 levels at position 100\n"


def test_huge_exponent_is_a_one_line_syntax_error(files, capsys):
    with within(1.0):
        code = run(["normalize", "--algebra", files["b4"], "--expr", "(x_p+2)^2000000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "syntax error: exponent larger than 1000 at position 8\n"


LONG = "z" * 6000


@pytest.mark.parametrize(
    "expr, line",
    [
        ("x_" + LONG, "error: unbound generator name: a str of length 6002"),
        ("x_p ^ 9" + LONG, "syntax error: unexpected token a str of length 6000 at position 7"),
        ("(x_p " + LONG, "syntax error: expected ')' at position 5"),
    ],
    ids=["unbound", "unexpected", "expected"],
)
def test_a_long_token_is_quoted_in_one_short_line(files, capsys, expr, line):
    assert run(["normalize", "--algebra", files["b4"], "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err) <= 200
    assert captured.err == line + "\n"


WIDE = "7" * 5000  # a literal past the 4,300-digit scalar bound
OVER = "error: scalar over the bound of 4300 digits"


@pytest.mark.parametrize(
    "argv, line",
    [
        # 99999^1000 has 5,000 digits
        (["normalize", "--expr", "(99999*x_p)^1000"], OVER),
        (["normalize", "--json", "--expr", "(99999*x_p)^1000"], OVER),
        (["eval", "--expr", "(99999*x_p)^1000"], OVER),
        (
            ["normalize", "--expr", WIDE],
            "syntax error: scalar literal over the bound of 4300 digits at position 0",
        ),
    ],
    ids=["normalize", "normalize-json", "eval", "literal"],
)
def test_a_scalar_past_the_digit_bound_is_refused_in_one_line(files, capsys, argv, line):
    assert run([*argv, "--algebra", files["b4"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert "set_int_max_str_digits" not in captured.err


def test_an_element_file_past_the_digit_bound_is_refused_in_one_line(files, capsys):
    path = files["dir"] / "wide.json"
    path.write_text(json.dumps({"rep": "flat", "steps": [{"upto": WIDE, "idem": "1"}]}))
    assert run(["convert", "--algebra", files["b4"], str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: scalar literal over the bound of 4300 digits\n"


@pytest.mark.parametrize(
    "text",
    ['{"atoms": ["p"], "n": %s}' % ("9" * 5000), '{"free_generators": %s}' % WIDE],
    ids=["unread-key", "free-generators"],
)
def test_an_integer_past_the_digit_bound_in_a_json_file_is_refused_in_one_line(
    files, capsys, text
):
    # the decoder itself meets CPython's int-to-string limit: the line names
    # the file and the bound, not CPython's hint
    path = files["dir"] / "big.json"
    path.write_text(text, encoding="utf-8")
    assert run(["check-devries", "--algebra", str(path)]) == 2
    assert _one_line_error(capsys) == f"error: {path}: integer over the bound of 4300 digits"


def test_a_json_file_that_is_not_utf8_is_refused_in_one_line(files, capsys):
    path = files["dir"] / "latin1.json"
    path.write_bytes(b'{"atoms": ["\xff"]}')
    assert run(["check-devries", "--algebra", str(path)]) == 2
    assert _one_line_error(capsys) == f"error: {path} is not UTF-8 text"


def test_a_scalar_within_the_digit_bound_prints_and_reloads(files, capsys):
    # 99999^800 has 4,000 digits
    argv = ["normalize", "--algebra", files["b4"], "--expr", "(99999*x_p)^800"]
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == f"{99999**800}·[p] + 0·[q]"
    assert run([*argv, "--json"]) == 0
    path = files["dir"] / "wide.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["convert", "--algebra", files["b4"], str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rep"] == "flat"


def test_convert_round_trip(files, capsys):
    assert run(["convert", "--algebra", files["b4"], files["s"], "--json"]) == 0
    flat = json.loads(capsys.readouterr().out)
    assert flat["rep"] == "flat"
    path = files["dir"] / "s_flat.json"
    path.write_text(json.dumps(flat), encoding="utf-8")
    assert run(["convert", "--algebra", files["b4"], str(path), "--json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == {
        "rep": "perp",
        "entries": [
            {"value": "2", "idem": ["p"]},
            {"value": "0", "idem": ["q"]},
        ],
    }


def test_meet_join_mixed_representations(files, capsys):
    assert run(["meet", "--algebra", files["b4"], files["s"], files["t_flat"]]) == 0
    assert capsys.readouterr().out.strip() == "2·[p] + 0·[q]"
    assert run(["join", "--algebra", files["b4"], files["t_flat"], files["s"]]) == 0
    assert capsys.readouterr().out.strip() == "[1 | 1] [p | 3]"


def test_meet_json_reloads(files, capsys):
    assert run(
        ["meet", "--algebra", files["b4"], files["s"], files["t"], "--json"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    path = files["dir"] / "meet.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["order", "--algebra", files["b4"], str(path), files["s"]]) == 0
    assert capsys.readouterr().out.strip() == "EQ"


def test_eval_prints_atom_values(files, capsys):
    assert run(["eval", "--algebra", files["b4"], "--expr", "x_p + x_q"]) == 0
    assert capsys.readouterr().out.strip() == "p=1 q=1"


# argparse reads a space-free token that starts with "-" and is no number as
# an option; after an option that takes a value, one that names no option
# is that value
@pytest.mark.parametrize(
    "command, expr, out",
    [
        ("eval", "-x_p", "p=-1 q=0"),
        ("normalize", "-x_q", "0·[p] + -1·[q]"),
        ("eval", "-2*x_p", "p=-2 q=0"),
        ("eval", "-meet(x_p,x_q)", "p=0 q=0"),
        ("eval", "--x_p", "p=1 q=0"),
        ("eval", "-1", "p=-1 q=-1"),
        ("eval", "-x_p + 1", "p=0 q=1"),
    ],
    ids=["atom", "normalize", "product", "meet", "double", "number", "spaced"],
)
def test_a_term_with_a_leading_minus_is_the_value_of_expr(files, capsys, command, expr, out):
    assert run([command, "--algebra", files["b4"], "--expr", expr]) == 0
    assert capsys.readouterr().out.strip() == out
    assert run([command, "--algebra", files["b4"], f"--expr={expr}"]) == 0
    assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("token", ["--json", "--js", "--algebra", "-h", "--"])
def test_an_option_after_expr_leaves_expr_without_a_value(files, capsys, token):
    assert run(["eval", "--algebra", files["b4"], "--expr", token]) == 2
    assert _one_line_error(capsys) == "error: argument --expr: expected one argument"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check-prox", "--algebra", "B4", "--seed", "-x"],
         "error: argument --seed: invalid int value: '-x'"),
        (["check-prox", "--algebra", "B4", "--samples", "-2"],
         "error: --samples must be at least 1, got -2"),
        (["oracle-diff", "--algebra", "B4", "--domain", "-int"],
         "error: argument --domain: invalid choice: '-int' (choose from "),
        (["check-morphism", "--morphism", "-m.json"],
         "error: cannot read '-m.json': No such file or directory"),
    ],
    ids=["seed", "samples", "domain", "morphism"],
)  # fmt: skip
def test_every_option_that_takes_a_value_takes_a_leading_minus(files, capsys, argv, line):
    assert run([files["b4"] if arg == "B4" else arg for arg in argv]) == 2
    # how argparse lists the choices differs between Python versions
    assert _one_line_error(capsys).startswith(line)


def test_lift_element_check(files, capsys):
    assert run(
        ["lift", "--algebra", files["b4"], "--proximity", "leq", files["s"], files["t"]]
    ) == 0
    assert capsys.readouterr().out.strip() == "RELATED"
    assert run(
        ["lift", "--algebra", files["b4"], "--proximity", "leq", files["t"], files["s"]]
    ) == 0
    assert capsys.readouterr().out.strip() == "NOT RELATED"


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--algebra", "b4", "s"],
        ["lift", "--morphism", "at_p", "s"],
        ["lift", "--morphism", "at_p", "s", "t"],
    ],
    ids=["one-element", "morphism-one-element", "morphism-two-elements"],
)
def test_lift_refuses_element_files_it_would_drop(files, capsys, argv):
    # an option's value or a positional names a fixture file
    argv = [files.get(word, word) for word in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: lift takes two element files or none, and none with --morphism\n"
    )


@pytest.mark.parametrize("command", ["check-morphism", "lift"])
def test_second_morphism_is_usage_error(files, capsys, command):
    # not checked and not lifted: a usage error, not a PASS on the first file
    assert run([command, "--morphism", files["id4"], "--morphism", files["at_p"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} takes one --morphism\n"


def test_lift_morphism_json_reloads(files, capsys):
    assert run(["lift", "--morphism", files["at_p"], "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["map"] == {"0": "0", "[p]": "1", "[q]": "0", "1": "1"}


def test_enumerate_devries_json_reloads(files, capsys):
    assert run(["enumerate-devries", "--algebra", files["b2"], "--json"]) == 0
    relations = json.loads(capsys.readouterr().out)
    assert len(relations) == 1
    path = files["dir"] / "prox.json"
    path.write_text(json.dumps(relations[0]), encoding="utf-8")
    assert run(["check-devries", "--algebra", files["b2"], "--proximity", str(path)]) == 0
    capsys.readouterr()


def test_check_prox_and_morphism(files, capsys):
    assert run(
        [
            "check-prox",
            "--algebra",
            files["b4"],
            "--proximity",
            "leq",
            "--samples",
            "40",
            "--coeff-bound",
            "5",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "PASS (10 axioms)" in out
    assert "seed=0" in out

    assert run(
        ["check-morphism", "--morphism", files["at_p"], "--samples", "40"]
    ) == 0
    assert "PASS (7 axioms)" in capsys.readouterr().out


def test_check_prox_checks_devries_once(files, capsys, monkeypatch):
    from specker import proximity

    checked = []
    original = proximity.check_devries

    def counted(rel, *args, **kwargs):
        checked.append(rel)
        return original(rel, *args, **kwargs)

    monkeypatch.setattr(proximity, "check_devries", counted)
    proximity._devries_ok.cache_clear()
    # the gate passes <= by the theorem: D1-D7 do not run
    args = ["check-prox", "--algebra", files["b4"], "--samples", "5"]
    assert run(args) == 0
    assert "PASS (10 axioms)" in capsys.readouterr().out
    assert checked == []
    # a refused relation runs them once, for the report that says why
    args = ["check-prox", "--algebra", files["b2"], "--proximity", files["bad_prox"]]
    assert run(args) == 1
    assert capsys.readouterr().out.startswith("FAIL (D")
    assert len(checked) == 1


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so that each call appends its arguments to the list returned."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_check_morphism_asks_the_gate_once(files, capsys, monkeypatch):
    from specker import morphisms

    gated = _count_calls(monkeypatch, morphisms, "_dv_ok")
    checked = _count_calls(monkeypatch, morphisms, "check_dv_morphism")
    assert run(["check-morphism", "--morphism", files["id4"], "--samples", "5"]) == 0
    assert "PASS (7 axioms)" in capsys.readouterr().out
    # one verdict, from the theorem; M1-M4 run only for a refusal's report
    assert len(gated) == 1
    assert checked == []


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_check_morphism_prints_why_an_endpoint_is_not_de_vries(files, capsys, side, as_json):
    # M1-M4 pass on the identity, but the suite needs de Vries endpoints:
    # the refused endpoint's D-report is printed, as check-prox prints it
    pairs = {
        "source": [["0", "0"], ["1", "1"]],  # D3 fails
        "target": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],  # D2 fails
    }
    sides = {s: {"algebra": {"atoms": ["x"]}, "proximity": "leq"} for s in ("source", "target")}
    sides[side]["proximity"] = {"pairs": pairs[side]}
    path = files["dir"] / "not_devries.json"
    path.write_text(json.dumps({**sides, "map": {"0": "0", "1": "1"}}), encoding="utf-8")
    prox = files["dir"] / "prox.json"
    prox.write_text(json.dumps({"proximity": {"pairs": pairs[side]}}), encoding="utf-8")

    assert run(["check-morphism", "--morphism", str(path), "--samples", "5", *as_json]) == 1
    out = capsys.readouterr().out
    assert out.startswith('{"subject": "de Vries axioms"' if as_json else "FAIL (D")
    assert run(["check-prox", "--algebra", files["b2"], "--proximity", str(prox), *as_json]) == 1
    assert capsys.readouterr().out == out


def test_equiv_check_checks_each_hom_once(capsys, monkeypatch):
    from specker import morphisms

    gated = _count_calls(monkeypatch, morphisms, "_dv_ok")
    checked = _count_calls(monkeypatch, morphisms, "check_dv_morphism")
    assert run(["equiv-check"]) == 0
    out = capsys.readouterr().out
    # the 8 homs between the default algebras on 1 and 2 atoms, one
    # verdict each; M1-M4 run only for a refusal's report
    assert out.count(": PASS (2 axioms)") == len(gated) == 8
    assert checked == []


def _one_atom_morphism(files, name, source="leq", target="leq", image_of_1="1") -> str:
    """A one-atom morphism file: the identity, or with ``1 -> 0`` no hom."""
    sides = {side: {"algebra": {"atoms": ["x"]}, "proximity": prox}
             for side, prox in (("source", source), ("target", target))}
    path = files["dir"] / name
    path.write_text(
        json.dumps({**sides, "map": {"0": "0", "1": image_of_1}}), encoding="utf-8"
    )
    return str(path)


REFUSED = {
    "source not de Vries": {"source": {"pairs": [["0", "0"], ["1", "1"]]}},  # D3
    "target not de Vries": {
        "target": {"pairs": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]}  # D2
    },
    "not a hom": {"image_of_1": "0"},  # M3
}


@pytest.mark.parametrize("case", sorted(REFUSED))
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_lift_and_compose_print_the_refusal_check_morphism_prints(
    files, capsys, case, as_json
):
    bad = _one_atom_morphism(files, "bad.json", **REFUSED[case])
    good = _one_atom_morphism(files, "good.json")
    assert run(["check-morphism", "--morphism", bad, *as_json]) == 1
    expected = capsys.readouterr().out
    assert expected.startswith('{"subject": "de Vries' if as_json else "FAIL (")
    # compose refuses either operand, whichever position it takes
    for argv in (["lift", "--morphism", bad], ["compose", bad, good], ["compose", good, bad]):
        assert run([*argv, *as_json]) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, ""), argv


@pytest.mark.parametrize("elements", [[], ["s", "t"]], ids=["restrict", "two-elements"])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_lift_prints_why_a_relation_is_not_de_vries(files, capsys, elements, as_json):
    # the diagonal {(e, e)} fails D3: lift refuses it with the D1-D7 report
    # and exit 1, as check-devries and check-prox print it
    prox = files["dir"] / "diagonal.json"
    diagonal = [[e, e] for e in ("0", "[p]", "[q]", "1")]
    prox.write_text(json.dumps({"proximity": {"pairs": diagonal}}), encoding="utf-8")
    common = ["--algebra", files["b4"], "--proximity", str(prox), *as_json]
    assert run(["check-devries", *common]) == 1
    expected = capsys.readouterr().out
    assert expected.startswith('{"subject": "de Vries axioms"' if as_json else "FAIL (D")
    for argv in (["check-prox", *common], ["lift", *common, *map(files.get, elements)]):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, ""), argv


def _six_atom_identity(files, drop=None, hom=True) -> str:
    """The identity on ``<=`` over 6 atoms, or on ``<=`` without the pair
    ``drop``; unless ``hom``, its table sends an atom to 0 (M2-M4 fail)."""
    from specker.morphisms import DVMorphism, morphism_to_json
    from specker.proximity import ProxRel, leq_proximity

    algebra = make_algebra([f"a{i}" for i in range(6)])
    rel = leq_proximity(algebra)
    if drop is not None:
        rel = ProxRel(algebra, leq_pairs(algebra) - {drop})
    path = files["dir"] / "six.json"
    table = list(range(algebra.size))
    if not hom:
        table[1] = 0
    m = DVMorphism(rel, rel, tuple(table))
    path.write_text(json.dumps(morphism_to_json(m)), encoding="utf-8")
    return str(path)


BOUND_ERROR = "error: algebra with 64 elements exceeds the exhaustive bound of 32"


def test_check_morphism_lift_and_compose_take_the_six_atom_identity(files, capsys):
    # over the exhaustive bound, but no walk is exhaustive: the gate is the
    # theorem, and the sampled suite draws from <= by its definition
    six = _six_atom_identity(files)
    with within(2):
        assert run(["check-morphism", "--morphism", six]) == 0
    assert capsys.readouterr().out == "seed=0 samples=200 coeff-bound=10\nPASS (7 axioms)\n"
    assert run(["lift", "--morphism", six]) == 0
    assert capsys.readouterr().out == "lifted morphism; restriction round-trip OK\n"
    assert run(["compose", six, six, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(Path(six).read_text())


def _refused_over_the_bound(files, capsys, monkeypatch, hom):
    """Each command refuses the 6-atom morphism with a refused endpoint
    with the bound's line, and runs no M1-M4."""
    from specker import morphisms

    checked = _count_calls(monkeypatch, morphisms, "check_dv_morphism")
    six = _six_atom_identity(files, drop=(0, 63), hom=hom)
    for argv in (["check-morphism", "--morphism", six], ["lift", "--morphism", six],
                 ["compose", six, six]):
        assert run(argv) == 2, argv
        assert _one_line_error(capsys) == BOUND_ERROR
    assert checked == []


def test_a_refused_endpoint_over_the_bound_is_the_bound_error(files, capsys, monkeypatch):
    # M1-M4 pass on the identity; D1-D7 would print why the relation is
    # refused, but take no algebra over the bound, so M1-M4 (size^2
    # cases) do not run first
    _refused_over_the_bound(files, capsys, monkeypatch, hom=True)


def test_a_refused_endpoint_over_the_bound_outranks_failing_m1_m4(files, capsys, monkeypatch):
    # the bound's error, not the M1-M4 report, which would take size^2 cases
    _refused_over_the_bound(files, capsys, monkeypatch, hom=False)


def test_failing_m1_m4_over_the_bound_is_the_bound_error(files, capsys):
    # both sides are <=, so the gate refuses only the table, in
    # O(size * atoms); M1-M4 (size^2 cases) take no source over the bound
    six = _six_atom_identity(files, hom=False)
    for argv in (["check-morphism", "--morphism", six], ["lift", "--morphism", six],
                 ["compose", six, six]):
        assert run(argv) == 2, argv
        assert _one_line_error(capsys) == BOUND_ERROR


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_equiv_check_refuses_an_algebra_over_the_bound_before_any_output(
    files, capsys, as_json
):
    path = files["dir"] / "b64.json"
    path.write_text(json.dumps({"atoms": [f"a{i}" for i in range(6)]}), encoding="utf-8")
    assert run(["equiv-check", "--algebra", str(path), *as_json]) == 2
    assert _one_line_error(capsys) == BOUND_ERROR


def test_equiv_check_restricts_each_relation_once(capsys, monkeypatch):
    from specker import morphisms

    restricted = []
    original = morphisms.restrict_lift

    def counted(rel):
        restricted.append(rel)
        return original(rel)

    monkeypatch.setattr(morphisms, "restrict_lift", counted)
    assert run(["equiv-check"]) == 0
    out = capsys.readouterr().out
    # the two printed round trips, one per default algebra; the naturality
    # squares restrict nothing
    assert out.count("round-trip OK") == len(restricted) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-devries"],
        ["lift"],
        ["equiv-check"],
        ["enumerate-devries"],
    ],
    ids=lambda argv: argv[0],
)
def test_sixteen_atoms_are_refused_before_leq_is_built(files, capsys, argv):
    # each walks every pair or element: D1-D7, the restriction of the lift
    # (4^n ``step_leq`` calls), and the enumeration
    path = files["dir"] / "b16.json"
    path.write_text(json.dumps({"atoms": [f"a{i}" for i in range(16)]}), encoding="utf-8")
    with within(1):
        code = run([*argv, "--algebra", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "error: algebra with 65536 elements exceeds the exhaustive bound of 32\n"
    # equiv-check too prints nothing before the bound is checked
    assert out == ""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check-prox"], "seed=0 samples=200 coeff-bound=10\nPASS (10 axioms)\n"),
        (["lift", "low.json", "high.json"], "RELATED\n"),
        (["lift", "high.json", "low.json"], "NOT RELATED\n"),
    ],
    ids=["check-prox", "lift-related", "lift-not-related"],
)
def test_sixteen_atoms_give_a_verdict_where_no_walk_is_exhaustive(files, capsys, argv, expected):
    # <= is read by its definition, so the sampled suite and the lift of two
    # elements run at any size
    directory = files["dir"]
    (directory / "b16.json").write_text(
        json.dumps({"atoms": [f"a{i}" for i in range(16)]}), encoding="utf-8"
    )
    for name, value, idem in (("low.json", "1", ["a0"]), ("high.json", "2", ["a0", "a1"])):
        element = {"rep": "perp", "entries": [{"value": value, "idem": idem}]}
        (directory / name).write_text(json.dumps(element), encoding="utf-8")
    command, *elements = argv
    with within(2), capped():
        code = run([command, "--algebra", str(directory / "b16.json"),
                    *(str(directory / name) for name in elements)])
    assert (code, *capsys.readouterr()) == (0, expected, "")


def test_enumerate_devries_prints_leq_within_the_bound(files, capsys):
    path = files["dir"] / "b8.json"
    path.write_text(json.dumps({"atoms": ["p", "q", "r"]}), encoding="utf-8")
    assert run(["enumerate-devries", "--algebra", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 de Vries proximities" and len(out) == 2
    assert len(json.loads(out[1])["proximity"]["pairs"]) == 27


def test_compose_json_reloads(files, capsys):
    assert run(["compose", files["at_p"], files["id4"], "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["map"] == {"0": "0", "[p]": "1", "[q]": "0", "1": "1"}
    path = files["dir"] / "composed.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["check-morphism", "--morphism", str(path), "--samples", "10"]) == 0
    capsys.readouterr()


def test_compose_endpoint_mismatch_is_usage_error(files, capsys):
    assert run(["compose", files["at_p"], files["at_p"]]) == 2
    assert _one_line_error(capsys) == "error: morphism endpoints do not match"


def test_compose_reads_lifted_morphism_into_a_free_algebra(files, capsys):
    # the lifted morphism's JSON names its free target by its generators,
    # so it composes where the original file does
    free = {"algebra": {"free_generators": 1}, "proximity": "leq"}
    inner = files["dir"] / "inner.json"
    inner.write_text(
        json.dumps(
            {
                "source": {"algebra": {"atoms": ["p", "q"]}},
                "target": free,
                "map": {"0": "0", "[p]": "[m0]", "[q]": "[m1]", "1": "1"},
            }
        ),
        encoding="utf-8",
    )
    outer = files["dir"] / "outer.json"
    outer.write_text(
        json.dumps(
            {
                "source": free,
                "target": {"algebra": {"atoms": ["x"]}},
                "map": {"0": "0", "[m0]": "1", "[m1]": "0", "1": "1"},
            }
        ),
        encoding="utf-8",
    )
    assert run(["compose", str(outer), str(inner)]) == 0
    direct = capsys.readouterr().out
    assert run(["lift", "--morphism", str(inner), "--json"]) == 0
    lifted_json = json.loads(capsys.readouterr().out)
    assert lifted_json["target"]["algebra"] == {"free_generators": 1}
    lifted = files["dir"] / "lifted.json"
    lifted.write_text(json.dumps(lifted_json), encoding="utf-8")
    assert run(["compose", str(outer), str(lifted)]) == 0
    assert capsys.readouterr().out == direct


@pytest.mark.parametrize(
    "entries",
    [
        [("[p,q]", "0"), ("1", "1")],
        [("1", "1"), ("[q,p]", "0")],
        [("[p]", "[p]"), ("[ p ]", "[p]")],
    ],
)
def test_morphism_map_naming_an_element_twice_is_usage_error(files, capsys, entries):
    # whichever key came last used to win, so the verdict hung on key order
    table = {"0": "0", "[p]": "[p]", "[q]": "[q]"}
    table.update(entries)
    path = files["dir"] / "twice.json"
    obj = {
        "source": {"algebra": {"atoms": ["p", "q"]}},
        "target": {"algebra": {"atoms": ["p", "q"]}},
        "map": table,
    }
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["check-morphism", "--morphism", str(path)]) == 2
    first, second = (key for key in table if key in dict(entries))
    assert _one_line_error(capsys) == (
        f"error: morphism map names one source element twice: {first!r} and {second!r}"
    )


def test_oracle_diff_jsonl(files, capsys):
    assert run(
        [
            "oracle-diff",
            "--algebra",
            files["b4"],
            "--samples",
            "20",
            "--coeff-bound",
            "5",
            "--seed",
            "3",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines:
        record = json.loads(line)
        assert record["status"] == "pass"
        assert record["seed"] == 3


def test_equiv_check(files, capsys):
    assert run(["equiv-check", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "round-trip OK" in out
    assert "PASS" in out


@pytest.mark.parametrize(
    "left, right, order",
    [("s", "t", "LEQ"), ("t", "s", "GEQ"), ("t", "t_flat", "EQ"), ("s", "apart", "INCOMPARABLE")],
)
def test_order_json(files, capsys, left, right, order):
    apart = {"rep": "perp", "entries": [{"value": "5", "idem": ["q"]}, {"value": "0", "idem": ["p"]}]}
    (files["dir"] / "apart.json").write_text(json.dumps(apart), encoding="utf-8")
    files["apart"] = str(files["dir"] / "apart.json")
    argv = ["order", "--algebra", files["b4"], files[left], files[right]]
    assert run(argv) == 0
    assert capsys.readouterr().out == f"{order}\n"
    assert run([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"order": order}


def test_lift_element_check_json(files, capsys):
    argv = ["lift", "--algebra", files["b4"], "--json"]
    assert run([*argv, files["s"], files["t"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"related": True}
    assert run([*argv, files["t"], files["s"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"related": False}


def test_equiv_check_json(files, capsys, monkeypatch):
    from specker import morphisms

    argv = ["equiv-check", "--algebra", files["b4"], "--samples", "4", "--seed", "3"]
    assert run([*argv, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["seed", "samples", "round_trips", "homs", "ok"]
    assert (out["seed"], out["samples"], out["ok"]) == (3, 4, True)
    assert out["round_trips"] == [{"atoms": ["p", "q"], "ok": True}]
    # the four homs b4 -> b4, each with both squares
    assert [hom["index"] for hom in out["homs"]] == [0, 1, 2, 3]
    for hom in out["homs"]:
        assert hom["source"] == hom["target"] == ["p", "q"]
        report = hom["report"]
        assert report["ok"] and [a["name"] for a in report["axioms"]] == [
            "tau-square",
            "eta-square",
        ]

    monkeypatch.setattr(morphisms, "functor_id", lambda rel: None)
    assert run([*argv, "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["round_trips"] == [{"atoms": ["p", "q"], "ok": False}]
    assert out["ok"] is False


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: ``write`` or ``flush`` raises."""

    def __init__(self, fd: int, raises: str) -> None:
        super().__init__()
        self.fd, self.raises = fd, raises

    def write(self, text: str) -> int:
        if self.raises == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self) -> None:
        if self.raises == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("raises", ["write", "flush"])
def test_closed_pipe_exits_141_without_a_traceback(tmp_path, capsys, monkeypatch, raises):
    from specker import cli

    with open(tmp_path / "stdout", "w") as handle:
        fd = handle.fileno()
        monkeypatch.setattr(sys, "argv", ["specker", "equiv-check", "--samples", "2"])
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, raises))
        with pytest.raises(SystemExit) as exited:
            cli.main()
        # the descriptor now writes to devnull, so the flush at exit cannot raise
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    assert exited.value.code == 141
    assert capsys.readouterr().err == ""


def test_normalize_json_reloads(files, capsys):
    assert run(
        ["normalize", "--algebra", files["b4"], "--expr", "1 - x_p", "--json"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    path = files["dir"] / "normalized.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["convert", "--algebra", files["b4"], str(path)]) == 0
    assert capsys.readouterr().out.strip() == "[1 | 0] [q | 1]"


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_element_without_idem_is_usage_error(files, capsys):
    path = files["dir"] / "no_idem.json"
    path.write_text(
        json.dumps({"rep": "perp", "entries": [{"value": "2"}]}), encoding="utf-8"
    )
    assert run(["convert", "--algebra", files["b4"], str(path)]) == 2
    assert "missing key 'idem'" in _one_line_error(capsys)
    flat = files["dir"] / "flat_no_idem.json"
    flat.write_text(
        json.dumps({"rep": "flat", "steps": [{"upto": "0"}]}), encoding="utf-8"
    )
    assert run(["convert", "--algebra", files["b4"], str(flat)]) == 2
    _one_line_error(capsys)
    scalar_entries = files["dir"] / "scalar_entries.json"
    scalar_entries.write_text(
        json.dumps({"rep": "perp", "entries": 5}), encoding="utf-8"
    )
    assert run(["convert", "--algebra", files["b4"], str(scalar_entries)]) == 2
    _one_line_error(capsys)
    repeated = files["dir"] / "repeated.json"
    steps = [{"upto": "1", "idem": "1"}, {"upto": "1", "idem": ["p"]}]
    repeated.write_text(json.dumps({"rep": "flat", "steps": steps}), encoding="utf-8")
    assert run(["convert", "--algebra", files["b4"], str(repeated)]) == 2
    assert _one_line_error(capsys) == f"error: {repeated}: step thresholds must strictly increase"


def test_atoms_string_is_usage_error(files, capsys):
    path = files["dir"] / "atoms_string.json"
    path.write_text(json.dumps({"atoms": "pq"}), encoding="utf-8")
    assert run(["check-devries", "--algebra", str(path)]) == 2
    assert "atoms must be a list" in _one_line_error(capsys)
    morphism = files["dir"] / "atoms_string_morphism.json"
    morphism.write_text(
        json.dumps(
            {
                "source": {"algebra": {"atoms": "pq"}, "proximity": "leq"},
                "target": {"algebra": {"atoms": ["x"]}, "proximity": "leq"},
                "map": {"0": "0", "[p]": "1", "[q]": "0", "1": "1"},
            }
        ),
        encoding="utf-8",
    )
    assert run(["check-morphism", "--morphism", str(morphism)]) == 2
    assert "atoms must be a list" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "loader",
    [
        ["check-devries", "--algebra", "{deep}"],
        ["convert", "--algebra", "{b4}", "{deep}"],
        ["check-prox", "--algebra", "{b4}", "--proximity", "{deep}"],
        ["check-morphism", "--morphism", "{deep}"],
    ],
    ids=["algebra", "element", "proximity", "morphism"],
)
def test_deeply_nested_json_is_usage_error(files, capsys, loader):
    # far past the decoder's recursion limit on every supported Python
    deep = files["dir"] / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = [arg.format(deep=deep, b4=files["b4"]) for arg in loader]
    assert run(argv) == 2
    assert _one_line_error(capsys) == f"error: {deep} is nested too deeply to read"


# (content, argv): each refusal that names an existing file by its path
CHECK_ALGEBRA = ["check-devries", "--algebra", "{path}"]
LONG_PATH_CASES = {
    "not-json": (b"{not json", CHECK_ALGEBRA),
    "nested": (b"[" * 100_000 + b"]" * 100_000, CHECK_ALGEBRA),
    "not-utf8": (b'{"atoms": ["\xff"]}', CHECK_ALGEBRA),
    "digit-bound": (b'{"atoms": ["p"], "n": %s}' % (b"9" * 5000), CHECK_ALGEBRA),
    "element": (
        b'{"rep": "perp", "entries": [{"value": "2"}]}',
        ["convert", "--algebra", "{b4}", "{path}"],
    ),
}
LONG_PATH_LINES = {
    "not-json": " is not valid JSON: Expecting property name enclosed in double quotes: "
    "line 1 column 2 (char 1)",
    "nested": " is nested too deeply to read",
    "not-utf8": " is not UTF-8 text",
    "digit-bound": ": integer over the bound of 4300 digits",
    "element": ": malformed orthogonal-form JSON: missing key 'idem'",
}


@pytest.mark.parametrize("case", sorted(LONG_PATH_CASES))
def test_a_long_path_is_named_by_its_length_in_one_short_line(files, capsys, case):
    # 15 nested directories of 200 characters: a path over 3,000 characters
    folder = files["dir"].joinpath(*[f"{i:02d}" + "d" * 198 for i in range(15)])
    folder.mkdir(parents=True)
    content, argv = LONG_PATH_CASES[case]
    path = folder / "input.json"
    path.write_bytes(content)
    assert len(str(path)) > 3000
    assert run([arg.format(path=path, b4=files["b4"]) for arg in argv]) == 2
    line = _one_line_error(capsys)
    named = f"a path of {len(str(path))} characters ending in 'input.json'"
    assert line == f"error: {named}{LONG_PATH_LINES[case]}"
    assert len(line.encode("utf-8")) < 300


def _line_bytes(text: str) -> int:
    return len(f"error: {text}\n".encode("utf-8", "backslashreplace"))


def test_a_path_is_named_whole_while_its_line_fits_in_300_bytes():
    rest = " is not UTF-8 text"
    fits = "p" * (300 - len("error: \n") - len(rest))
    assert _about(fits, rest) == fits + rest
    over = _about(fits + "p", rest)
    assert over.startswith(f"a path of {len(fits) + 1} characters ending in 'ppp")
    assert over.endswith(rest) and _line_bytes(over) <= 300
    # bytes, not characters: "é" is two
    assert _about("é" + fits[2:], rest) == "é" + fits[2:] + rest
    assert _about("é" + fits[1:], rest).startswith(f"a path of {len(fits)} characters")
    # quoted, as a path that cannot be read is named
    assert _about("-m.json", ": gone", "cannot read ", quoted=True) == "cannot read '-m.json': gone"


@pytest.mark.parametrize("lead, quoted", [("", False), ("cannot read ", True)])
@pytest.mark.parametrize(
    "name",
    ["input.json", "n" * 5000, "é" * 5000, "\udcff" * 5000],
    ids=["short", "n", "é", "surrogate"],
)
def test_a_long_path_is_named_by_the_longest_tail_of_its_file_name_that_fits(lead, quoted, name):
    path = "d" * 3000 + "/" + name
    rest = ": File name too long"
    text = _about(path, rest, lead, quoted)
    head = f"{lead}a path of {len(path)} characters ending in "
    assert text.startswith(head) and text.endswith(rest) and "\n" not in text
    assert _line_bytes(text) <= 300
    tail = ast.literal_eval(text[len(head) : -len(rest)])
    assert tail and name.endswith(tail)
    if tail != name:  # one more character of the name would not fit
        assert _line_bytes(f"{head}{name[-len(tail) - 1:]!r}{rest}") > 300


@pytest.mark.parametrize(
    "path, tail",
    [("n" * 5000, "nnnnnnnnnn"), ("missing/" * 40 + "alg.json", "'alg.json'")],
    ids=["5000-character-name", "long-missing-path"],
)
def test_a_path_that_cannot_be_read_is_named_by_its_tail(capsys, path, tail):
    assert run(["check-devries", "--algebra", path]) == 2
    line = _one_line_error(capsys)
    assert line.startswith(f"error: cannot read a path of {len(path)} characters ending in ")
    assert tail in line and len(line.encode("utf-8")) <= 300


@pytest.mark.parametrize("count", [2.5, True])
def test_free_generators_not_an_int_is_usage_error(files, capsys, count):
    path = files["dir"] / "free.json"
    path.write_text(json.dumps({"free_generators": count}), encoding="utf-8")
    assert run(["check-devries", "--algebra", str(path)]) == 2
    assert "free_generators must be an integer" in _one_line_error(capsys)


def test_malformed_proximity_and_morphism_shapes_are_usage_errors(files, capsys):
    prox = files["dir"] / "pairs_scalar.json"
    prox.write_text(json.dumps({"proximity": {"pairs": [5]}}), encoding="utf-8")
    assert run(["check-devries", "--algebra", files["b4"], "--proximity", str(prox)]) == 2
    _one_line_error(capsys)
    morphism = files["dir"] / "no_algebra.json"
    morphism.write_text(
        json.dumps({"source": {}, "target": {}, "map": {}}), encoding="utf-8"
    )
    assert run(["check-morphism", "--morphism", str(morphism)]) == 2
    assert "missing key 'algebra'" in _one_line_error(capsys)
    listed_map = files["dir"] / "listed_map.json"
    listed_map.write_text(
        json.dumps(
            {
                "source": {"algebra": {"atoms": ["x"]}},
                "target": {"algebra": {"atoms": ["x"]}},
                "map": [["0", "0"]],
            }
        ),
        encoding="utf-8",
    )
    assert run(["check-morphism", "--morphism", str(listed_map)]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize(
    "pairs, named",
    [([["0"]], "['0']"), ("ab", "'ab'"), ([["0", "0", "1"]], "['0', '0', '1']")],
    ids=["one-item", "not-a-list", "three-items"],
)
def test_a_malformed_proximity_pair_is_named(files, capsys, pairs, named):
    path = files["dir"] / "pairs.json"
    path.write_text(json.dumps({"proximity": {"pairs": pairs}}), encoding="utf-8")
    assert run(["check-prox", "--algebra", files["b2"], "--proximity", str(path)]) == 2
    line = _one_line_error(capsys)
    assert line.startswith("error: bad proximity pair") and line.endswith(f": {named}")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_usage_error(files, capsys, samples):
    code = run(
        ["check-prox", "--algebra", files["b4"], "--proximity", "leq", "--samples", samples]
    )
    assert code == 2
    assert "--samples must be at least 1" in _one_line_error(capsys)


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize(
    "command",
    [
        ["check-prox", "--algebra", "b4"],
        ["check-morphism", "--morphism", "at_p"],
        ["oracle-diff", "--algebra", "b4"],
    ],
)
def test_coeff_bound_below_one_is_usage_error(files, capsys, command, bound):
    argv = [files.get(word, word) for word in command]
    assert run([*argv, "--samples", "2", "--coeff-bound", bound]) == 2
    assert _one_line_error(capsys) == f"error: --coeff-bound must be at least 1, got {bound}"


@pytest.mark.parametrize(
    "command, message",
    [
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        ([], "the following arguments are required: command"),
        (["convert", "--algebra", "b4"], "the following arguments are required: element"),
        (["oracle-diff", "--algebra", "b4", "--samples", "x"], "invalid int value: 'x'"),
        (["order", "--algebra", "b4", "s", "s", "--samples", "5"], "unrecognized arguments"),
    ],
    ids=["unknown-subcommand", "no-subcommand", "missing-positional", "non-int", "outside"],
)
def test_argparse_errors_are_one_line(files, capsys, command, message):
    # no usage text: one "error: ..." line on stderr, and exit 2
    assert run([files.get(word, word) for word in command]) == 2
    assert message in _one_line_error(capsys)


def test_help_still_prints_usage_and_exits_0(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: specker")
    assert run(["oracle-diff", "--help"]) == 0
    assert "--domain {int,fraction}" in capsys.readouterr().out


def test_oracle_diff_fraction_domain(files, capsys):
    argv = ["oracle-diff", "--algebra", files["b4"], "--samples", "10"]
    assert run([*argv, "--domain", "fraction"]) == 0
    fraction = capsys.readouterr().out
    assert [json.loads(line)["status"] for line in fraction.splitlines()] == ["pass"] * 18
    assert run([*argv, "--domain", "int"]) == 0
    # other draws, but every record passes either way: the same lines
    assert capsys.readouterr().out == fraction
    assert run([*argv, "--domain", "real"]) == 2
    assert "argument --domain: invalid choice: 'real'" in _one_line_error(capsys)


def test_lift_round_trip_verdict_is_computed(files, capsys, monkeypatch):
    from specker import proximity

    argv = ["lift", "--algebra", files["b4"], "--proximity", "leq"]
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == "lift restricts to 9 pairs; round-trip OK"

    other = proximity.ProxRel(make_algebra(["p", "q"]), frozenset({(0, 0), (3, 3)}))
    monkeypatch.setattr(proximity, "restrict_lift", lambda rel: other)
    assert run(argv) == 1
    assert capsys.readouterr().out.strip() == "lift restricts to 2 pairs; round-trip MISMATCH"
    assert run([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == proximity.prox_to_json(other)
