import json

import pytest

from helpers import within
from specker.cli import run


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


def test_lift_element_check(files, capsys):
    assert run(
        ["lift", "--algebra", files["b4"], "--proximity", "leq", files["s"], files["t"]]
    ) == 0
    assert capsys.readouterr().out.strip() == "RELATED"
    assert run(
        ["lift", "--algebra", files["b4"], "--proximity", "leq", files["t"], files["s"]]
    ) == 0
    assert capsys.readouterr().out.strip() == "NOT RELATED"


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
    proximity._devries_report.cache_clear()
    proximity._devries_ok.cache_clear()
    args = ["check-prox", "--algebra", files["b4"], "--samples", "5"]
    assert run(args) == 0
    assert "PASS (10 axioms)" in capsys.readouterr().out
    assert len(checked) == 1


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
    capsys.readouterr()


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


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_usage_error(files, capsys, samples):
    code = run(
        ["check-prox", "--algebra", files["b4"], "--proximity", "leq", "--samples", samples]
    )
    assert code == 2
    assert "--samples must be at least 1" in _one_line_error(capsys)
