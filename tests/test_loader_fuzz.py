"""Fuzzing the JSON loaders directly: each returns or raises ``ValueError``.

Every loader refuses its own malformed shapes, so that the command line
needs no catch for ``KeyError``, ``TypeError`` or ``AttributeError``: a
loader that leaks one is a bug, not bad input.  A refusal names the key
or the type at fault and quotes only a short input, so it stays one
short line however large the document.  The documents are those
of ``test_cli_fuzz``: a well-formed one for the loader's role, the same
with one entry dropped or replaced (at the top, or at any depth), or
random JSON.  The same holds with a 5,000-character string or a
5,000-digit integer planted anywhere in a document.  The library's own
refusals that quote an argument, an algebra included, keep the same
bound.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import TEMPLATES, documents, json_values, long_strings, planted

from specker.boolalg import (
    algebra_from_json,
    element_from_json,
    element_from_literal,
    make_algebra,
)
from specker.morphisms import morphism_from_json
from specker.orthogonal import orth_from_json
from specker.pointwise import PointFn, pointwise_apply
from specker.proximity import prox_from_json
from specker.scalars import _require_domain
from specker.steps import step_from_json
from specker.terms import BinOp, Lit

B4 = make_algebra(["p", "q"])  # the atoms of the templates
MESSAGE_BOUND = 200  # characters in a refusal, which the command line prints on one line


@st.composite
def nested(draw, role: str):
    """The role's template with one entry, at any depth, dropped or replaced."""
    obj = json.loads(json.dumps(draw(st.sampled_from(TEMPLATES[role]))))
    node = obj
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.booleans()):
            del node[key]
            return obj
        else:
            node[key] = draw(json_values)
            return obj


def _drawn(role: str):
    return st.one_of(documents(role), nested(role))


# loader (taking the document last) -> the documents it is fed
LOADERS = {
    "algebra_from_json": (algebra_from_json, _drawn("alg.json")),
    "element_from_json": (
        lambda obj: element_from_json(B4, obj),
        st.one_of(json_values, st.sampled_from([["p"], ["p", "q"], ["r"], [["p"]], [{}]])),
    ),
    "orth_from_json": (lambda obj: orth_from_json(B4, obj), _drawn("s.json")),
    "step_from_json": (lambda obj: step_from_json(B4, obj), _drawn("s.json")),
    "prox_from_json": (lambda obj: prox_from_json(B4, obj), _drawn("prox.json")),
    "morphism_from_json": (morphism_from_json, _drawn("m.json")),
    "element_from_literal": (
        lambda text: element_from_literal(B4, text),
        st.one_of(json_values, st.text(alphabet="[], pq01", max_size=8)),
    ),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_loader_returns_or_raises_value_error(name, data):
    loader, docs = LOADERS[name]
    try:
        loader(data.draw(docs))
    except ValueError as refused:
        assert len(str(refused)) <= MESSAGE_BOUND


class WideInt(NamedTuple):
    """A stand-in for an int of 5,000 digits, past CPython's int-to-string
    limit, which the test plants after the draw: Hypothesis reports a
    failing draw by its ``repr``, which CPython refuses for such an int,
    and ``int`` of its text refuses too, so it is built by arithmetic."""

    sign: int
    lead: int
    tail: int

    def value(self) -> int:
        return self.sign * (self.lead * 10**4999 + self.tail)


def _with_wide_ints(obj):
    """``obj`` with each :class:`WideInt` replaced by its int."""
    if isinstance(obj, WideInt):
        return obj.value()
    if isinstance(obj, list):
        return [_with_wide_ints(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _with_wide_ints(item) for key, item in obj.items()}
    return obj


long_ints = st.builds(WideInt, st.sampled_from([1, -1]), st.integers(1, 9), st.integers(0, 10**6))
DOCUMENT_LOADERS = sorted(set(LOADERS) - {"element_from_literal"})


# a 5,000-character string or 5,000-digit int nested anywhere in a document
@pytest.mark.parametrize("name", DOCUMENT_LOADERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_loader_refuses_an_over_long_value_anywhere_in_one_short_line(name, data):
    loader, docs = LOADERS[name]
    obj = data.draw(planted(docs, data.draw(st.one_of(long_strings, long_ints))))
    try:
        loader(_with_wide_ints(obj))
    except ValueError as refused:
        message = str(refused)
        assert len(message) <= MESSAGE_BOUND and "\n" not in message, message


_SIDE = {"algebra": {"atoms": ["p"]}}


# one document for each shape that once leaked another exception, with a
# piece of the message its loader now names it by
@pytest.mark.parametrize(
    "name, obj, named",
    [
        ("orth_from_json", {"rep": "perp", "entries": [{"idem": "1"}]}, "missing key 'value'"),
        ("orth_from_json", {"rep": "perp", "entries": [{"value": "1"}]}, "missing key 'idem'"),
        ("orth_from_json", {"rep": "perp", "entries": 5}, "bad orthogonal-form JSON"),
        ("orth_from_json", {"rep": "perp", "entries": [5]}, "bad orthogonal-form JSON: 5"),
        ("step_from_json", {"rep": "flat", "steps": [{"idem": "1"}]}, "missing key 'upto'"),
        ("step_from_json", {"rep": "flat", "steps": [{"upto": "0"}]}, "missing key 'idem'"),
        ("step_from_json", {"rep": "flat", "steps": None}, "bad step-form JSON"),
        ("step_from_json", {"rep": "flat", "steps": ["x"]}, "bad step-form JSON: 'x'"),
        ("prox_from_json", {"proximity": {}}, "bad proximity JSON"),
        ("prox_from_json", {"proximity": 5}, "bad proximity JSON"),
        ("morphism_from_json", {"source": 5, "target": _SIDE, "map": {}}, "bad morphism JSON: 5"),
        ("morphism_from_json", {"source": {}, "target": _SIDE, "map": {}}, "missing key 'algebra'"),
        ("morphism_from_json", {"target": _SIDE, "map": {}}, "missing key 'source'"),
        ("morphism_from_json", {"source": _SIDE, "target": _SIDE, "map": []}, "must be a JSON object"),
        (
            "morphism_from_json",
            {"source": _SIDE, "target": _SIDE, "map": {"0": 0, "1": "1"}},
            "bad element literal: 0",
        ),
        ("element_from_literal", None, "bad element literal: None"),
        ("element_from_json", {"p": 1}, "bad element literal: {'p': 1}"),
    ],
)
def test_a_once_leaking_shape_is_named_by_a_value_error(name, obj, named):
    with pytest.raises(ValueError, match=None) as refused:
        LOADERS[name][0](obj)
    assert named in str(refused.value)


_LONG = "p" * 6000
_ONE_ATOM = {"algebra": {"atoms": ["x"]}}


# a malformed document of at least 5 KB for each place a loader's refusal
# names its input
@pytest.mark.parametrize(
    "name, obj",
    [
        ("algebra_from_json", ["p"] * 2000),
        ("algebra_from_json", {"atom": ["p"] * 2000}),
        ("algebra_from_json", {"atoms": _LONG}),
        ("algebra_from_json", {"atoms": {_LONG: 1}}),
        ("algebra_from_json", {"atoms": [_LONG + ","]}),
        ("algebra_from_json", {"atoms": [_LONG, _LONG]}),
        ("algebra_from_json", {"free_generators": [1] * 3000}),
        ("algebra_from_json", {"free_generators": 10**4200, "note": _LONG[:1000]}),
        ("element_from_json", [_LONG]),
        ("element_from_json", [["p"] * 2000]),
        ("element_from_json", {_LONG: "p"}),
        ("element_from_literal", "[" + _LONG + "]"),
        ("element_from_literal", _LONG),
        ("element_from_literal", ["p"] * 2000),
        ("orth_from_json", {"rep": "perp", "entry": [{"value": "1", "idem": "1"}] * 200}),
        ("orth_from_json", {"rep": "perp", "entries": [_LONG]}),
        ("orth_from_json", {"rep": "perp", "entries": [{"value": _LONG, "idem": "1"}]}),
        ("orth_from_json", {"rep": "perp", "entries": [{"value": "1", "idem": _LONG}]}),
        ("step_from_json", {"rep": "flat", "step": [{"upto": "0", "idem": "1"}] * 200}),
        ("step_from_json", {"rep": "flat", "steps": [{"upto": "0", "idem": [_LONG]}]}),
        (
            "step_from_json",
            {"rep": "flat", "steps": [{"upto": "1/" + "0" * 4000, "idem": "1"}], "x": _LONG},
        ),
        ("prox_from_json", {"proximity": {"pair": [["0", "1"]] * 600}}),
        ("prox_from_json", {"proximity": _LONG}),
        ("prox_from_json", {"proximity": {"pairs": _LONG}}),
        ("prox_from_json", {"proximity": {"pairs": [["0"] * 2000]}}),
        ("prox_from_json", [_LONG]),
        ("morphism_from_json", {"source": [_LONG], "target": _ONE_ATOM, "map": {}}),
        ("morphism_from_json", {"source": _ONE_ATOM, "target": _ONE_ATOM, "map": [_LONG]}),
        (
            "morphism_from_json",
            {"source": _ONE_ATOM, "target": _ONE_ATOM, "map": {"0": "0", "1": _LONG}},
        ),
        (
            "morphism_from_json",
            {"source": _ONE_ATOM, "target": _ONE_ATOM, "map": {"[x]": "1", "1" + " " * 6000: "1"}},
        ),
    ],
)
def test_a_refusal_of_a_large_document_is_one_short_line(name, obj):
    assert len(json.dumps(obj)) >= 5000
    with pytest.raises(ValueError) as refused:
        LOADERS[name][0](obj)
    message = str(refused.value)
    assert len(message) <= MESSAGE_BOUND and "\n" not in message, message


_WIDE = make_algebra([f"a{i}" for i in range(64)])


# the library's own refusals that quote their input, each given one long
@pytest.mark.parametrize(
    "refused",
    [
        lambda: _WIDE.from_mask(1 << 64),
        lambda: _WIDE.generator("g" * 500),
        lambda: _require_domain("x" * 300),
        lambda: BinOp("?" * 300, Lit(1), Lit(2)),
        lambda: pointwise_apply("?" * 300, [PointFn(B4, (0, 0))]),
        # repr of a container refuses an int over the digit bound inside it
        lambda: algebra_from_json({"atoms": [10**5000]}),
        lambda: algebra_from_json({"atoms": {"p": [1, -(10**5000)]}}),
    ],
    ids=["from_mask", "generator", "domain", "binop", "pointwise_op", "huge_int_in_list",
         "huge_int_in_object"],
)
def test_a_library_refusal_of_a_long_input_is_one_short_line(refused):
    with pytest.raises(ValueError) as refusal:
        refused()
    message = str(refusal.value)
    assert len(message) <= MESSAGE_BOUND and "\n" not in message, message
