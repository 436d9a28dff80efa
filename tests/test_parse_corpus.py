"""A pinned corpus of term texts and what ``parse_term`` makes of them.

Each entry of ``golden_parse.json`` holds a text and either the
``repr`` of its term or its :class:`ParseError` message and position.
The texts are:

* seeded terms drawn like the ``terms`` benchmark's (6 generators,
  depth <= 6, literals in +-9 and rationals with denominators 2-4,
  exponents 0-40), and one-character mutations of them: a character
  deleted, replaced or inserted;
* characters outside the grammar, ASCII and not (``é``, the Arabic-Indic
  digit ``٣``, a no-break space);
* nesting at ``MAX_DEPTH`` and at ``MAX_DEPTH + 1``, one text per way of
  nesting, and exponent products of 1000 and 1001;
* trailing whitespace, whitespace only and the empty text.

The corpus was captured before the tokenizer and the parser were
rewritten to scan once and to carry exponent products up the rules; the
rewrite gives every entry the same outcome, except the four texts with a
zero-denominator literal (``1/0``, ``1/00``, ``x_p + 3/0``, ``(1/0``).
They raised a bare ``ValueError`` with no position and are now a
``ParseError`` at the literal's start, re-captured with that change.

To regenerate the file (only when a parse change is intended), run

    PYTHONPATH=src python tests/test_parse_corpus.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from specker.terms import MAX_DEPTH, MAX_EXPONENT, ParseError, parse_term

GOLDEN = Path(__file__).with_name("golden_parse.json")

_OPS = ("+", "-", "*", "meet", "join", "neg", "pow")

# what a mutation may put in: the grammar's characters and a few outside it
_ALPHABET = "()+-*^,/ 0123456789x_amejt$.é٣\t"


def _drawn(rng: random.Random, generators, depth: int, pow_ok: bool = True) -> str:
    """A term text shaped like the ``terms`` benchmark's."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.55:
            return f"x_a{rng.choice(generators)}"
        if rng.random() < 0.7:
            text = str(rng.randint(-9, 9))
        else:
            text = f"{rng.randint(-9, 9)}/{rng.randint(2, 4)}"
        return f"({text})" if text.startswith("-") else text
    kind = rng.choice(_OPS if pow_ok else _OPS[:-1])
    if kind == "pow":
        base = _drawn(rng, generators, depth - 1, False)
        return f"({base})^{rng.randint(0, 40)}"
    if kind == "neg":
        return f"(-({_drawn(rng, generators, depth - 1, pow_ok)}))"
    left = _drawn(rng, generators, depth - 1, pow_ok)
    right = _drawn(rng, generators, depth - 1, pow_ok)
    if kind in ("meet", "join"):
        return f"{kind}({left}, {right})"
    return f"({left} {kind} {right})"


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with one character deleted, replaced or inserted."""
    at = rng.randrange(len(text))
    how = rng.choice(("delete", "replace", "insert"))
    if how == "delete":
        return text[:at] + text[at + 1 :]
    char = rng.choice(_ALPHABET)
    return text[:at] + char + text[at + (how == "replace") :]


def _nested(depth: int) -> list[str]:
    """Texts that nest ``depth`` levels, one per way of nesting."""
    half = (depth + 1) // 2
    return [
        "(" * depth + "1" + ")" * depth,
        "-" * depth + "1",
        "meet(" * depth + "1" + ", 1)" * depth,
        "join(" * depth + "x_p" + ", 1)" * depth,
        "1+" * depth + "1",
        "2*" * depth + "1",
        "x_p" + "^1" * depth,
        "(1+" * half + "1" + ")" * half,
    ]


_HANDWRITTEN = [
    "",
    " ",
    " \t\n",
    "x_p",
    "x_p ",
    "x_p \t\n",
    "  x_p + 1  ",
    "x_p + 1",
    "x_p\u00a0+\u00a01",
    "é",
    "x_é",
    "٣",
    "x_p + ٣",
    "1٣",
    "$",
    "x_p $ x_q",
    "x_p x_q $",
    "1/0",
    "1/00",
    "x_p + 3/0",
    "(1/0",
    "0/5",
    "6/3",
    "1/",
    "/2",
    "1 / 2",
    "1e5",
    "0x10",
    "2x_p",
    "x_p 2",
    "x_p**2",
    "--x_p",
    "-(-x_p)",
    "x_p^",
    "x_p ^",
    "x_p^x_q",
    "x_p^-1",
    "x_p^1/2",
    "x_p^0002",
    "x_p^" + "9" * 50,
    "x_p^2^3",
    "-x_p^2",
    "meet",
    "meet(",
    "meet(x_p)",
    "meet(x_p x_q)",
    "meet x_p",
    "join(1,2,3)",
    "join(1,)",
    ",",
    ")",
    "((",
    "()",
    "x_p +",
    "(x_p",
    "x_p)",
    "123456789012345678901234567890",
    "_",
    "X_1 * y9",
    f"x_p^{MAX_EXPONENT}",
    f"x_p^{MAX_EXPONENT + 1}",
    "((x_p)^10)^100",
    "((x_p)^8)^125",
    "((x_p^7)^11)^13",
    "(x_p^7 + 1)^143",
    "(x_p^0)^1000",
    "((x_p^0)^1000)^1000",
    "(x_p^1000)^1",
    "(x_p^2 + x_q^500)^2",
    "(x_p^2 + x_q^500)^3",
    "(-(x_p^7)*2)^143",
    "meet(x_p^1000, x_q)^2",
]


def _texts() -> list[str]:
    rng = random.Random(2024)
    texts = list(_HANDWRITTEN)
    for depth in (MAX_DEPTH, MAX_DEPTH + 1):
        texts += _nested(depth)
    for _ in range(120):
        generators = rng.sample(range(6), rng.randint(1, 3))
        text = _drawn(rng, generators, 6)
        texts.append(text)
        texts += [_mutated(rng, text) for _ in range(4)]
    return list(dict.fromkeys(texts))


def _outcome(text: str) -> dict:
    try:
        return {"text": text, "term": repr(parse_term(text))}
    except ParseError as exc:
        return {"text": text, "error": str(exc), "position": exc.position}


@pytest.fixture(scope="module")
def golden() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_corpus_covers_every_kind_of_text(golden):
    outcomes = {entry["text"]: entry for entry in golden}
    assert [entry["text"] for entry in golden] == _texts()
    parsed = sum("term" in entry for entry in golden)
    assert 100 < parsed < len(golden) - 100
    for text in ("é", "٣", "", "x_p \t\n"):
        assert text in outcomes
    assert "nested deeper" not in str(outcomes[_nested(MAX_DEPTH)[0]])
    assert "nested deeper" in outcomes[_nested(MAX_DEPTH + 1)[0]]["error"]
    assert "term" in outcomes["((x_p)^10)^100"]
    assert "multiply" in outcomes["((x_p^7)^11)^13"]["error"]


def test_parse_term_matches_the_corpus(golden):
    mismatched = [entry for entry in golden if _outcome(entry["text"]) != entry]
    assert mismatched == []


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps([_outcome(text) for text in _texts()], indent=1, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
