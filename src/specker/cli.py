"""Command-line front end.

Loads algebras, elements, proximities, and morphisms from JSON files,
runs operations and verification suites, and prints human-readable
output (or machine-readable JSON with ``--json``).

Exit codes: 0 on success or a passing check, 1 when a verification
fails or a de Vries gate refuses its input (with the failing report), 2
on usage, file or syntax errors, on JSON that its loader refuses and on
an algebra over the exhaustive bound of a walk over every pair or
element (D1-D7, the enumeration, the restriction of the lift, M1-M4),
141 when the reader closes stdout early (the shell's code for SIGPIPE).

Only the Specker-algebra core (``boolalg``, ``orthogonal``, ``steps``) is
imported here; each subcommand imports the de Vries, oracle or term
layer it runs, so a run loads no layer it does not use.  Likewise a run
builds only its own subcommand's parser from ``_COMMANDS``; a run that
names no known subcommand first (none, ``--help``, an unknown name)
builds all of them, so every help text and error line is the same.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Sequence, Union

from .boolalg import _MAX_DIGITS, _QUOTED, Algebra, _shown, algebra_from_json, make_algebra
from .orthogonal import (
    OrthElem,
    orth_from_json,
    orth_join,
    orth_leq,
    orth_meet,
    orth_to_json,
)
from .steps import (
    StepElem,
    step_from_json,
    step_join,
    step_meet,
    step_to_json,
    to_orth,
    to_steps,
)

if TYPE_CHECKING:
    from .morphisms import DVMorphism
    from .proximity import ProxRel

Element = Union[OrthElem, StepElem]


class UsageError(ValueError):
    """Bad invocation or unreadable input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one :class:`UsageError` line,
    not usage text and an exit; ``--help`` still prints and exits 0.

    An option that takes a value gets a following ``-`` token that starts
    no option string as ``option=token``, as in ``--expr -x_p``.

    argparse quotes the token at fault whole: an argument, or what follows
    its ``=`` or its one-letter flag.  A long one is named by ``_shown``.
    """

    def parse_known_args(self, args=None, namespace=None):
        options = self._option_string_actions
        tokens: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            taker = options.get(tokens[-1]) if tokens else None
            name = token.partition("=")[0]
            value = name[:1] == "-" and not any(option.startswith(name) for option in options)
            if value and taker is not None and taker.nargs is None:
                tokens[-1] += f"={token}"
            else:
                tokens.append(token)
        self._tokens = tokens
        return super().parse_known_args(tokens, namespace)

    def error(self, message: str):
        for token in self._tokens:
            for quoted in (token, token.partition("=")[2], token[2:]):
                if len(quoted) > _QUOTED:
                    shown = _shown(quoted)
                    message = message.replace(repr(quoted), shown).replace(quoted, shown)
        raise UsageError(message)


def _at_least_1(option: str, token: str) -> int:
    """The int value of ``--samples`` or ``--coeff-bound``, refused below 1."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(token)}") from None
    if value < 1:  # an ArgumentError naming no argument gets no "argument --x:" prefix
        raise argparse.ArgumentError(None, f"{option} must be at least 1, got {_shown(value)}")
    return value


def _fits(text: str) -> bool:
    """Whether the printed line ``error: text``, newline included, fits in 300 bytes."""
    return len(f"error: {text}\n".encode("utf-8", "backslashreplace")) <= 300


def _about(path: str, rest: str, lead: str = "", quoted: bool = False) -> str:
    """``lead + path + rest``, the path quoted if asked, while the printed
    line fits in 300 bytes; past that the path is named by its length and
    the longest tail of its file name that keeps the line inside."""
    text = lead + (repr(path) if quoted else path) + rest
    if _fits(text):
        return text
    name = os.path.basename(path) or path
    # a tail of over 300 characters has a repr of over 300 bytes
    for start in range(max(0, len(name) - 300), len(name) + 1):
        text = f"{lead}a path of {len(path)} characters ending in {name[start:]!r}{rest}"
        if _fits(text):
            break
    return text


def _load_json(path: str):
    if "\0" in path:  # open() refuses it with a ValueError, not an OSError
        raise UsageError(f"cannot read {_shown(path)}: embedded null byte")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(_about(path, f": {exc.strerror}", "cannot read ", quoted=True)) from exc
    except json.JSONDecodeError as exc:
        raise UsageError(_about(path, f" is not valid JSON: {exc}")) from exc
    except RecursionError as exc:
        raise UsageError(_about(path, " is nested too deeply to read")) from exc
    except UnicodeDecodeError as exc:
        raise UsageError(_about(path, " is not UTF-8 text")) from exc
    except ValueError as exc:  # an integer past CPython's int-to-string limit
        over = f": integer over the bound of {_MAX_DIGITS} digits"
        raise UsageError(_about(path, over)) from exc


def _parsed(path: str, parse, *args, named: bool = False):
    """``parse(*args, obj)`` on the JSON in ``path``; a refusal is a :class:`UsageError`."""
    obj = _load_json(path)
    try:
        return parse(*args, obj)
    except ValueError as exc:
        raise UsageError(_about(path, f": {exc}") if named else str(exc)) from exc


def _load_algebra(path: str | None) -> Algebra:
    if path is None:
        raise UsageError("this subcommand needs --algebra")
    return _parsed(path, algebra_from_json)


def _element_from_json(algebra: Algebra, obj) -> Element:
    if isinstance(obj, dict) and obj.get("rep") == "flat":
        return step_from_json(algebra, obj)
    return orth_from_json(algebra, obj)


def _load_element(algebra: Algebra, path: str) -> Element:
    return _parsed(path, _element_from_json, algebra, named=True)


def _load_proximity(algebra: Algebra, spec: str) -> ProxRel:
    from .proximity import leq_proximity, prox_from_json

    if spec == "leq":
        return leq_proximity(algebra)
    return _parsed(spec, prox_from_json, algebra)


def _load_morphism(path: str) -> DVMorphism:
    from .morphisms import morphism_from_json

    return _parsed(path, morphism_from_json)


def _the_morphism(args) -> DVMorphism:
    """The one ``--morphism`` file, loaded; none or a second is a :class:`UsageError`."""
    if not args.morphism:
        raise UsageError(f"{args.command} needs --morphism")
    if len(args.morphism) > 1:
        raise UsageError(f"{args.command} takes one --morphism")
    return _load_morphism(args.morphism[0])


def _print_element(elem: Element, as_json: bool) -> None:
    to_json = step_to_json if isinstance(elem, StepElem) else orth_to_json
    print(json.dumps(to_json(elem)) if as_json else str(elem))


def _print_report(report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _print_sampled(args, sample) -> int:
    """Run the sampled suite ``sample`` on the ``--samples``,
    ``--coeff-bound`` and ``--seed`` options, which head its text report."""
    report = sample(samples=args.samples, coeff_bound=args.coeff_bound, seed=args.seed)
    if not args.as_json:
        print(f"seed={args.seed} samples={args.samples} coeff-bound={args.coeff_bound}")
    return _print_report(report, args.as_json)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser with the subparser ``argv[0]`` names, or with all of them
    when it names none (see the module docstring)."""
    parser = _Parser(
        prog="specker",
        description="Exact computation in Specker algebras over finite boolean algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        _, positionals, options = _COMMANDS[name]
        p = sub.add_parser(name)
        for positional in positionals:
            dest = positional.rstrip("?")
            nargs = "?" if positional.endswith("?") else None
            p.add_argument(dest, nargs=nargs, help=_POSITIONALS.get(dest, "element JSON file"))
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _normalized_expr(args) -> OrthElem:
    from .terms import normalize_term, parse_term

    algebra = _load_algebra(args.algebra)
    if args.expr is None:
        raise UsageError(f"{args.command} needs --expr")
    return normalize_term(parse_term(args.expr), algebra)


def _cmd_normalize(args) -> int:
    _print_element(_normalized_expr(args), args.as_json)
    return 0


def _cmd_eval(args) -> int:
    elem = _normalized_expr(args)
    if args.as_json:
        _print_element(elem, True)
    else:
        from .pointwise import atom_values

        print(atom_values(elem))
    return 0


def _cmd_convert(args) -> int:
    algebra = _load_algebra(args.algebra)
    elem = _load_element(algebra, args.element)
    converted = to_orth(elem) if isinstance(elem, StepElem) else to_steps(elem)
    _print_element(converted, args.as_json)
    return 0


def _as_orth(elem: Element) -> OrthElem:
    return to_orth(elem) if isinstance(elem, StepElem) else elem


def _as_steps(elem: Element) -> StepElem:
    return elem if isinstance(elem, StepElem) else to_steps(elem)


def _cmd_order(args) -> int:
    algebra = _load_algebra(args.algebra)
    left = _as_orth(_load_element(algebra, args.left))
    right = _as_orth(_load_element(algebra, args.right))
    forward = orth_leq(left, right)
    backward = orth_leq(right, left)
    if forward and backward:
        order = "EQ"
    elif forward:
        order = "LEQ"
    elif backward:
        order = "GEQ"
    else:
        order = "INCOMPARABLE"
    print(json.dumps({"order": order}) if args.as_json else order)
    return 0


def _cmd_lattice(step_op, orth_op, args) -> int:
    algebra = _load_algebra(args.algebra)
    left = _load_element(algebra, args.left)
    right = _load_element(algebra, args.right)
    if isinstance(left, StepElem):
        result: Element = step_op(left, _as_steps(right))
    else:
        result = orth_op(left, _as_orth(right))
    _print_element(result, args.as_json)
    return 0


def _cmd_check_devries(args) -> int:
    from .proximity import check_devries

    algebra = _load_algebra(args.algebra)
    rel = _load_proximity(algebra, args.proximity)
    return _print_report(check_devries(rel), args.as_json)


def _cmd_enumerate_devries(args) -> int:
    from .proximity import enumerate_devries, prox_to_json

    algebra = _load_algebra(args.algebra)
    relations = enumerate_devries(algebra)
    if args.as_json:
        print(json.dumps([prox_to_json(rel) for rel in relations]))
    else:
        print(f"{len(relations)} de Vries proximities")
        for rel in relations:
            print(json.dumps(prox_to_json(rel)))
    return 0


def _cmd_lift(args) -> int:
    if args.left is not None and (args.right is None or args.morphism):
        raise UsageError("lift takes two element files or none, and none with --morphism")
    if args.morphism:
        from .morphisms import lift_morphism, morphism_to_json, restrict_prox_morphism

        m = _the_morphism(args)
        restricted = restrict_prox_morphism(lift_morphism(m))
        status = "OK" if restricted.table == m.table else "MISMATCH"
        if args.as_json:
            print(json.dumps(morphism_to_json(restricted)))
        else:
            print(f"lifted morphism; restriction round-trip {status}")
        return 0 if status == "OK" else 1
    from .proximity import lift_check, prox_to_json, restrict_lift

    algebra = _load_algebra(args.algebra)
    rel = _load_proximity(algebra, args.proximity)
    if args.left is not None:
        left = _load_element(algebra, args.left)
        right = _load_element(algebra, args.right)
        related = lift_check(rel, _as_steps(left), _as_steps(right))
        if args.as_json:
            print(json.dumps({"related": related}))
        else:
            print("RELATED" if related else "NOT RELATED")
        return 0
    restricted = restrict_lift(rel)
    status = "OK" if restricted == rel else "MISMATCH"
    if args.as_json:
        print(json.dumps(prox_to_json(restricted)))
    else:
        print(f"lift restricts to {restricted.count()} pairs; round-trip {status}")
    return 0 if status == "OK" else 1


def _cmd_check_prox(args) -> int:
    from .proximity import sample_proximity_axioms

    algebra = _load_algebra(args.algebra)
    rel = _load_proximity(algebra, args.proximity)
    return _print_sampled(args, partial(sample_proximity_axioms, rel))


def _cmd_check_morphism(args) -> int:
    from .morphisms import lift_morphism, sample_morphism_axioms

    lifted = lift_morphism(_the_morphism(args))
    return _print_sampled(args, partial(sample_morphism_axioms, lifted))


def _cmd_compose(args) -> int:
    from .morphisms import morphism_to_json, star_compose_dv

    composed = star_compose_dv(_load_morphism(args.outer), _load_morphism(args.inner))
    if args.as_json:
        print(json.dumps(morphism_to_json(composed)))
    else:
        print(repr(composed))
    return 0


def _cmd_equiv_check(args) -> int:
    from .morphisms import enumerate_boolean_homs, functor_id, functor_sp, naturality_check
    from .proximity import enumerate_devries

    if args.algebra:
        algebras = [_load_algebra(args.algebra)]
    else:
        algebras = [make_algebra(["x"]), make_algebra(["p", "q"])]
    # each algebra's one proximity, so that one over the bound is refused
    # before the first line is printed
    rels = [rel for algebra in algebras for rel in enumerate_devries(algebra)]
    # with --json, one object at the end; as text, a line per check as it runs
    out: dict = {"seed": args.seed, "samples": args.samples, "round_trips": [], "homs": []}
    if not args.as_json:
        print(f"seed={args.seed} samples={args.samples}")
    failures = 0
    for algebra, rel in zip(algebras, rels):
        round_trip = functor_id(functor_sp(rel)) == rel
        if args.as_json:
            out["round_trips"].append({"atoms": list(algebra.atoms), "ok": round_trip})
        else:
            print(f"{algebra!r}: Id(Sp(-)) round-trip {'OK' if round_trip else 'FAIL'}")
        failures += 0 if round_trip else 1
    for source in algebras:
        for target in algebras:
            for i, hom in enumerate(enumerate_boolean_homs(source, target)):
                report = naturality_check(hom, samples=max(1, args.samples // 2), seed=args.seed)
                if args.as_json:
                    out["homs"].append(
                        {
                            "index": i,
                            "source": list(source.atoms),
                            "target": list(target.atoms),
                            "report": report.to_json(),
                        }
                    )
                else:
                    print(f"hom {i} {source.atoms}->{target.atoms}: {report.summary()}")
                failures += 0 if report.ok else 1
    if args.as_json:
        out["ok"] = failures == 0
        print(json.dumps(out))
    return 0 if failures == 0 else 1


def _cmd_oracle_diff(args) -> int:
    from .pointwise import oracle_diff

    algebra = _load_algebra(args.algebra)
    records = oracle_diff(
        algebra,
        seed=args.seed,
        samples=args.samples,
        coeff_bound=args.coeff_bound,
        domain=args.domain,
    )
    for record in records:
        print(json.dumps(record))
    return 0 if all(record["status"] == "pass" for record in records) else 1


_OPTIONS = {
    "--algebra": {"help": "algebra JSON file"},
    "--proximity": {"default": "leq", "help": "proximity JSON file or 'leq'"},
    "--expr": {"help": "term to normalize or evaluate"},
    "--morphism": {"action": "append", "default": [], "help": "morphism JSON file"},
    "--samples": {"type": partial(_at_least_1, "--samples"), "default": 200},
    "--coeff-bound": {"type": partial(_at_least_1, "--coeff-bound"), "default": 10},
    "--seed": {"type": int, "default": 0},
    "--json": {"action": "store_true", "dest": "as_json"},
    "--domain": {
        "choices": ("int", "fraction"),
        "default": "int",
        "help": "coefficient domain of the random elements' values",
    },
}

_POSITIONALS = {
    "outer": "morphism JSON file (applied second)",
    "inner": "morphism JSON file (applied first)",
}

_PAIR = ("left", "right")
_PROX = ("--algebra", "--proximity")
_SAMPLED = ("--samples", "--coeff-bound", "--seed")

# name -> (handler, positionals, options): a subcommand takes the options
# its handler reads, and argparse exits 2 on any other; a trailing "?"
# makes a positional optional
_COMMANDS = {
    "normalize": (_cmd_normalize, (), ("--algebra", "--expr", "--json")),
    "eval": (_cmd_eval, (), ("--algebra", "--expr", "--json")),
    "convert": (_cmd_convert, ("element",), ("--algebra", "--json")),
    "order": (_cmd_order, _PAIR, ("--algebra", "--json")),
    "meet": (partial(_cmd_lattice, step_meet, orth_meet), _PAIR, ("--algebra", "--json")),
    "join": (partial(_cmd_lattice, step_join, orth_join), _PAIR, ("--algebra", "--json")),
    # the verify benchmark appends --samples to every run and to its
    # warm-up, so check-devries, lift and compose take it and ignore it
    "check-devries": (_cmd_check_devries, (), (*_PROX, "--samples", "--json")),
    "enumerate-devries": (_cmd_enumerate_devries, (), ("--algebra", "--json")),
    "lift": (_cmd_lift, ("left?", "right?"), (*_PROX, "--morphism", "--samples", "--json")),
    "check-prox": (_cmd_check_prox, (), (*_PROX, *_SAMPLED, "--json")),
    "check-morphism": (_cmd_check_morphism, (), ("--morphism", *_SAMPLED, "--json")),
    "compose": (_cmd_compose, ("outer", "inner"), ("--samples", "--json")),
    # the eta-square draws with coefficient bound 10, so no --coeff-bound
    "equiv-check": (_cmd_equiv_check, (), ("--algebra", "--samples", "--seed", "--json")),
    # prints JSON records either way, and takes --json as every subcommand does
    "oracle-diff": (_cmd_oracle_diff, (), ("--algebra", *_SAMPLED, "--domain", "--json")),
}


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser(argv).parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except SystemExit as exc:  # --help, which argparse prints and exits 0 on
        return int(exc.code) if exc.code else 0
    except ValueError as exc:  # a UsageError, or a library's own
        # a gate's refusal (``proximity._Refused``) carries the failing report
        # that says why; a ParseError comes from the term layer, once it is loaded
        report = getattr(exc, "report", None)
        if report is not None:
            return _print_report(report, args.as_json)
        terms = sys.modules.get("specker.terms")
        syntax = terms is not None and isinstance(exc, terms.ParseError)
        print(f"{'syntax error' if syntax else 'error'}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: what is still buffered goes to
        # devnull, so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
