"""Command-line front end: every operation with JSON input and output.

One subcommand per invocation, one JSON document on standard output.  Inputs
come as flags or through ``--json FILE``, whose keys fill in anything not
given as a flag, and from nowhere else: the selfcheck config is a ``--json``
payload like any other, and no command reads the environment.  A flag's text
is read as the JSON its payload key would hold (``--d=null`` is absent), and
a class flag's as the list's entries:
``--d=-2,-5`` is ``"d": [-2, -5]``.  The library types each value where it
uses it and names it by its payload key: a float or string where an integer
belongs (``--r 1.5``, ``--r 07``), or anything but ``true``/``false`` where a
boolean belongs, is a usage error, never coerced.  Exit codes: 0 success, 1
domain error (or a selfcheck document with ``"passed": false``), 2 usage
error (including a missing or malformed input), 3 theorem-violation verdict
under ``--strict``.  ``COMMANDS`` declares every subcommand.  Each handler
imports the computing module it runs, so a call loads no other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from operator import methodcaller

from .errors import InputError, NSLatticeError
from .values import Family, _indexed, divisor_from_json, json_object

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read JSON payload: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # RecursionError: nested deeper than the decoder's stack allows
        raise InputError(f"malformed JSON payload {path}: {exc}") from exc
    return json_object(doc, f"payload {path}")


def _json_text(text: str, vector: bool = False):
    """The value a flag's text holds as JSON, as its payload key would: for a
    class flag other than ``null``, the list of its comma-separated entries.
    Text that is not JSON stays a plain string, which no number or list
    reader accepts.  JSON past the decoder's limits (an integer of more
    digits than the interpreter converts, or nesting deeper than its stack)
    is a usage error that names the limit, as in a ``--json`` payload, and
    echoes none of the text."""
    try:
        return json.loads(f"[{text}]" if vector and text != "null" else text)
    except json.JSONDecodeError:
        return text
    except (ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _inputs(args: argparse.Namespace) -> dict:
    """The ``--json`` payload with every input flag that was given laid over it;
    ``json_object`` drops the payload's nulls."""
    payload = _read_json(args.json) if args.json else {}
    flags = {k: getattr(args, k) for k in args.dests if getattr(args, k) is not None}
    return {**payload, **flags}


def _class(inputs: dict, key: str = "d"):
    return divisor_from_json(inputs.get(key), key)


def _lattice(inputs: dict):
    from .lattice import lattice_from_json

    # a nested "lattice" document, as in a model file, under the top-level keys and flags
    nested = inputs.get("lattice", {})
    return lattice_from_json({**nested, **inputs} if isinstance(nested, dict) else nested)


def cmd_value(method, keys, inputs):
    lattice = _lattice(inputs)
    return {"value": getattr(lattice, method)(*(_class(inputs, key) for key in keys))}


def cmd_basis_change(inputs):
    from .lattice import basis_change_to_p2, blowup_p2_lattice

    lattice = _lattice(inputs)
    out = basis_change_to_p2(lattice, _class(inputs)).coeffs
    source = ("bl" if lattice.family is Family.BLOWUP_HIRZEBRUCH else "") + _indexed("f", lattice.n)
    target = blowup_p2_lattice(len(out) - 1)
    return {"map": f"{source}_to_p2", "target": target.to_json_dict(), "coeffs": list(out)}


def cmd_enumerate(inputs):
    from .enumeration import enumerate_negative_rational_classes
    from .lattice import blowup_p2_lattice

    lattice = blowup_p2_lattice(inputs.get("r"))
    self_int, degree_bound = inputs.get("self_int"), inputs.get("degree_bound", 7)
    classes = enumerate_negative_rational_classes(lattice, self_int, degree_bound)
    return {
        "r": lattice.r,
        "self_int": self_int,
        "degree_bound": degree_bound,
        "count": len(classes),
        "classes": [cls.to_json_dict() for cls in classes],
    }


def cmd_hirzebruch_verdict(function, inputs):
    from . import hirzebruch

    n, a, b = map(inputs.get, "nab")
    return {"n": n, "a": a, "b": b, **getattr(hirzebruch, function)(n, a, b).to_json_dict()}


def cmd_hirzebruch_fixed_mobile(inputs):
    from .hirzebruch import fixed_mobile_decompose

    return fixed_mobile_decompose(*map(inputs.get, "nab")).to_json_dict()


def cmd_hirzebruch_anticanonical(inputs):
    from .hirzebruch import anticanonical_class, anticanonical_fixed_locus

    n = inputs.get("n")
    a, b = anticanonical_class(n).coeffs
    return {"n": n, "class": {"a": a, "b": b}, **anticanonical_fixed_locus(n).to_json_dict()}


def _witness(inputs: dict) -> CurveWitness:
    from .blowup import CurveWitness

    return CurveWitness(_class(inputs), inputs.get("prime", True))


def cmd_blowup_verdict(function, read, inputs):
    from . import blowup

    return getattr(blowup, function)(blowup.model_from_json(inputs), read(inputs)).to_json_dict()


def cmd_blowup_forced_fixed(inputs):
    from .blowup import forced_fixed_components, model_from_json

    forced = forced_fixed_components(model_from_json(inputs))
    return {"forced_fixed_components": [w.to_json_dict() for w in forced]}


def cmd_selfcheck(inputs):
    from .selfcheck import SelfcheckConfig, run_selfcheck

    results = run_selfcheck(SelfcheckConfig.from_json_dict(inputs))
    return {
        "passed": all(res.passed for res in results),
        "checks": [res.to_json_dict() for res in results],
    }


# flag name -> add_argument keywords; argparse derives each dest from the name, and
# the metavar shows the family names as argparse's choices would
_CLASS_FLAG = {"type": partial(_json_text, vector=True), "help": "comma-separated coefficients"}
_FLAGS = {
    "family": {"type": _json_text, "metavar": "{" + ",".join(f.value for f in Family) + "}"},
    **dict.fromkeys(("n", "r", "a", "b", "self-int", "degree-bound"), {"type": _json_text}),
    **dict.fromkeys(("d", "d1", "d2"), _CLASS_FLAG),
}
_LATTICE_D = ("family", "n", "r", "d")
_NAB = ("n", "a", "b")

# (path, input flags, help, handler); a row without a handler is a group of operations
COMMANDS = (
    ("intersect", ("family", "n", "r", "d1", "d2"), "pairing of two classes",
     partial(cmd_value, "intersect", ("d1", "d2"))),
    ("genus", _LATTICE_D, "arithmetic genus of a class",
     partial(cmd_value, "arithmetic_genus", ("d",))),
    ("chi", _LATTICE_D, "Euler characteristic of a class",
     partial(cmd_value, "euler_characteristic", ("d",))),
    ("h0-bound", _LATTICE_D,
     "lower bound for h^0: max(0, chi) if K - D is certified not effective, else 0",
     partial(cmd_value, "h0_lower_bound", ("d",))),
    ("basis-change", _LATTICE_D, "rebase a class on F_n (n odd) or Bl_r F_n (r >= 1) onto "
     "Bl_(r+1) P^2, numerically only for n >= 2", cmd_basis_change),
    ("enumerate", ("r", "self-int", "degree-bound"), "negative rational classes on a plane blowup",
     cmd_enumerate),
    ("hirzebruch", (), "monoids and fixed loci on F_n", None),
    ("hirzebruch effective", _NAB, "membership in the effective monoid",
     partial(cmd_hirzebruch_verdict, "is_effective")),
    ("hirzebruch nef", _NAB, "membership in the nef monoid",
     partial(cmd_hirzebruch_verdict, "nef_decompose")),
    ("hirzebruch fixed-mobile", _NAB, "fixed and mobile parts of |aC_n + bF|",
     cmd_hirzebruch_fixed_mobile),
    ("hirzebruch anticanonical", ("n",), "fixed locus of |-K|", cmd_hirzebruch_anticanonical),
    ("blowup", (), "witness-based tests on blown-up surfaces", None),
    ("blowup nef-test", ("d",), "nef test of a class against the witnesses",
     partial(cmd_blowup_verdict, "nef_against_witnesses", _class)),
    ("blowup forced-fixed", (), "witnesses pairing negatively with -K", cmd_blowup_forced_fixed),
    ("blowup classify", ("d",), "classify a fixed component of |-K|",
     partial(cmd_blowup_verdict, "classify_fixed_component", _witness)),
    ("blowup consequences", (), "consistency checks driven by -K",
     partial(cmd_blowup_verdict, "anticanonical_consequence_check",
             methodcaller("get", "witness_complete", False))),
    ("blowup lemma-move", ("d",), "check that a curve of positive square moves",
     partial(cmd_blowup_verdict, "lemma_move_check", _witness)),
    ("selfcheck", (), "run the brute-force oracle suite", cmd_selfcheck),
)


def _rows(argv: list[str]) -> tuple:
    """The rows on the path to the leaf named by argv's first one or two words, else all."""
    for words in (argv[:1], argv[:2]):
        if any(row[0].split() == words and row[3] is not None for row in COMMANDS):
            return tuple(row for row in COMMANDS if words[: row[0].count(" ") + 1] == row[0].split())
    return COMMANDS


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the rows on ``argv``'s path, which
    parses and fails on ``argv`` exactly as the whole tree would."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="FILE", help="JSON payload filling missing inputs")
    common.add_argument("--pretty", action="store_true", help="indent the output")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when the result is a theorem-violation verdict",
    )

    parser = argparse.ArgumentParser(
        prog="nslattice",
        description="Exact divisor-class calculus on rational surface lattices.",
    )
    groups = {"": parser.add_subparsers(required=True, metavar="COMMAND")}
    for path, flags, help_text, handler in COMMANDS if argv is None else _rows(argv):
        group, _, name = path.rpartition(" ")
        if handler is None:
            p = groups[group].add_parser(name, help=help_text, description=help_text)
            groups[path] = p.add_subparsers(required=True, metavar="OP")
            continue
        p = groups[group].add_parser(name, parents=[common], help=help_text, description=help_text)
        dests = [p.add_argument("--" + flag, **_FLAGS[flag]).dest for flag in flags]
        p.set_defaults(handler=handler, dests=dests)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.handler(_inputs(args))
    except NSLatticeError as exc:
        print(f"nslattice: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InputError) else EXIT_DOMAIN
    try:
        print(json.dumps(doc, indent=2 if args.pretty else None), flush=True)
    except BrokenPipeError as exc:
        # the reader is gone: point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"nslattice: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        # json.dumps builds the whole text first: an integer past the
        # interpreter's digit limit fails before anything reaches stdout
        print(f"nslattice: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if doc.get("passed") is False:
        return EXIT_DOMAIN
    # only blowup verdicts hold a kind or a verdict, so blowup is loaded by then
    if args.strict and ("kind" in doc or "verdict" in doc):
        from .blowup import THEOREM_VIOLATION

        if THEOREM_VIOLATION in (doc.get("kind"), doc.get("verdict")):
            return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
