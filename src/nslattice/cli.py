"""Command-line front end: every operation with JSON input and output.

One subcommand per invocation, one JSON document on standard output.
Coefficients are comma-separated integers in the fixed basis order
(use the ``--d=-2,-5`` form for vectors starting with a negative entry);
larger inputs go through ``--json FILE``, whose keys fill in anything not
given as a flag.  Payload values are read as exact JSON types: a float or
string where an integer belongs, or anything but ``true``/``false`` where a
boolean belongs, is a usage error, never coerced.  Exit codes: 0 success,
1 domain error (or a selfcheck document with ``"passed": false``), 2 usage
error (including a missing or malformed input), 3 theorem-violation verdict
under ``--strict``.  ``COMMANDS`` declares every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .blowup import (
    THEOREM_VIOLATION,
    CurveWitness,
    anticanonical_consequence_check,
    classify_fixed_component,
    forced_fixed_components,
    lemma_move_check,
    model_from_json,
    nef_against_witnesses,
)
from .errors import InputError, NSLatticeError
from .hirzebruch import (
    NefDecomposition,
    anticanonical_class,
    anticanonical_fixed_locus,
    fixed_mobile_decompose,
    is_effective,
    nef_decompose,
)
from .lattice import (
    Family,
    basis_change_blf0_to_p2,
    basis_change_f1_to_p2,
    blowup_p2_lattice,
    divisor_from_json,
    enumerate_negative_rational_classes,
    json_bool,
    json_int,
    json_object,
    lattice_from_json,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

CONFIG_ENV = "NSLATTICE_CONFIG"


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read JSON payload: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"malformed JSON payload {path}: {exc}") from exc
    return json_object(doc, f"payload {path}")


def _vector(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _inputs(args: argparse.Namespace) -> dict:
    """The ``--json`` payload with every input flag that was given laid over it."""
    payload = _read_json(args.json) if args.json else {}
    flags = {k: getattr(args, k) for k in args.dests if getattr(args, k) is not None}
    return {**payload, **flags}


def _class(inputs: dict, key: str = "d"):
    return divisor_from_json(inputs.get(key), "--" + key)


def _lattice(inputs: dict):
    # a nested "lattice" document, as in a model file, under the top-level keys and flags
    nested = inputs.get("lattice", {})
    return lattice_from_json({**nested, **inputs} if isinstance(nested, dict) else nested)


def cmd_intersect(inputs):
    lattice = _lattice(inputs)
    return {"value": lattice.intersect(_class(inputs, "d1"), _class(inputs, "d2"))}


def cmd_value(method, inputs):
    lattice = _lattice(inputs)
    return {"value": getattr(lattice, method)(_class(inputs))}


def cmd_basis_change(inputs):
    lattice = _lattice(inputs)
    d = _class(inputs)
    if lattice.family is Family.HIRZEBRUCH:
        out = basis_change_f1_to_p2(lattice, d)
        name, target = "f1_to_p2", blowup_p2_lattice(1)
    else:
        out = basis_change_blf0_to_p2(lattice, d)
        name, target = "blf0_to_p2", blowup_p2_lattice(2)
    return {"map": name, "target": target.to_json_dict(), "coeffs": list(out.coeffs)}


def cmd_enumerate(inputs):
    r = json_int(inputs.get("r"), "--r")
    self_int = json_int(inputs.get("self_int"), "--self-int")
    degree_bound = json_int(inputs.get("degree_bound", 7), "--degree-bound")
    lattice = blowup_p2_lattice(r)
    classes = enumerate_negative_rational_classes(lattice, self_int, degree_bound)
    return {
        "r": r,
        "self_int": self_int,
        "degree_bound": degree_bound,
        "count": len(classes),
        "classes": [cls.to_json_dict() for cls in classes],
    }


def _hirzebruch_inputs(inputs: dict) -> tuple[int, int, int]:
    return tuple(json_int(inputs.get(key), "--" + key) for key in "nab")


def cmd_hirzebruch_effective(inputs):
    n, a, b = _hirzebruch_inputs(inputs)
    witness = is_effective(n, a, b)
    doc = {"n": n, "a": a, "b": b, "effective": witness.effective}
    doc["multiplicities"] = list(witness.multiplicities) if witness else None
    return doc


def cmd_hirzebruch_nef(inputs):
    n, a, b = _hirzebruch_inputs(inputs)
    verdict = nef_decompose(n, a, b)
    doc = {"n": n, "a": a, "b": b}
    if isinstance(verdict, NefDecomposition):
        doc.update(nef=True, s=verdict.s, t=verdict.t)
    else:
        doc.update(nef=False, violator=verdict.violator, pairing=verdict.pairing)
    return doc


def cmd_hirzebruch_fixed_mobile(inputs):
    n, a, b = _hirzebruch_inputs(inputs)
    return fixed_mobile_decompose(n, a, b).to_json_dict()


def cmd_hirzebruch_anticanonical(inputs):
    n = json_int(inputs.get("n"), "--n")
    ac = anticanonical_class(n)
    dec = anticanonical_fixed_locus(n)
    return {"n": n, "class": {"a": ac.a, "b": ac.b}, **dec.to_json_dict()}


def _witness(inputs: dict) -> CurveWitness:
    return CurveWitness(_class(inputs), json_bool(inputs.get("prime", True), "prime"))


def cmd_blowup_nef_test(inputs):
    return nef_against_witnesses(model_from_json(inputs), _class(inputs)).to_json_dict()


def cmd_blowup_forced_fixed(inputs):
    forced = forced_fixed_components(model_from_json(inputs))
    return {"forced_fixed_components": [w.to_json_dict() for w in forced]}


def cmd_blowup_classify(inputs):
    return classify_fixed_component(model_from_json(inputs), _witness(inputs)).to_json_dict()


def cmd_blowup_consequences(inputs):
    witness_complete = json_bool(inputs.get("witness_complete", False), "witness_complete")
    return anticanonical_consequence_check(model_from_json(inputs), witness_complete).to_json_dict()


def cmd_blowup_lemma_move(inputs):
    anticanonical = json_bool(inputs.get("anticanonical", True), "anticanonical")
    report = lemma_move_check(
        model_from_json(inputs), _witness(inputs), anticanonical=anticanonical
    )
    return report.to_json_dict()


def cmd_selfcheck(inputs):
    # imported here, so that no other subcommand pays for it
    from .selfcheck import SelfcheckConfig, run_selfcheck

    if not inputs and os.environ.get(CONFIG_ENV):
        inputs = _read_json(os.environ[CONFIG_ENV])
    results = run_selfcheck(SelfcheckConfig.from_json_dict(inputs))
    return {
        "passed": all(res.passed for res in results),
        "checks": [res.to_json_dict() for res in results],
    }


# flag name -> add_argument keywords; argparse derives each dest from the name
_FLAGS = {
    "family": {"choices": [f.value for f in Family]},
    **dict.fromkeys(("n", "r", "a", "b", "self-int", "degree-bound"), {"type": int}),
    **dict.fromkeys(("d", "d1", "d2"), {"type": _vector, "help": "comma-separated coefficients"}),
}
_LATTICE_D = ("family", "n", "r", "d")
_NAB = ("n", "a", "b")

# (path, input flags, help, handler); a row without a handler is a group of operations
COMMANDS = (
    ("intersect", ("family", "n", "r", "d1", "d2"), "pairing of two classes", cmd_intersect),
    ("genus", _LATTICE_D, "arithmetic genus of a class", partial(cmd_value, "arithmetic_genus")),
    ("chi", _LATTICE_D, "Euler characteristic of a class", partial(cmd_value, "euler_characteristic")),
    ("h0-bound", _LATTICE_D, "Riemann-Roch lower bound for h^0", partial(cmd_value, "h0_lower_bound")),
    ("basis-change", _LATTICE_D, "rebase a class onto a plane-blowup basis", cmd_basis_change),
    ("enumerate", ("r", "self-int", "degree-bound"), "negative rational classes on a plane blowup",
     cmd_enumerate),
    ("hirzebruch", (), "monoids and fixed loci on F_n", None),
    ("hirzebruch effective", _NAB, "membership in the effective monoid", cmd_hirzebruch_effective),
    ("hirzebruch nef", _NAB, "membership in the nef monoid", cmd_hirzebruch_nef),
    ("hirzebruch fixed-mobile", _NAB, "fixed and mobile parts of |aC_n + bF|",
     cmd_hirzebruch_fixed_mobile),
    ("hirzebruch anticanonical", ("n",), "fixed locus of |-K|", cmd_hirzebruch_anticanonical),
    ("blowup", (), "witness-based tests on blown-up surfaces", None),
    ("blowup nef-test", ("d",), "nef test of a class against the witnesses", cmd_blowup_nef_test),
    ("blowup forced-fixed", (), "witnesses pairing negatively with -K", cmd_blowup_forced_fixed),
    ("blowup classify", ("d",), "classify a fixed component of |-K|", cmd_blowup_classify),
    ("blowup consequences", (), "consistency checks driven by -K", cmd_blowup_consequences),
    ("blowup lemma-move", ("d",), "check that a curve of positive square moves",
     cmd_blowup_lemma_move),
    ("selfcheck", (), "run the brute-force oracle suite", cmd_selfcheck),
)


def build_parser() -> argparse.ArgumentParser:
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
    for path, flags, help_text, handler in COMMANDS:
        group, _, name = path.rpartition(" ")
        if handler is None:
            p = groups[group].add_parser(name, help=help_text)
            groups[path] = p.add_subparsers(required=True, metavar="OP")
            continue
        p = groups[group].add_parser(name, parents=[common], help=help_text)
        dests = [p.add_argument("--" + flag, **_FLAGS[flag]).dest for flag in flags]
        p.set_defaults(handler=handler, dests=dests)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.handler(_inputs(args))
    except NSLatticeError as exc:
        print(f"nslattice: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InputError) else EXIT_DOMAIN
    print(json.dumps(doc, indent=2 if args.pretty else None))
    if doc.get("passed") is False:
        return EXIT_DOMAIN
    if args.strict and THEOREM_VIOLATION in (doc.get("kind"), doc.get("verdict")):
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
