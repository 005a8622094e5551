"""Command-line front end: every operation with JSON input and output.

One subcommand per invocation, one JSON document on standard output.
Coefficients are comma-separated integers in the fixed basis order
(use the ``--d=-2,-5`` form for vectors starting with a negative entry);
larger inputs go through ``--json FILE``, whose keys fill in anything not
given as a flag.  Payload values are read as exact JSON types: a float or
string where an integer belongs, or anything but ``true``/``false`` where a
boolean belongs, is a usage error, never coerced.  Exit codes: 0 success,
1 domain error, 2 usage error (including a missing or malformed input),
3 theorem-violation verdict under ``--strict``.
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

# argparse destinations that steer the run rather than feed the computation
_CONTROL = {"command", "subcommand", "handler", "json", "pretty", "strict"}


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
    """The ``--json`` payload with every flag that was given laid over it."""
    payload = _read_json(args.json) if args.json else {}
    flags = {k: v for k, v in vars(args).items() if k not in _CONTROL and v is not None}
    return {**payload, **flags}


def _class(inputs: dict, key: str = "d"):
    return divisor_from_json(inputs.get(key), "--" + key)


def _lattice(inputs: dict):
    # a nested "lattice" document, as in a model file, under the top-level keys and flags
    nested = inputs.get("lattice", {})
    return lattice_from_json({**nested, **inputs} if isinstance(nested, dict) else nested)


def cmd_intersect(inputs):
    lattice = _lattice(inputs)
    return {"value": lattice.intersect(_class(inputs, "d1"), _class(inputs, "d2"))}, False


def cmd_value(method, inputs):
    lattice = _lattice(inputs)
    return {"value": getattr(lattice, method)(_class(inputs))}, False


def cmd_basis_change(inputs):
    lattice = _lattice(inputs)
    d = _class(inputs)
    if lattice.family is Family.HIRZEBRUCH:
        out = basis_change_f1_to_p2(lattice, d)
        name, target = "f1_to_p2", blowup_p2_lattice(1)
    else:
        out = basis_change_blf0_to_p2(lattice, d)
        name, target = "blf0_to_p2", blowup_p2_lattice(2)
    return {
        "map": name,
        "target": target.to_json_dict(),
        "coeffs": list(out.coeffs),
    }, False


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
    }, False


def _hirzebruch_inputs(inputs: dict) -> tuple[int, int, int]:
    return tuple(json_int(inputs.get(key), "--" + key) for key in "nab")


def cmd_hirzebruch_effective(inputs):
    n, a, b = _hirzebruch_inputs(inputs)
    witness = is_effective(n, a, b)
    doc = {"n": n, "a": a, "b": b, "effective": witness.effective}
    doc["multiplicities"] = list(witness.multiplicities) if witness else None
    return doc, False


def cmd_hirzebruch_nef(inputs):
    n, a, b = _hirzebruch_inputs(inputs)
    verdict = nef_decompose(n, a, b)
    doc = {"n": n, "a": a, "b": b}
    if isinstance(verdict, NefDecomposition):
        doc.update(nef=True, s=verdict.s, t=verdict.t)
    else:
        doc.update(nef=False, violator=verdict.violator, pairing=verdict.pairing)
    return doc, False


def cmd_hirzebruch_fixed_mobile(inputs):
    n, a, b = _hirzebruch_inputs(inputs)
    return fixed_mobile_decompose(n, a, b).to_json_dict(), False


def cmd_hirzebruch_anticanonical(inputs):
    n = json_int(inputs.get("n"), "--n")
    ac = anticanonical_class(n)
    dec = anticanonical_fixed_locus(n)
    return {"n": n, "class": {"a": ac.a, "b": ac.b}, **dec.to_json_dict()}, False


def _witness(inputs: dict) -> CurveWitness:
    return CurveWitness(_class(inputs), json_bool(inputs.get("prime", True), "prime"))


def cmd_blowup_nef_test(inputs):
    return nef_against_witnesses(model_from_json(inputs), _class(inputs)).to_json_dict(), False


def cmd_blowup_forced_fixed(inputs):
    forced = forced_fixed_components(model_from_json(inputs))
    return {"forced_fixed_components": [w.to_json_dict() for w in forced]}, False


def cmd_blowup_classify(inputs):
    verdict = classify_fixed_component(model_from_json(inputs), _witness(inputs))
    return verdict.to_json_dict(), verdict.kind == THEOREM_VIOLATION


def cmd_blowup_consequences(inputs):
    witness_complete = json_bool(inputs.get("witness_complete", False), "witness_complete")
    report = anticanonical_consequence_check(model_from_json(inputs), witness_complete)
    return report.to_json_dict(), report.verdict == THEOREM_VIOLATION


def cmd_blowup_lemma_move(inputs):
    anticanonical = json_bool(inputs.get("anticanonical", True), "anticanonical")
    report = lemma_move_check(
        model_from_json(inputs), _witness(inputs), anticanonical=anticanonical
    )
    return report.to_json_dict(), report.verdict == THEOREM_VIOLATION


def cmd_selfcheck(inputs):
    # imported here, so that no other subcommand pays for it
    from .selfcheck import SelfcheckConfig, run_selfcheck

    if not inputs and os.environ.get(CONFIG_ENV):
        inputs = _read_json(os.environ[CONFIG_ENV])
    results = run_selfcheck(SelfcheckConfig.from_json_dict(inputs))
    return {
        "passed": all(res.passed for res in results),
        "checks": [res.to_json_dict() for res in results],
    }, False


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
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def lattice_flags(p):
        p.add_argument("--family", choices=[f.value for f in Family])
        p.add_argument("--n", type=int)
        p.add_argument("--r", type=int)

    p = sub.add_parser("intersect", parents=[common], help="pairing of two classes")
    lattice_flags(p)
    p.add_argument("--d1", type=_vector, help="comma-separated coefficients")
    p.add_argument("--d2", type=_vector, help="comma-separated coefficients")
    p.set_defaults(handler=cmd_intersect)

    for name, handler, help_text in (
        ("genus", partial(cmd_value, "arithmetic_genus"), "arithmetic genus of a class"),
        ("chi", partial(cmd_value, "euler_characteristic"), "Euler characteristic of a class"),
        ("h0-bound", partial(cmd_value, "h0_lower_bound"), "Riemann-Roch lower bound for h^0"),
        ("basis-change", cmd_basis_change, "rebase a class onto a plane-blowup basis"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        lattice_flags(p)
        p.add_argument("--d", type=_vector, help="comma-separated coefficients")
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "enumerate", parents=[common], help="negative rational classes on a plane blowup"
    )
    p.add_argument("--r", type=int)
    p.add_argument("--self-int", dest="self_int", type=int)
    p.add_argument("--degree-bound", dest="degree_bound", type=int)
    p.set_defaults(handler=cmd_enumerate)

    hz = sub.add_parser("hirzebruch", help="monoids and fixed loci on F_n")
    hz_sub = hz.add_subparsers(dest="subcommand", required=True, metavar="OP")
    for name, handler, needs_ab in (
        ("effective", cmd_hirzebruch_effective, True),
        ("nef", cmd_hirzebruch_nef, True),
        ("fixed-mobile", cmd_hirzebruch_fixed_mobile, True),
        ("anticanonical", cmd_hirzebruch_anticanonical, False),
    ):
        p = hz_sub.add_parser(name, parents=[common])
        p.add_argument("--n", type=int)
        if needs_ab:
            p.add_argument("--a", type=int)
            p.add_argument("--b", type=int)
        p.set_defaults(handler=handler)

    bl = sub.add_parser("blowup", help="witness-based tests on blown-up surfaces")
    bl_sub = bl.add_subparsers(dest="subcommand", required=True, metavar="OP")
    for name, handler, needs_d in (
        ("nef-test", cmd_blowup_nef_test, True),
        ("forced-fixed", cmd_blowup_forced_fixed, False),
        ("classify", cmd_blowup_classify, True),
        ("consequences", cmd_blowup_consequences, False),
        ("lemma-move", cmd_blowup_lemma_move, True),
    ):
        p = bl_sub.add_parser(name, parents=[common])
        if needs_d:
            p.add_argument("--d", type=_vector, help="comma-separated coefficients")
        p.set_defaults(handler=handler)

    p = sub.add_parser("selfcheck", parents=[common], help="run the brute-force oracle suite")
    p.set_defaults(handler=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, violation = args.handler(_inputs(args))
    except NSLatticeError as exc:
        print(f"nslattice: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InputError) else EXIT_DOMAIN
    print(json.dumps(doc, indent=2 if args.pretty else None))
    if args.command == "selfcheck" and not doc["passed"]:
        return EXIT_DOMAIN
    if violation and args.strict:
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
