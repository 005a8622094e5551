"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Expected values come from the independent oracles in
``oracles.py``, which were written and run before the library.
"""

import json
import random

import oracles
from nslattice import (
    CurveWitness,
    DivisorClass,
    NefDecomposition,
    SurfaceModel,
    anticanonical_fixed_locus,
    basis_change_blf0_to_p2,
    basis_change_f1_to_p2,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    classify_fixed_component,
    enumerate_negative_rational_classes,
    fixed_mobile_decompose,
    forced_fixed_components,
    hirzebruch_lattice,
    is_effective,
    nef_decompose,
)
from nslattice.cli import main
from nslattice.selfcheck import _inertia
from test_cli import GOLDEN, MODEL_B9, MODEL_BH51


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def test_criterion_1_anticanonical_fixed_locus():
    failures = []
    for n in range(3):
        dec = anticanonical_fixed_locus(n)
        if dec.j != 0 or not dec.fixed.is_zero():
            failures.append(f"nonzero fixed part at n={n}")
    for n in range(3, 51):
        dec = anticanonical_fixed_locus(n)
        if (dec.fixed.a, dec.fixed.b) != (1, 0) or dec.j != 1:
            failures.append(f"fixed part is not exactly the negative section at n={n}")
        if (dec.mobile.a, dec.mobile.b) != (1, n + 2):
            failures.append(f"mobile part wrong at n={n}")
    _report(1, "anticanonical fixed locus on ruled surfaces", failures)


def test_criterion_2_fixed_multiple_uniqueness():
    failures = []
    for n in range(1, 11):
        for a in range(1, 11):
            for b in range(a * n):
                js = oracles.bracketing_multiples(n, a, b)
                if len(js) != 1:
                    failures.append(f"{len(js)} admissible multiples at n={n}, a={a}, b={b}")
                    continue
                closed_form = a - b // n
                if closed_form != js[0]:
                    failures.append(f"closed form {closed_form} != scan {js[0]} at n={n}, a={a}, b={b}")
                if fixed_mobile_decompose(n, a, b).j != js[0]:
                    failures.append(f"library disagrees with scan at n={n}, a={a}, b={b}")
    _report(2, "uniqueness of the fixed multiple", failures)


def test_criterion_3_monoid_equivalence():
    failures = []
    for n in range(7):
        effective_set = oracles.generated_monoid((1, 0), (0, 1), 16)
        nef_set = oracles.generated_monoid((1, n), (0, 1), 16)
        for a in range(-8, 9):
            for b in range(-8, 9):
                if bool(is_effective(n, a, b)) != ((a, b) in effective_set):
                    failures.append(f"effective mismatch at n={n}, ({a},{b})")
                is_nef = isinstance(nef_decompose(n, a, b), NefDecomposition)
                pairing_nef = (
                    oracles.pairing_hirzebruch(n, (a, b), (0, 1)) >= 0
                    and oracles.pairing_hirzebruch(n, (a, b), (1, 0)) >= 0
                )
                if is_nef != ((a, b) in nef_set) or is_nef != pairing_nef:
                    failures.append(f"nef mismatch at n={n}, ({a},{b})")
    _report(3, "monoid membership vs exhaustive generation", failures)


def test_criterion_4_lattice_invariants():
    failures = []
    rng = random.Random(404)
    families = (
        lambda: hirzebruch_lattice(rng.randint(0, 20)),
        lambda: blowup_p2_lattice(rng.randint(0, 12)),
        lambda: blowup_hirzebruch_lattice(rng.randint(0, 20), rng.randint(0, 12)),
    )
    for make in families:
        for _ in range(10_000):
            lat = make()
            d = DivisorClass(tuple(rng.randint(-9, 9) for _ in range(lat.rank)))
            if (lat.self_intersection(d) + lat.canonical_pairing(d)) % 2 != 0:
                failures.append(f"odd adjunction sum on {lat.to_json_dict()}")
                break
    for n in range(21):
        for r in range(13):
            for lat in (
                hirzebruch_lattice(n),
                blowup_p2_lattice(r),
                blowup_hirzebruch_lattice(n, r),
            ):
                gram = lat.gram
                *signature, det = _inertia(gram)
                if abs(det) != 1:
                    failures.append(f"not unimodular: {lat.to_json_dict()}")
                if signature != [1, lat.rank - 1, 0]:
                    failures.append(f"wrong signature: {lat.to_json_dict()}")
                if signature != list(oracles.fraction_signature(gram)):
                    failures.append(f"signature routes disagree: {lat.to_json_dict()}")
                if det != oracles.fraction_determinant(gram):
                    failures.append(f"determinant routes disagree: {lat.to_json_dict()}")
            k2 = {
                hirzebruch_lattice(n): 8,
                blowup_p2_lattice(r): 9 - r,
                blowup_hirzebruch_lattice(n, r): 8 - r,
            }
            for lat, expected in k2.items():
                if lat.self_intersection(lat.canonical) != expected:
                    failures.append(f"K.K != {expected} on {lat.to_json_dict()}")
    _report(4, "parity, unimodularity, signature, K.K", failures)


def test_criterion_5_isometries():
    failures = []
    rng = random.Random(505)
    for fn, src, dst in (
        (basis_change_f1_to_p2, hirzebruch_lattice(1), blowup_p2_lattice(1)),
        (basis_change_blf0_to_p2, blowup_hirzebruch_lattice(0, 1), blowup_p2_lattice(2)),
    ):
        if fn(src, src.canonical) != dst.canonical:
            failures.append(f"{fn.__name__} moves the canonical class")
        basis = [src.basis_class(i) for i in range(src.rank)]
        for x in basis:
            for y in basis:
                if src.intersect(x, y) != dst.intersect(fn(src, x), fn(src, y)):
                    failures.append(f"{fn.__name__} breaks a basis pairing")
        for _ in range(1000):
            d1 = DivisorClass(tuple(rng.randint(-30, 30) for _ in range(src.rank)))
            d2 = DivisorClass(tuple(rng.randint(-30, 30) for _ in range(src.rank)))
            if src.intersect(d1, d2) != dst.intersect(fn(src, d1), fn(src, d2)):
                failures.append(f"{fn.__name__} breaks a random pairing")
                break
    _report(5, "basis changes are isometries fixing K", failures)


def test_criterion_6_enumeration_counts():
    failures = []
    for r in range(1, 9):
        lat = blowup_p2_lattice(r)
        at_7 = enumerate_negative_rational_classes(lat, -1, 7)
        at_12 = enumerate_negative_rational_classes(lat, -1, 12)
        if len(at_7) != len(at_12):
            failures.append(f"count unstable at r={r}: {len(at_7)} vs {len(at_12)}")
        oracle_count = oracles.count_negative_rational_classes(r, -1, 7)
        if len(at_7) != oracle_count:
            failures.append(f"library {len(at_7)} != oracle {oracle_count} at r={r}")
        if len(at_7) != oracles.MINUS_ONE_COUNTS_BOUND_7[r]:
            failures.append(f"count {len(at_7)} != frozen value at r={r}")
    for r, frozen in ((1, 1), (2, 3), (6, 27)):
        got = len(enumerate_negative_rational_classes(blowup_p2_lattice(r), -1, 7))
        if got != frozen:
            failures.append(f"r={r} count {got} != {frozen}")
    for r in (1, 2):
        got = {
            cls.coeffs
            for cls in enumerate_negative_rational_classes(blowup_p2_lattice(r), -1, 7)
        }
        if got != oracles.direct_negative_rational_classes(r, -1, 7):
            failures.append(f"set mismatch with direct search at r={r}")
    _report(6, "negative-curve enumeration counts and stability", failures)


def test_criterion_7_classifier():
    failures = []
    lat9 = blowup_p2_lattice(9)
    verdict = classify_fixed_component(
        SurfaceModel(lat9, ()), CurveWitness(-lat9.canonical)
    )
    if (verdict.kind, verdict.self_int) != ("genus_one", 0):
        failures.append("anticanonical class on nine points misclassified")
    for lat in (blowup_p2_lattice(8), blowup_hirzebruch_lattice(3, 2), hirzebruch_lattice(4)):
        if lat.self_intersection(lat.canonical) <= 0:
            failures.append("test lattice should have K.K > 0")
        verdict = classify_fixed_component(
            SurfaceModel(lat, ()), CurveWitness(lat.zero_class())
        )
        if verdict.kind != "theorem_violation":
            failures.append(f"genus-one square-zero class accepted with K.K > 0 on {lat.to_json_dict()}")
    for n in range(3, 51):
        lat = hirzebruch_lattice(n)
        model = SurfaceModel(
            lat, (CurveWitness(lat.basis_class(0)), CurveWitness(lat.basis_class(1)))
        )
        forced = forced_fixed_components(model)
        if len(forced) != 1:
            failures.append(f"expected one forced component at n={n}")
            continue
        verdict = classify_fixed_component(model, forced[0])
        if (verdict.kind, verdict.n) != ("negative_rational", n):
            failures.append(f"forced component misclassified at n={n}")
    _report(7, "fixed-component classifier", failures)


def test_criterion_8_forced_components_arithmetic():
    failures = []
    rng = random.Random(808)
    pool = (
        [hirzebruch_lattice(n) for n in range(13)]
        + [blowup_p2_lattice(r) for r in range(13)]
        + [blowup_hirzebruch_lattice(n, r) for n in range(9) for r in range(9)]
    )
    accepted = 0
    while accepted < 10_000:
        lat = pool[rng.randrange(len(pool))]
        d = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(lat.rank)))
        if lat.arithmetic_genus(d) != 0:
            continue
        s = lat.self_intersection(d)
        kd = lat.canonical_pairing(d)
        if s != -2 - kd:
            failures.append(f"adjunction identity fails for {list(d.coeffs)}")
            break
        if kd < 1:
            continue
        accepted += 1
        if s > -3:
            failures.append(f"K.D = {kd} >= 1 but D.D = {s} > -3")
            break
    _report(8, "rational classes blocking -K have square <= -3", failures)


def test_criterion_9_cli_transcripts(capsys, tmp_path):
    failures = []

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    for argv, expected in GOLDEN:
        code, first = run(argv)
        _, second = run(argv)
        if code != 0:
            failures.append(f"exit {code} for {' '.join(argv)}")
        if first != expected:
            failures.append(f"transcript drift for {' '.join(argv)}")
        if first != second:
            failures.append(f"nondeterministic output for {' '.join(argv)}")
    for name, model in (("b9.json", MODEL_B9), ("bh51.json", MODEL_BH51)):
        (tmp_path / name).write_text(json.dumps(model))
    blowup_cases = [
        ["blowup", "nef-test", "--json", str(tmp_path / "b9.json"), "--d=0,1,0,0,0,0,0,0,0,0"],
        ["blowup", "forced-fixed", "--json", str(tmp_path / "bh51.json")],
        ["blowup", "classify", "--json", str(tmp_path / "bh51.json"), "--d", "1,0,0"],
        ["blowup", "consequences", "--json", str(tmp_path / "b9.json")],
        ["blowup", "lemma-move", "--json", str(tmp_path / "b9.json"), "--d=1,0,0,0,0,0,0,0,0,0"],
    ]
    for argv in blowup_cases:
        code, first = run(argv)
        _, second = run(argv)
        if code != 0 or first != second:
            failures.append(f"blowup transcript problem for {argv[1]}")
        json.loads(first)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"random_classes": 200, "family_n_max": 4, "family_r_max": 4, "enum_r_max": 4})
    )
    code, first = run(["selfcheck", "--json", str(cfg_path)])
    _, second = run(["selfcheck", "--json", str(cfg_path)])
    if code != 0:
        failures.append("selfcheck failed")
    if first != second:
        failures.append("selfcheck output not byte-identical")
    doc = json.loads(first)
    if not doc.get("passed"):
        failures.append("selfcheck reported failures")
    _report(9, "CLI determinism and round-trip", failures)
