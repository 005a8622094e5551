"""Brute-force oracle suite backing the ``selfcheck`` CLI command.

Every check re-derives a result of the library by exhaustive search or by an
independent formula and compares.  Bounds live in a config dataclass whose
defaults match the acceptance suite; a JSON config file can override them for
quicker smoke runs.  All randomness is seeded, so output is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from math import inf
from typing import Callable

from .blowup import (
    NEGATIVE_RATIONAL,
    THEOREM_VIOLATION,
    CurveWitness,
    SurfaceModel,
    classify_fixed_component,
    forced_fixed_components,
)
from .errors import InputError
from .hirzebruch import (
    NefDecomposition,
    anticanonical_fixed_locus,
    effective_generators,
    fixed_mobile_decompose,
    is_effective,
    nef_decompose,
    nef_generators,
)
from .lattice import (
    MAX_BLOWUP_POINTS,
    DivisorClass,
    SurfaceLattice,
    _exact_class,
    _new,
    _refuse,
    _set,
    _shown,
    basis_change_blf0_to_p2,
    basis_change_f1_to_p2,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    determinant,
    enumerate_negative_rational_classes,
    hirzebruch_lattice,
    json_object,
    signature,
)


@dataclass(frozen=True)
class SelfcheckConfig:
    """Scan ranges and sample sizes; defaults match the acceptance suite."""

    anticanonical_n_max: int = 50
    uniqueness_n_max: int = 10
    uniqueness_a_max: int = 10
    monoid_n_max: int = 6
    monoid_coeff_bound: int = 8
    monoid_copies: int = 16
    random_classes: int = 10_000
    random_coeff_bound: int = 9
    family_n_max: int = 20
    family_r_max: int = 12
    isometry_random_classes: int = 1_000
    enum_r_max: int = 8
    enum_degree_bound: int = 7
    enum_stability_bound: int = 12
    seed: int = 20260808

    def __post_init__(self) -> None:
        for f in fields(self):  # every field is an int before any limit reads one
            if type(value := getattr(self, f.name)) is not int:
                raise _refuse(value, f.name, "an integer")
        # (-1)-classes are finite only up to r = 8, and the stability check needs both
        # degree bounds at the largest degree of one at enum_r_max (a value out of
        # range is refused before they are read); the enumeration refuses 0
        r, top = self.enum_r_max, len(MINUS_ONE_MAX_DEGREE) - 1
        least = max(1, MINUS_ONE_MAX_DEGREE[r]) if 0 <= r <= top else 1
        degree = (least, inf, f" when enum_r_max is {_shown(r)}")
        # each field's least and most value, checked in field order, so a limit read
        # from another field comes after that field; every field but the seed is a
        # bound, a range end or a count, so at least 0
        limits = {
            # the monoid check's generator sums cover its whole box only then
            "monoid_copies": (self.monoid_coeff_bound, inf, " (monoid_coeff_bound)"),
            # the family checks build a blowup lattice for every r up to it
            "family_r_max": (0, MAX_BLOWUP_POINTS, ""),
            "enum_r_max": (0, top, ""),
            "enum_degree_bound": degree,
            "enum_stability_bound": degree,
            "seed": (-inf, inf, ""),
        }
        for f in fields(self):
            least, most, why = limits.get(f.name, (0, inf, ""))
            value = getattr(self, f.name)
            if not least <= value <= most:
                limit = f">= {_shown(least)}{why}" if value < least else f"<= {most:,}"
                raise InputError(f"selfcheck config {f.name} must be {limit}, got {_shown(value)}")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SelfcheckConfig":
        doc = json_object(doc, "selfcheck config")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown selfcheck config keys: {_shown(sorted(unknown))}")
        return cls(**doc)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _result(name: str, failures: list[str], detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} failures; first: {failures[0]}")
    return CheckResult(name, True, detail)


def _generated_pairs(g1: tuple[int, int], g2: tuple[int, int], copies: int) -> set[tuple[int, int]]:
    return {
        (u * g1[0] + v * g2[0], u * g1[1] + v * g2[1])
        for u in range(copies + 1)
        for v in range(copies + 1)
    }


def check_monoid_bruteforce(cfg: SelfcheckConfig) -> CheckResult:
    """Monoid membership agrees with exhaustive generator sums and pairings."""
    failures = []
    cases = 0
    for n in range(cfg.monoid_n_max + 1):
        eff_set = _generated_pairs((1, 0), (0, 1), cfg.monoid_copies)
        nef_set = _generated_pairs((1, n), (0, 1), cfg.monoid_copies)
        bound = cfg.monoid_coeff_bound
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                cases += 1
                eff = bool(is_effective(n, a, b))
                if eff != ((a, b) in eff_set):
                    failures.append(f"effective mismatch at n={n}, a={a}, b={b}")
                nef = isinstance(nef_decompose(n, a, b), NefDecomposition)
                pairing_pred = a >= 0 and b - n * a >= 0
                if nef != ((a, b) in nef_set) or nef != pairing_pred:
                    failures.append(f"nef mismatch at n={n}, a={a}, b={b}")
                if nef and not eff:
                    failures.append(f"nef class not effective at n={n}, a={a}, b={b}")
    return _result("monoid_bruteforce_equivalence", failures, f"{cases} lattice points checked")


def check_monoid_minimal_generation(cfg: SelfcheckConfig) -> CheckResult:
    """Neither monoid can be generated by a single class."""
    failures = []
    for n in range(cfg.monoid_n_max + 1):
        for tag, (g1, g2) in (
            ("effective", effective_generators(n)),
            ("nef", nef_generators(n)),
        ):
            det = g1.a * g2.b - g1.b * g2.a
            if det == 0:
                failures.append(f"{tag} generators dependent at n={n}")
    return _result(
        "monoid_minimal_generation",
        failures,
        f"generator pairs independent for n <= {cfg.monoid_n_max}",
    )


def check_fixed_mobile_uniqueness(cfg: SelfcheckConfig) -> CheckResult:
    """Exactly one fixed multiple satisfies the bracketing; closed form matches."""
    failures = []
    cases = 0
    for n in range(1, cfg.uniqueness_n_max + 1):
        for a in range(1, cfg.uniqueness_a_max + 1):
            for b in range(a * n):
                cases += 1
                js = [
                    j
                    for j in range(1, a + 1)
                    if (a - j) * n <= b <= (a - j + 1) * n - 1
                ]
                if len(js) != 1:
                    failures.append(f"{len(js)} admissible j at n={n}, a={a}, b={b}")
                    continue
                if fixed_mobile_decompose(n, a, b).j != js[0]:
                    failures.append(f"closed form disagrees with scan at n={n}, a={a}, b={b}")
    return _result("fixed_mobile_uniqueness", failures, f"{cases} systems scanned")


def check_anticanonical_sweep(cfg: SelfcheckConfig) -> CheckResult:
    """|-K| on F_n has no fixed component iff n <= 2, else exactly one C_n."""
    failures = []
    for n in range(cfg.anticanonical_n_max + 1):
        dec = anticanonical_fixed_locus(n)
        if dec.total().to_json_dict() != {"n": n, "a": 2, "b": n + 2}:
            failures.append(f"decomposition does not resum at n={n}")
        if n <= 2:
            if dec.j != 0 or not dec.fixed.is_zero():
                failures.append(f"unexpected fixed part at n={n}")
        else:
            if dec.j != 1 or (dec.fixed.a, dec.fixed.b) != (1, 0):
                failures.append(f"fixed part is not C_n at n={n}")
            if (dec.mobile.a, dec.mobile.b) != (1, n + 2):
                failures.append(f"mobile part wrong at n={n}")
    return _result(
        "anticanonical_fixed_locus_sweep", failures, f"n = 0..{cfg.anticanonical_n_max} swept"
    )


def _random_class(rng: random.Random, rank: int, bound: int) -> DivisorClass:
    """The class of ``rank`` calls of ``rng.randint(-bound, bound)``, made cheaply.

    On CPython ``randint(-b, b)`` is ``-b + _randbelow(2b + 1)``, and
    ``_randbelow`` is ``Random._randbelow_with_getrandbits``: draw
    ``m.bit_length()`` bits until the value is below m.  The loop below is
    that function inlined, so it makes the same ``getrandbits`` calls in the
    same order: the classes drawn and the generator state after them never
    change.  The draws are plain ints, so no coefficient check is needed.
    ``bound`` is at least 0, as every config's is.
    """
    m = 2 * bound + 1
    getrandbits = rng.getrandbits
    k = m.bit_length()
    coeffs = []
    for _ in range(rank):
        x = getrandbits(k)
        while x >= m:
            x = getrandbits(k)
        coeffs.append(x - bound)
    return _exact_class(tuple(coeffs))


def _family_sweep(cfg: SelfcheckConfig) -> list[SurfaceLattice]:
    """Every built-in lattice in the configured ranges, each built once:
    F_n by n, Bl_r P^2 by r, and Bl_r F_n by n, then r."""
    ns, rs = range(cfg.family_n_max + 1), range(cfg.family_r_max + 1)
    return [
        *map(hirzebruch_lattice, ns),
        *map(blowup_p2_lattice, rs),
        *(blowup_hirzebruch_lattice(n, r) for n in ns for r in rs),
    ]


def check_adjunction_parity(cfg: SelfcheckConfig) -> CheckResult:
    """D.D + K.D is even for every class on every built-in lattice."""
    rng = random.Random(cfg.seed)
    randint = rng.randint
    n_max, r_max = cfg.family_n_max, cfg.family_r_max
    pool = _family_sweep(cfg)
    # one lattice draw per class, by the randint calls that pick the factory's
    # arguments, n before r on Bl_r F_n, read at its family's offset in the pool
    plane, blown_up, width = n_max + 1, n_max + r_max + 2, r_max + 1
    draws = (
        lambda: pool[randint(0, n_max)],
        lambda: pool[plane + randint(0, r_max)],
        lambda: pool[blown_up + randint(0, n_max) * width + randint(0, r_max)],
    )
    failures = []
    for draw in draws:
        for _ in range(cfg.random_classes):
            lat = draw()
            d = _random_class(rng, lat.rank, cfg.random_coeff_bound)
            total = lat.self_intersection(d) + lat.canonical_pairing(d)
            if total % 2 != 0:
                failures.append(f"odd adjunction on {lat.to_json_dict()} for {list(d.coeffs)}")
    return _result(
        "adjunction_parity", failures, f"{3 * cfg.random_classes} random classes checked"
    )


def check_lattice_invariants(cfg: SelfcheckConfig) -> CheckResult:
    """Unimodularity, signature (1, rank-1) and K.K = 10 - rank on every family."""
    failures = []
    count = 0
    for lat in _family_sweep(cfg):
        count += 1
        gram = lat.gram
        if abs(determinant(gram)) != 1:
            failures.append(f"Gram determinant not unimodular for {lat.to_json_dict()}")
        if signature(gram) != (1, lat.rank - 1, 0):
            failures.append(f"signature not (1, rank-1) for {lat.to_json_dict()}")
        k2 = lat.self_intersection(lat.canonical)
        expected = 10 - lat.rank  # Noether's formula: K.K + rho = 10 on a rational surface
        if k2 != expected:
            failures.append(f"K.K = {k2} != {expected} for {lat.to_json_dict()}")
    return _result("lattice_invariants", failures, f"{count} lattices swept")


def check_canonical_convention(cfg: SelfcheckConfig) -> CheckResult:
    """The sign convention for K is pinned by adjunction on the basis curves."""
    failures = [
        f"p_a({label}) != 0 on {lat.to_json_dict()}: canonical sign is wrong"
        for lat in _family_sweep(cfg)
        for i, label in enumerate(lat.basis_labels)
        if lat.arithmetic_genus(lat.basis_class(i)) != 0
    ]
    return _result(
        "canonical_convention", failures, "basis curves have arithmetic genus 0 under the chosen K"
    )


def check_basis_change_isometries(cfg: SelfcheckConfig) -> CheckResult:
    """Both rebasing maps preserve all pairings and send K to K."""
    rng = random.Random(cfg.seed + 1)
    failures = []
    maps = (
        (hirzebruch_lattice(1), blowup_p2_lattice(1), basis_change_f1_to_p2),
        (blowup_hirzebruch_lattice(0, 1), blowup_p2_lattice(2), basis_change_blf0_to_p2),
    )
    for src, dst, fn in maps:
        if fn(src, src.canonical) != dst.canonical:
            failures.append(f"canonical class not preserved by {fn.__name__}")
        basis = [src.basis_class(i) for i in range(src.rank)]
        for i, bi in enumerate(basis):
            for bj in basis[i:]:
                if src.intersect(bi, bj) != dst.intersect(fn(src, bi), fn(src, bj)):
                    failures.append(f"basis pairing broken by {fn.__name__}")
        for _ in range(cfg.isometry_random_classes):
            d1 = _random_class(rng, src.rank, cfg.random_coeff_bound)
            d2 = _random_class(rng, src.rank, cfg.random_coeff_bound)
            if src.intersect(d1, d2) != dst.intersect(fn(src, d1), fn(src, d2)):
                failures.append(f"random pairing broken by {fn.__name__}")
    return _result(
        "basis_change_isometries",
        failures,
        f"basis pairs plus {cfg.isometry_random_classes} random pairs per map",
    )


KNOWN_MINUS_ONE_COUNTS = {1: 1, 2: 3, 6: 27}
# largest degree of a (-1)-class on Bl_r P^2 for r = 0..8; from r = 9 on there are infinitely many
MINUS_ONE_MAX_DEGREE = (0, 0, 1, 1, 1, 2, 2, 3, 6)


def check_enumeration_stability(cfg: SelfcheckConfig) -> CheckResult:
    """(-1)-class counts are stable in the degree bound and match known values."""
    failures = []
    counts = {}
    for r in range(1, cfg.enum_r_max + 1):
        lat = blowup_p2_lattice(r)
        base = enumerate_negative_rational_classes(lat, -1, cfg.enum_degree_bound)
        again = enumerate_negative_rational_classes(lat, -1, cfg.enum_stability_bound)
        counts[r] = len(base)
        if len(base) != len(again):
            failures.append(
                f"count changed from {len(base)} to {len(again)} at r={r} when "
                f"raising the degree bound"
            )
        for cls in base:
            if lat.self_intersection(cls) != -1 or lat.arithmetic_genus(cls) != 0:
                failures.append(f"bad class {list(cls.coeffs)} at r={r}")
            if lat.canonical_pairing(cls) != -1:
                failures.append(f"adjunction broken for {list(cls.coeffs)} at r={r}")
    for r, expected in KNOWN_MINUS_ONE_COUNTS.items():
        if r <= cfg.enum_r_max and counts.get(r) != expected:
            failures.append(f"count at r={r} is {counts.get(r)}, expected {expected}")
    summary = ", ".join(f"r={r}: {c}" for r, c in sorted(counts.items()))
    return _result("minus_one_enumeration_stability", failures, summary)


def check_classifier_cases(cfg: SelfcheckConfig) -> CheckResult:
    """Classifier reproduces the anticanonical fixed-component dichotomy."""
    failures = []

    # genus-one fixed component with self-intersection 0 lives only on K.K = 0
    lat9 = blowup_p2_lattice(9)
    model9 = SurfaceModel(lat9, (CurveWitness(-lat9.canonical),))
    verdict = classify_fixed_component(model9, model9.curves[0])
    if (verdict.kind, verdict.self_int) != ("genus_one", 0):
        failures.append("anticanonical class on the 9-fold blowup misclassified")

    # on K.K > 0 the only class with p_a = 1 and self-intersection 0 is zero,
    # and the classifier must reject it
    lat8 = blowup_p2_lattice(8)
    model8 = SurfaceModel(lat8, ())
    verdict = classify_fixed_component(model8, CurveWitness(lat8.zero_class()))
    if verdict.kind != THEOREM_VIOLATION:
        failures.append("synthetic genus-one class accepted despite K.K > 0")

    # forced fixed components on F_n reproduce the n <= 2 / n >= 3 dichotomy
    for n in range(cfg.anticanonical_n_max + 1):
        lat = hirzebruch_lattice(n)
        model = SurfaceModel(
            lat, (CurveWitness(lat.basis_class(0)), CurveWitness(lat.basis_class(1)))
        )
        forced = forced_fixed_components(model)
        if n <= 2:
            if forced:
                failures.append(f"unexpected forced fixed component at n={n}")
        else:
            if len(forced) != 1 or forced[0].cls != lat.basis_class(0):
                failures.append(f"forced fixed components wrong at n={n}")
                continue
            verdict = classify_fixed_component(model, forced[0])
            if (verdict.kind, verdict.n) != (NEGATIVE_RATIONAL, n):
                failures.append(f"C_n misclassified at n={n}")
    return _result(
        "classifier_theorem_cases", failures, f"dichotomy swept for n = 0..{cfg.anticanonical_n_max}"
    )


def check_negative_curve_adjunction(cfg: SelfcheckConfig) -> CheckResult:
    """For p_a = 0 classes, self-int = -2 - K.D; K.D >= 1 then forces <= -3."""
    rng = random.Random(cfg.seed + 2)
    failures = []
    # each lattice with its coordinate range, built once; rng.randrange(size) and
    # rank calls of rng.randint(-4, 4) are inlined as in _random_class
    pool = [(lat, range(lat.rank)) for lat in _family_sweep(cfg)]
    size = len(pool)
    getrandbits = rng.getrandbits
    k = size.bit_length()
    accepted = 0
    attempts = 0
    cap = cfg.random_classes * 500
    while accepted < cfg.random_classes and attempts < cap:
        attempts += 1
        i = getrandbits(k)
        while i >= size:
            i = getrandbits(k)
        lat, coords = pool[i]
        coeffs = []
        for _ in coords:
            x = getrandbits(4)
            while x >= 9:
                x = getrandbits(4)
            coeffs.append(x - 4)
        d = _new(DivisorClass)
        _set(d, "coeffs", tuple(coeffs))
        if lat.arithmetic_genus(d) != 0:
            continue
        s = lat.self_intersection(d)
        kd = lat.canonical_pairing(d)
        if s != -2 - kd:
            failures.append(f"adjunction identity broken for {list(d.coeffs)}")
        if kd < 1:
            continue
        accepted += 1
        if s > -3:
            failures.append(f"K.D = {kd} >= 1 but self-intersection {s} > -3")
    if accepted < cfg.random_classes:
        failures.append(f"only {accepted} qualifying classes found in {attempts} samples")
    return _result(
        "negative_curve_adjunction", failures, f"{accepted} classes with p_a = 0 and K.D >= 1"
    )


ALL_CHECKS: tuple[Callable[[SelfcheckConfig], CheckResult], ...] = (
    check_monoid_bruteforce,
    check_monoid_minimal_generation,
    check_fixed_mobile_uniqueness,
    check_anticanonical_sweep,
    check_adjunction_parity,
    check_lattice_invariants,
    check_canonical_convention,
    check_basis_change_isometries,
    check_enumeration_stability,
    check_classifier_cases,
    check_negative_curve_adjunction,
)


def run_selfcheck(cfg: SelfcheckConfig | None = None) -> list[CheckResult]:
    cfg = cfg or SelfcheckConfig()
    return [check(cfg) for check in ALL_CHECKS]
