"""Brute-force oracle suite backing the ``selfcheck`` CLI command.

Every check re-derives a result of the library by exhaustive search or by an
independent formula and compares.  Bounds live in a config record whose
defaults match the acceptance suite; a JSON config file can override them for
quicker smoke runs.  All randomness is seeded, so output is reproducible.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from math import inf
from struct import unpack
from typing import Callable, Iterator

from .blowup import (
    NEGATIVE_RATIONAL,
    THEOREM_VIOLATION,
    CurveWitness,
    SurfaceModel,
    classify_fixed_component,
    forced_fixed_components,
)
from .enumeration import enumerate_negative_rational_classes
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
    SurfaceLattice,
    basis_change_to_p2,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    hirzebruch_lattice,
)
from .values import _exact_class, _Record, _refuse, _set, _shown, json_object

_TRI = bytes((x - 4) * (x - 3) // 2 if x < 9 else 0 for x in range(256))  # C(e + 1, 2), e = x - 4 <= 4
_BLOCK = 1 << 13  # bytes per rng.randbytes call of _uniform, unless one word is longer


class SelfcheckConfig(_Record):
    """Scan ranges and sample sizes; defaults match the acceptance suite.  Built
    from keywords only, each a field's name: any other is refused."""

    anticanonical_n_max: int = 50
    uniqueness_n_max: int = 10
    uniqueness_a_max: int = 10
    monoid_n_max: int = 6
    monoid_coeff_bound: int = 8
    monoid_copies: int = 16
    random_classes: int = 10_000
    random_coeff_bound: int = 9  # parity and isometry draws' [-b, b]; the negative-curve box is [-4, 4]
    family_n_max: int = 20
    family_r_max: int = 12
    isometry_random_classes: int = 1_000
    enum_r_max: int = 8
    enum_degree_bound: int = 7
    enum_stability_bound: int = 12
    seed: int = 20260808

    def __init__(self, **given: int) -> None:
        names = self._fields
        if unknown := given.keys() - names:
            raise InputError(f"unknown selfcheck config keys: {_shown(sorted(unknown))}")
        for name in names:  # every field is an int before any limit reads one
            if type(value := given.get(name, getattr(self, name))) is not int:
                raise _refuse(value, name, "an integer")
            _set(self, name, value)
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
        for name in names:
            least, most, why = limits.get(name, (0, inf, ""))
            value = getattr(self, name)
            if not least <= value <= most:
                limit = f">= {_shown(least)}{why}" if value < least else f"<= {most:,}"
                raise InputError(f"selfcheck config {name} must be {limit}, got {_shown(value)}")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SelfcheckConfig":
        return cls(**json_object(doc, "selfcheck config"))

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class CheckResult(_Record):
    """One check's outcome: its name, whether it passed, and its detail line."""

    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)

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
            if g1.a * g2.b - g1.b * g2.a == 0:
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
        if (dec.fixed.n, dec.mobile.n, *(dec.fixed + dec.mobile).coeffs) != (n, n, 2, n + 2):
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


def _uniform(rng: random.Random, m: int) -> Iterator[bytes | list[int]]:
    """Blocks of values uniform in range(m), for any m >= 1, read from rng.randbytes alone.

    A block is one randbytes call of _BLOCK bytes (or of one word, if longer), cut into
    little-endian words of 1, 2, 4, 8, 16, ... bytes, the fewest that hold m - 1.  A
    word x is kept, as x % m, only below the largest multiple of m under 256^width, so
    each value has the same number of preimages.  Bytes (m <= 256) go through one
    bytes.translate into a bytes block.  A block is drawn only when the consumer asks
    for it, so streams sharing rng draw their blocks in the order their values are used.
    """
    width = 1
    while 8 * width < (m - 1).bit_length():
        width *= 2
    keep, count = (1 << 8 * width) // m * m, max(1, _BLOCK // width)
    table, delete = bytes(x % m for x in range(256)), bytes(range(keep, 256))  # read if m <= 256
    while True:
        block = rng.randbytes(count * width)
        if width == 1:
            yield block.translate(table, delete)
            continue
        if width <= 8:
            words = unpack(f"<{count}{'HIQ'[width.bit_length() - 2]}", block)
        else:
            words = (int.from_bytes(block[i : i + width], "little") for i in range(0, len(block), width))
        yield [x % m for x in words if x < keep]


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
    """D.D + K.D is even for every class on every built-in lattice: cfg.random_classes on
    each family, a uniform pick from its lattices, then uniform coefficients in [-b, b]."""
    rng, bound = random.Random(cfg.seed), cfg.random_coeff_bound
    pool = _family_sweep(cfg)
    plane, blown_up = cfg.family_n_max + 1, cfg.family_n_max + cfg.family_r_max + 2
    coeffs = chain.from_iterable(_uniform(rng, 2 * bound + 1))
    failures = []
    for family in (pool[:plane], pool[plane:blown_up], pool[blown_up:]):
        for i in islice(chain.from_iterable(_uniform(rng, len(family))), cfg.random_classes):
            lat = family[i]
            d = _exact_class(tuple([x - bound for x in islice(coeffs, lat.rank)]))
            total = lat.self_intersection(d) + lat.canonical_pairing(d)
            if total % 2 != 0:
                failures.append(f"odd adjunction on {lat.to_json_dict()} for {list(d.coeffs)}")
    return _result(
        "adjunction_parity", failures, f"{3 * cfg.random_classes} random classes checked"
    )


def _inertia(rows) -> tuple[int, int, int, int]:
    """Inertia (positive, negative, zero) and determinant of a symmetric integer matrix.

    Symmetric congruence reduction over the integers: the elimination step
    rescales a basis vector by the pivot p, which multiplies its diagonal entry
    by a positive square and therefore preserves all signs, and multiplies the
    determinant by p^2.  The reduced matrix is diagonal, so the determinant is
    the product of the pivots over those squares, an exact division, and 0
    once a row has no pivot.  No floating point and no rationals are involved.
    """
    m = [list(row) for row in rows]
    n = len(m)
    pos = neg = zero = 0
    det = scale = 1
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                # all-zero diagonal: adding basis vector j to i makes the
                # pivot 2 * m[i][j] != 0
                for k in range(n):
                    m[i][k] += m[j][k]
                for k in range(n):
                    m[k][i] += m[k][j]
        p = m[i][i]
        det *= p
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            f = m[i][j]
            if f == 0:
                continue
            scale *= p * p
            for k in range(n):
                m[j][k] = p * m[j][k] - f * m[i][k]
            for k in range(n):
                m[k][j] = p * m[k][j] - f * m[k][i]
    return pos, neg, zero, 0 if zero else det // scale


def check_lattice_invariants(cfg: SelfcheckConfig) -> CheckResult:
    """Unimodularity, signature (1, rank-1) and K.K = 10 - rank on every family."""
    failures = []
    count = 0
    for lat in _family_sweep(cfg):
        count += 1
        pos, neg, zero, det = _inertia(lat.gram)
        if abs(det) != 1:
            failures.append(f"Gram determinant not unimodular for {lat.to_json_dict()}")
        if (pos, neg, zero) != (1, lat.rank - 1, 0):
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
    """The rebasing map preserves all pairings and sends K to K from F_1 and Bl_1 F_0,
    on the basis pairs and on pairs of classes with uniform coefficients in [-b, b]."""
    rng, bound = random.Random(cfg.seed + 1), cfg.random_coeff_bound
    coeffs = chain.from_iterable(_uniform(rng, 2 * bound + 1))
    failures, fn = [], basis_change_to_p2
    for src in (hirzebruch_lattice(1), blowup_hirzebruch_lattice(0, 1)):
        dst, on = blowup_p2_lattice(src.rank - 1), f"from {src.to_json_dict()}"
        if fn(src, src.canonical) != dst.canonical:
            failures.append(f"canonical class not preserved {on}")
        basis = [src.basis_class(i) for i in range(src.rank)]
        for i, bi in enumerate(basis):
            for bj in basis[i:]:
                if src.intersect(bi, bj) != dst.intersect(fn(src, bi), fn(src, bj)):
                    failures.append(f"basis pairing broken {on}")
        for _ in range(cfg.isometry_random_classes):
            d1 = _exact_class(tuple([x - bound for x in islice(coeffs, src.rank)]))
            d2 = _exact_class(tuple([x - bound for x in islice(coeffs, src.rank)]))
            if src.intersect(d1, d2) != dst.intersect(fn(src, d1), fn(src, d2)):
                failures.append(f"random pairing broken {on}")
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

    # E_1 on Bl_1 P^2 is a (-1)-curve: n = 1 is the least n of a negative_rational verdict
    lat1 = blowup_p2_lattice(1)
    verdict = classify_fixed_component(SurfaceModel(lat1, ()), CurveWitness(lat1.basis_class(1)))
    if (verdict.kind, verdict.n) != (NEGATIVE_RATIONAL, 1):
        failures.append("exceptional curve on the 1-fold blowup misclassified")

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


def _head_screen(pool: list[SurfaceLattice]) -> bytes:
    """need[81 i + 9 x + y] = p_a(head) + 1 for pool[i] and head (x - 4, y - 4), or (x - 4) on P^2,
    if 0 <= p_a(head) <= 10 (rank - 2), else 0.  Each later d_i is on an E_i, orthogonal to the
    rest with E_i.E_i = K.E_i = -1: it takes C(d_i + 1, 2), in 0..10, off p_a."""
    heads = [(k // 9 - 4, k % 9 - 4) for k in range(81)]
    codes, chunks = {}, []  # per (n, rank > 1); a head's p_a is at most 25 unless _genus is wrong
    for lat in pool:
        rank, tail = lat.rank, max(lat.rank - 2, 0)
        if (key := (lat.n, rank > 1)) not in codes:
            genera = (lat._genus((*d, *(0,) * tail)[:rank]) for d in heads)
            codes[key] = bytes(p + 1 if 0 <= p < 255 else 0 for p in genera)
        chunks.append(codes[key].translate(bytes(range(min(10 * tail + 2, 256))).ljust(256, b"\0")))
    return b"".join(chunks)


def check_negative_curve_adjunction(cfg: SelfcheckConfig) -> CheckResult:
    """For p_a = 0 classes, self-int = -2 - K.D; K.D >= 1 then forces <= -3.  An attempt is a
    uniform pool lattice and head in [-4, 4]^2; a head that passes _head_screen draws its tail,
    the next rank - 2 bytes x = d + 4 of a second stream, and each p_a = 0 draw is paired."""
    rng, cap, failures = random.Random(cfg.seed + 2), cfg.random_classes * 500, []
    lattices = _family_sweep(cfg)
    need, pool = _head_screen(lattices), [(lat, max(lat.rank - 2, 0)) for lat in lattices]
    picks, draws = chain.from_iterable(_uniform(rng, len(need))), _uniform(rng, 9)
    block, pos, accepted = b"", 0, 0
    for v in filter(need.__getitem__, islice(picks, cap)):
        lat, tail = pool[v // 81]
        end = pos + tail
        while end > len(block):
            block, pos, end = block[pos:] + next(draws), 0, tail
        raw = block[pos:end]
        pos = end
        if sum(raw.translate(_TRI)) != need[v] - 1:
            continue
        x0, xh = divmod(v % 81, 9)
        d = _exact_class((x0 - 4, xh - 4)[: lat.rank] + tuple([x - 4 for x in raw]))
        s, kd = lat.self_intersection(d), lat.canonical_pairing(d)
        if s != -2 - kd:
            failures.append(f"adjunction identity broken for {list(d.coeffs)}")
        if kd < 1:
            continue
        accepted += 1
        if s > -3:
            failures.append(f"K.D = {kd} >= 1 but self-intersection {s} > -3")
        if accepted == cfg.random_classes:
            break
    if accepted < cfg.random_classes:
        failures.append(f"only {accepted} qualifying classes found in {cap} samples")
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
    """Every check under cfg, or under the default config when cfg is None."""
    if cfg is None:
        cfg = SelfcheckConfig()
    elif not isinstance(cfg, SelfcheckConfig):
        raise _refuse(cfg, "cfg", "a SelfcheckConfig")
    return [check(cfg) for check in ALL_CHECKS]
