"""Closed-form oracle for the results the benchmark checks.

Nothing here imports nslattice.  Pairings are written out per family
(d^2 - sum e^2 on the plane blowups, -n a^2 + 2ab - sum e^2 on the Hirzebruch
blowups) instead of being read off a Gram matrix, basis changes are rebuilt
from the images of the basis vectors, and the fixed multiple of a linear
system on F_n is found by scanning every candidate.
"""

from __future__ import annotations

HIRZEBRUCH = "hirzebruch"
BLOWUP_P2 = "blowup_p2"
BLOWUP_HIRZEBRUCH = "blowup_hirzebruch"


def rank(family: str, r: int | None) -> int:
    return {HIRZEBRUCH: 2, BLOWUP_P2: 1 + (r or 0), BLOWUP_HIRZEBRUCH: 2 + (r or 0)}[family]


def canonical(family: str, n: int | None, r: int | None) -> tuple[int, ...]:
    if family == BLOWUP_P2:
        return (-3,) + (1,) * r
    return (-2, -(n + 2)) + (1,) * (r or 0)


def gram(family: str, n: int | None, r: int | None) -> tuple[tuple[int, ...], ...]:
    size = rank(family, r)
    basis = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    return tuple(tuple(pairing(family, n, x, y) for y in basis) for x in basis)


def pairing(family: str, n: int | None, x, y) -> int:
    if family == BLOWUP_P2:
        return x[0] * y[0] - sum(p * q for p, q in zip(x[1:], y[1:]))
    a1, b1, a2, b2 = x[0], x[1], y[0], y[1]
    return -n * a1 * a2 + a1 * b2 + b1 * a2 - sum(p * q for p, q in zip(x[2:], y[2:]))


def genus(family: str, n: int | None, r: int | None, x) -> int:
    total = pairing(family, n, x, x) + pairing(family, n, canonical(family, n, r), x)
    return 1 + total // 2


def chi(family: str, n: int | None, r: int | None, x) -> int:
    total = pairing(family, n, x, x) - pairing(family, n, canonical(family, n, r), x)
    return 1 + total // 2


def plane_genus(coeffs) -> int:
    """p_a of d*H + sum e_i*E_i: 1 + (d^2 - sum e^2 - 3d - sum e) / 2."""
    d, es = coeffs[0], coeffs[1:]
    return 1 + (d * d - sum(e * e for e in es) - 3 * d - sum(es)) // 2


class Model:
    """A lattice descriptor plus witnesses, as plain tuples."""

    def __init__(self, family: str, n: int | None, r: int | None, curves):
        self.family, self.n, self.r = family, n, r
        self.curves = [(tuple(c), bool(p)) for c, p in curves]
        self.rank = rank(family, r)
        self.k = canonical(family, n, r)

    def pair(self, x, y) -> int:
        return pairing(self.family, self.n, x, y)

    def genus(self, x) -> int:
        return genus(self.family, self.n, self.r, x)

    def lattice_doc(self) -> dict:
        doc = {"family": self.family}
        if self.n is not None:
            doc["n"] = self.n
        if self.r is not None:
            doc["r"] = self.r
        return doc

    def doc(self) -> dict:
        return {
            "lattice": self.lattice_doc(),
            "curves": [{"coeffs": list(c), "prime": p} for c, p in self.curves],
        }


def nef_against_witnesses(m: Model, d) -> dict:
    if not m.curves:
        return {"verdict": "nef-relative", "empty_evidence": True}
    for c, p in m.curves:
        value = m.pair(d, c)
        if value < 0:
            return {
                "verdict": "violated-by",
                "violator": {"coeffs": list(c), "prime": p},
                "pairing": value,
            }
    return {"verdict": "nef-relative", "empty_evidence": False}


def forced_fixed_components(m: Model) -> list[list[int]]:
    minus_k = tuple(-c for c in m.k)
    return [list(c) for c, _ in m.curves if m.pair(minus_k, c) < 0]


def classify_fixed_component(m: Model, x) -> dict:
    pa, s, k2 = m.genus(x), m.pair(x, x), m.pair(m.k, m.k)
    if pa == 0 and s <= -1:
        return {"kind": "negative_rational", "n": -s}
    if pa == 1 and s <= 0 and k2 == 0:
        return {"kind": "genus_one", "self_int": s}
    if pa == 1 and s < 0 and k2 < 0:
        return {"kind": "genus_one", "self_int": s}
    return {"kind": "theorem_violation"}


def anticanonical_consequence_check(m: Model) -> tuple[str, int]:
    """(verdict, number of violators) of the global consistency check."""
    minus_k = tuple(-c for c in m.k)
    k2 = m.pair(m.k, m.k)
    if all(m.pair(minus_k, c) >= 0 for c, _ in m.curves):
        failed = (k2 < 0) + (m.rank > 10) + (m.family == BLOWUP_P2 and m.r > 9)
        if failed:
            return "witness set provably incomplete or surface not anticanonical-nef", failed
        return "consistent", 0
    if k2 < 0:
        return "inconclusive", 0
    # the theorem's violation, a forced component C with p_a(C) = 0 and
    # C.C > -3, cannot occur: adjunction gives C.C = -2 - K.C <= -3
    return "consistent", 0


def lemma_move_check(m: Model, x) -> str:
    if m.pair(x, x) <= 0:
        return "not applicable"
    bound = max(0, chi(m.family, m.n, m.r, x))
    return "consistent" if bound >= 2 else "theorem_violation"


def is_effective(n: int, a: int, b: int) -> tuple[bool, tuple[int, int] | None]:
    return (True, (a, b)) if a >= 0 and b >= 0 else (False, None)


def nef_decompose(n: int, a: int, b: int) -> tuple:
    """('nef', s, t) or ('not', violator, pairing), from x.F = a and x.C_n = b - n a."""
    if a < 0:
        return ("not", "F", a)
    if b - n * a < 0:
        return ("not", f"C{n}", b - n * a)
    return ("nef", a, b - n * a)


def fixed_multiple(n: int, a: int, b: int) -> int:
    """The fixed multiple j of C_n in |a C_n + b F|, by scanning every j."""
    if n == 0 or b >= a * n:
        return 0
    js = [j for j in range(1, a + 1) if (a - j) * n <= b <= (a - j + 1) * n - 1]
    if len(js) != 1:
        raise ValueError(f"{len(js)} admissible fixed multiples at n={n}, a={a}, b={b}")
    return js[0]


def _rebase(images, coeffs) -> tuple[int, ...]:
    return tuple(sum(c * img[i] for c, img in zip(coeffs, images)) for i in range(len(images[0])))


# images of the source basis vectors in the plane-blowup basis (H, E_1, ..)
F1_TO_P2 = ((0, 1), (1, -1))  # C_1 -> E_1, F -> H - E_1
BLF0_TO_P2 = ((1, 0, -1), (1, -1, 0), (1, -1, -1))  # C_0, F, E


def basis_change_f1_to_p2(coeffs) -> tuple[int, ...]:
    return _rebase(F1_TO_P2, coeffs)


def basis_change_blf0_to_p2(coeffs) -> tuple[int, ...]:
    return _rebase(BLF0_TO_P2, coeffs)
