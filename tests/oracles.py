"""Independent oracles used by the test suite.

Everything here recomputes library results by a different route: symbolic
bilinear expansion instead of Gram-matrix products, exhaustive generator sums
instead of inequality tests, multiset enumeration with multinomial counting
instead of the pruned lexicographic search, rational elimination instead of
integer congruence reduction, plain randint/randrange calls instead of the
selfcheck's inlined sampler, and sections counted on P^1, or as the
polynomials through concrete points of the plane over a prime field, instead
of Riemann-Roch.  Only the reference witness reader imports the package, to
compose the library's own readers as they were first composed.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction


def pairing_hirzebruch(n, x, y):
    """(a1 C + b1 F).(a2 C + b2 F) expanded by bilinearity on F_n."""
    a1, b1 = x
    a2, b2 = y
    return -n * a1 * a2 + a1 * b2 + b1 * a2


def self_intersection_hirzebruch(n, a, b):
    """(a C_n + b F)^2 in closed form on F_n."""
    return -n * a * a + 2 * a * b


def pairing_blowup_p2(x, y):
    """Expansion on (H, E_1..E_r): H.H = 1, E_i.E_i = -1, mixed terms vanish."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def pairing_blowup_hirzebruch(n, x, y):
    return pairing_hirzebruch(n, x[:2], y[:2]) - sum(
        a * b for a, b in zip(x[2:], y[2:])
    )


def genus_blowup_p2(coeffs):
    """p_a for d*H + sum e_i*E_i via the expanded adjunction formula."""
    k = (-3,) + (1,) * (len(coeffs) - 1)
    total = pairing_blowup_p2(coeffs, coeffs) + pairing_blowup_p2(k, coeffs)
    assert total % 2 == 0
    return 1 + total // 2


def h0_hirzebruch(n, a, b):
    """h^0(a C_n + b F) on F_n, exactly.  The ruling pi: F_n -> P^1 has
    pi_* O(a C_n + b F) = Sym^a(O + O(-n)) (x) O(b) for a >= 0 (Hartshorne,
    Algebraic Geometry, V.2), a sum of the O(b - i n) for i = 0..a, and a
    class with a < 0 has no sections."""
    return sum(max(0, b - i * n + 1) for i in range(a + 1))


# -- sections through concrete points of the plane, over GF(P) --------------

P = 2**61 - 1  # a Mersenne prime


def _rank_mod_p(rows, width):
    """The rank of a list of rows of length ``width`` over GF(P), by elimination."""
    rows, rank = [row[:] for row in rows], 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        head = [x * inv % P for x in rows[rank]]
        rows[rank] = head
        for i in range(rank + 1, len(rows)):
            if f := rows[i][col]:
                rows[i] = [(x - f * h) % P for x, h in zip(rows[i], head)]
        rank += 1
    return rank


def h0_through_points(points, coeffs):
    """h^0(dH + sum e_i E_i) on P^2 blown up at the distinct affine points
    ``points`` over GF(P), for ``coeffs`` = (d, e_1..e_r): the dimension of the
    polynomials of degree <= d in x, y that vanish to order m_i = max(0, -e_i)
    at the i-th point (an E_i with e_i > 0 is a fixed part and adds nothing).
    Order m at (a, b) means that every coefficient of (x - a)^j (y - b)^k with
    j + k < m is 0; for the monomial x^u y^v that coefficient is
    C(u, j) a^(u - j) C(v, k) b^(v - k)."""
    d, *e = coeffs
    if d < 0:
        return 0
    monomials = [(u, t - u) for t in range(d + 1) for u in range(t + 1)]
    rows = [
        [math.comb(u, j) * pow(a, u - j, P) * math.comb(v, k) * pow(b, v - k, P) % P
         if u >= j and v >= k else 0
         for u, v in monomials]
        for (a, b), ei in zip(points, e)
        for j in range(-ei)
        for k in range(-ei - j)
    ]
    return len(monomials) - _rank_mod_p(rows, len(monomials))


def _affine(rng, xy):
    """A random invertible affine map of GF(P)^2 applied to each point of ``xy``."""
    while True:
        a, b, c, d, s, t = (rng.randrange(P) for _ in range(6))
        if (a * d - b * c) % P:
            return [((a * x + b * y + s) % P, (c * x + d * y + t) % P) for x, y in xy]


def plane_points(kind, r, rng):
    """r distinct points of GF(P)^2: in general position (with high probability),
    on one line, on two lines (alternately), or on a conic, the image of the
    parabola (t, t^2) under an affine map."""
    ts = rng.sample(range(1, P), r)
    if kind == "general":
        return [(rng.randrange(P), rng.randrange(P)) for _ in range(r)]
    if kind == "line":
        return _affine(rng, [(t, 0) for t in ts])
    if kind == "two lines":
        # the lines y = 0 and y = x, which meet at the origin, never drawn
        return _affine(rng, [(t, t * (i % 2)) for i, t in enumerate(ts)])
    assert kind == "conic"
    return _affine(rng, [(t, t * t % P) for t in ts])


def generated_monoid(g1, g2, copies):
    """All sums u*g1 + v*g2 with 0 <= u, v <= copies, as a set of pairs."""
    return {
        (u * g1[0] + v * g2[0], u * g1[1] + v * g2[1])
        for u in range(copies + 1)
        for v in range(copies + 1)
    }


def bracketing_multiples(n, a, b):
    """All j in [1, a] with (a-j)*n <= b <= (a-j+1)*n - 1, by exhaustive scan."""
    return [j for j in range(1, a + 1) if (a - j) * n <= b <= (a - j + 1) * n - 1]


def direct_negative_rational_classes(r, self_int, dmax):
    """Coefficient tuples (d, e_1..e_r) found by raw product search; r <= 3 only."""
    out = set()
    for d in range(dmax + 1):
        for ms in itertools.product(range(-dmax, dmax + 1), repeat=r):
            coeffs = (d,) + tuple(-m for m in ms)
            if pairing_blowup_p2(coeffs, coeffs) != self_int:
                continue
            if genus_blowup_p2(coeffs) == 0:
                out.add(coeffs)
    return out


def box_negative_rational_classes(r, self_int, bound):
    """Every (d, e_1..e_r) with 0 <= d <= bound and |e_i| <= bound that has the
    given self-intersection and genus zero, tried one by one; sorted."""
    box = range(-bound, bound + 1)
    return sorted(
        c
        for c in itertools.product(range(bound + 1), *[box] * r)
        if pairing_blowup_p2(c, c) == self_int and genus_blowup_p2(c) == 0
    )


def count_negative_rational_classes(r, self_int, dmax):
    """Count classes d*H - sum m_i E_i with the given self-intersection and
    genus zero by enumerating value multisets and counting their arrangements.
    """
    total = 0
    for d in range(dmax + 1):
        want_sum = 3 * d - 2 - self_int
        want_sq = d * d - self_int
        if want_sq < 0:
            continue

        def multisets(k, s1, s2, hi):
            # nonincreasing tuples, entries in [-dmax, hi], sum s1, squares s2 >= 0
            if k == 0:
                return [()] if (s1 == 0 and s2 == 0) else []
            found = []
            cap = min(dmax, math.isqrt(s2))
            for m in range(min(hi, cap), -cap - 1, -1):
                if s1 - m > (k - 1) * m:
                    continue
                if s2 - m * m < 0:
                    continue
                for rest in multisets(k - 1, s1 - m, s2 - m * m, m):
                    found.append((m,) + rest)
            return found

        for tup in multisets(r, want_sum, want_sq, dmax):
            total += arrangement_count(tup)
    return total


def arrangement_count(values):
    """The distinct orderings of ``values``: len! over the factorial of each
    value's multiplicity."""
    count = math.factorial(len(values))
    for dup in Counter(values).values():
        count //= math.factorial(dup)
    return count


# counts computed with the two functions above before the library existed
MINUS_ONE_COUNTS_BOUND_7 = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
MINUS_TWO_COUNTS_BOUND_7 = {1: 0, 2: 2, 3: 7, 4: 16, 5: 30, 6: 51, 7: 84, 8: 148}


def fraction_signature(gram):
    """Inertia of a symmetric matrix by congruence reduction over Q."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
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
                for k in range(n):
                    m[i][k] += m[j][k]
                for k in range(n):
                    m[k][i] += m[k][j]
        p = m[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[i][j] == 0:
                continue
            f = m[i][j] / p
            for k in range(n):
                m[j][k] -= f * m[i][k]
            for k in range(n):
                m[k][j] -= f * m[k][i]
    return pos, neg, zero


def fraction_determinant(gram):
    """Determinant by plain Gaussian elimination over Q."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    assert det.denominator == 1
    return int(det)


def family_gram(family, n, r):
    """Gram matrix of a built-in family, each entry the pairing of two basis
    vectors by the bilinear expansions above."""
    if family == "hirzebruch":
        rank, pair = 2, lambda x, y: pairing_hirzebruch(n, x, y)
    elif family == "blowup_p2":
        rank, pair = 1 + r, pairing_blowup_p2
    else:
        rank, pair = 2 + r, lambda x, y: pairing_blowup_hirzebruch(n, x, y)
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return tuple(tuple(pair(x, y) for y in basis) for x in basis)


def family_canonical(family, n, r):
    """K of a built-in family: -3H + sum E_i on Bl_r P^2, and
    -2C_n - (n + 2)F + sum E_i on F_n and Bl_r F_n."""
    if family == "blowup_p2":
        return (-3,) + (1,) * r
    return (-2, -(n + 2)) + (1,) * (r or 0)


def gram_pairing(gram, x, y):
    """sum_i sum_j x_i G_ij y_j over every entry of the Gram matrix."""
    return sum(x[i] * g * y[j] for i, row in enumerate(gram) for j, g in enumerate(row))


# -- the selfcheck's random draws, replayed with plain randint/randrange -----

def family_rank(family, r):
    """Rank of NS: 2 on F_n, 1 + r on Bl_r P^2, 2 + r on Bl_r F_n."""
    if family == "hirzebruch":
        return 2
    return (1 if family == "blowup_p2" else 2) + r


def replay_adjunction_parity_draws(seed, n_max, r_max, bound, per_family):
    """The ((family, n, r), coeffs) draws of the adjunction-parity check.

    ``per_family`` classes on F_n, then on Bl_r P^2, then on Bl_r F_n; each
    lattice is drawn by randint for n, then r, and each coefficient by
    randint(-bound, bound).  Returns the draws and the generator after them.
    """
    rng = random.Random(seed)
    draws = []
    for family in ("hirzebruch", "blowup_p2", "blowup_hirzebruch"):
        for _ in range(per_family):
            n = None if family == "blowup_p2" else rng.randint(0, n_max)
            r = None if family == "hirzebruch" else rng.randint(0, r_max)
            rank = family_rank(family, r)
            draws.append(((family, n, r), tuple(rng.randint(-bound, bound) for _ in range(rank))))
    return draws, rng


def replay_negative_curve_draws(seed, n_max, r_max, attempts):
    """The first ``attempts`` ((family, n, r), coeffs) draws of the
    negative-curve check: a randrange pick from the pool (F_n by n, Bl_r P^2
    by r, Bl_r F_n by n then r), then coefficients by randint(-4, 4).
    Returns the draws and the generator after them."""
    ns, rs = range(n_max + 1), range(r_max + 1)
    pool = (
        [("hirzebruch", n, None) for n in ns]
        + [("blowup_p2", None, r) for r in rs]
        + [("blowup_hirzebruch", n, r) for n in ns for r in rs]
    )
    rng = random.Random(seed)
    draws = []
    for _ in range(attempts):
        spec = pool[rng.randrange(len(pool))]
        rank = family_rank(spec[0], spec[2])
        draws.append((spec, tuple(rng.randint(-4, 4) for _ in range(rank))))
    return draws, rng


def reference_witness_from_json(doc):
    """witness_from_json as first written: json_object drops the document's
    nulls, then divisor_from_json reads the class and json_bool the flag."""
    from nslattice.blowup import CurveWitness
    from nslattice.values import divisor_from_json, json_bool, json_object

    doc = json_object(doc, "witness")
    return CurveWitness(divisor_from_json(doc), json_bool(doc.get("prime", True), "prime"))


# The witness verdicts of nslattice.blowup as they were first written: every
# number comes from a fresh call to the lattice's public arithmetic_genus,
# self_intersection, canonical_pairing or h0_lower_bound, with K.K taken as
# K's own square.  They take the library's model and witness objects and
# return the documents their to_json_dict() would print.


def reference_forced_fixed_components(model):
    lat = model.lattice
    return [w for w in model.curves if lat.canonical_pairing(w.cls) > 0]


def reference_classify_fixed_component(model, witness):
    lat = model.lattice
    pa = lat.arithmetic_genus(witness.cls)
    s = lat.self_intersection(witness.cls)
    k2 = lat.self_intersection(lat.canonical)
    if pa == 0 and s <= -1:
        return {"kind": "negative_rational", "n": -s}
    if pa != 1 or s > 0:
        reason = (
            f"no fixed component of an anticanonical system has arithmetic genus {pa} "
            f"and self-intersection {s}"
        )
    elif s == 0 and k2 != 0:
        reason = f"a genus-one fixed component of self-intersection 0 requires K.K = 0, but K.K = {k2}"
    elif k2 > 0:
        reason = (
            f"K.K = {k2} > 0 forces every fixed component to be a negative rational "
            f"curve, but this class has arithmetic genus 1"
        )
    else:
        return {"kind": "genus_one", "self_int": s}
    return {"kind": "theorem_violation", "reason": reason}


def reference_anticanonical_consequence_check(model, witness_complete):
    lat = model.lattice
    k2 = lat.self_intersection(lat.canonical)
    forced = reference_forced_fixed_components(model)
    details = []
    if not forced:
        if not model.curves:
            details.append("no witnesses supplied; the nef verdict is vacuous")
        else:
            details.append(f"-K pairs >= 0 with all {len(model.curves)} witnesses")
        details.append(
            "witness list asserted complete: -K is nef"
            if witness_complete
            else "witness list not asserted complete: nef evidence is relative only"
        )
        checks = [(f"K.K = {k2} >= 0", k2 >= 0), (f"rho = {lat.rank} <= 10", lat.rank <= 10)]
        if lat.family == "blowup_p2":
            checks.append((f"r = {lat.r} <= 9", lat.r <= 9))
        failed = []
        for text, ok in checks:
            details.append(f"{text}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failed.append(text)
        if failed:
            verdict = "witness set provably incomplete or surface not anticanonical-nef"
            return {"verdict": verdict, "details": details, "violators": failed}
        return {"verdict": "consistent", "details": details, "violators": []}
    first = forced[0].cls
    details.append(
        f"-K pairs negatively with witness {list(first.coeffs)} "
        f"(pairing {-lat.canonical_pairing(first)})"
    )
    if k2 < 0:
        details.append(f"K.K = {k2} < 0: no forced consequence to verify")
        return {"verdict": "inconclusive", "details": details, "violators": []}
    details.append(f"K.K = {k2} >= 0 and -K is not nef against the witnesses")
    for w in forced:
        pa = lat.arithmetic_genus(w.cls)
        if pa == 0:
            details.append(
                f"forced fixed component {list(w.cls.coeffs)}: p_a = 0, "
                f"self-intersection {lat.self_intersection(w.cls)} <= -3: ok"
            )
        else:
            details.append(
                f"forced fixed component {list(w.cls.coeffs)}: p_a = {pa}, "
                "not rational; outside this check"
            )
    return {"verdict": "consistent", "details": details, "violators": []}


def reference_lemma_move_check(model, witness):
    lat = model.lattice
    s = lat.self_intersection(witness.cls)
    if s <= 0:
        details = [f"self-intersection {s} <= 0: no conclusion about moving"]
        return {"verdict": "not applicable", "details": details, "violators": []}
    bound = lat.h0_lower_bound(witness.cls)
    details = [
        f"self-intersection {s} > 0",
        f"K pairing {lat.canonical_pairing(witness.cls)}",
        f"h^0 lower bound {bound}",
    ]
    if bound >= 2:
        details.append("bound >= 2: the class moves")
        return {"verdict": "consistent", "details": details, "violators": []}
    details.append(
        "bound < 2 is impossible for a prime class of positive "
        "self-intersection on an anticanonical surface"
    )
    violators = [{"coeffs": list(witness.cls.coeffs), "prime": True}]
    return {"verdict": "theorem_violation", "details": details, "violators": violators}
