"""Based integral lattices of rational surfaces and exact divisor-class arithmetic.

Three lattice families are built in:

* ``hirzebruch``        -- NS(F_n), basis (C_n, F), Gram [[-n, 1], [1, 0]];
* ``blowup_p2``         -- NS of P^2 blown up at r points, basis (H, E_1..E_r);
* ``blowup_hirzebruch`` -- NS of F_n blown up at r points, basis (C_n, F, E_1..E_r).

Every coefficient, pairing and genus is a plain Python integer, so all
computations are exact at any size.  Values are immutable after construction
and every operation is a pure function of its inputs; the module is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from math import isqrt
from operator import add, mul, neg, sub

from .errors import DimensionError, FamilyError, InputError, InvalidParameterError


class Family(str, Enum):
    """The three built-in surface families."""

    HIRZEBRUCH = "hirzebruch"
    BLOWUP_P2 = "blowup_p2"
    BLOWUP_HIRZEBRUCH = "blowup_hirzebruch"


# bound once: a global load is cheaper than looking both methods up on object
# each time _exact_class runs
_new, _set = object.__new__, object.__setattr__
# types are compared exactly: bool is a subclass of int, and no other type counts
_INT = frozenset((int,))


@dataclass(frozen=True, init=False)
class DivisorClass:
    """Integer coefficient vector relative to a lattice basis.

    The universal currency of all operations: a class is nothing but its
    coefficients in the fixed basis order of the owning lattice.  The
    constructor checks every coefficient once; the arithmetic operators build
    their results from coefficients that are already exact and skip the check.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        # written out so that each class costs one store, not __init__ plus __post_init__
        coeffs = tuple(coeffs)
        if not _INT.issuperset(map(type, coeffs)):
            raise _refuse(coeffs, "coeffs", "a list of integers")
        _set(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def _match(self, other: "DivisorClass") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionError(
                f"coefficient vectors of lengths {len(self.coeffs)} and "
                f"{len(other.coeffs)} cannot be combined"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._match(other)
        return _exact_class(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._match(other)
        return _exact_class(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return _exact_class(tuple(map(neg, self.coeffs)))

    def __mul__(self, k: int) -> "DivisorClass":
        if type(k) is not int:
            raise _refuse(k, "a class's multiplier", "an integer")
        return _exact_class(tuple([k * a for a in self.coeffs]))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}


def _exact_class(coeffs: tuple[int, ...]) -> DivisorClass:
    """A class on a tuple of plain ints, without the constructor's check.

    Only for coefficients computed inside the package from exact inputs.
    """
    d = _new(DivisorClass)
    _set(d, "coeffs", coeffs)
    return d


# A value of the wrong type is refused where it is used, through _refuse under its
# payload key, never coerced; None (JSON null) means "absent" (json_object's rule).


def _shown(value) -> str:
    """``repr(value)`` cut to 100 characters, or, when it holds an integer past
    the interpreter's digit limit and so has no repr, its type and that limit."""
    try:
        text = repr(value)
    except ValueError:
        kind = "an integer" if type(value) is int else f"a {type(value).__name__} holding an integer"
        return f"{kind} past {sys.get_int_max_str_digits():,} digits"
    return text if len(text) <= 100 else text[:99] + "…"


def _refuse(value, name: str, kind: str) -> InputError:
    """The one refusal of a missing or wrong-type value, named ``name``."""
    if value is None:
        return InputError(f"missing required input {name}")
    return InputError(f"{name} must be {kind}, got {_shown(value)}")


def json_bool(value, name: str) -> bool:
    """``value`` if it is JSON true or false; nothing else counts as a truth value."""
    if type(value) is not bool:
        raise _refuse(value, name, "true or false")
    return value


def json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object, without its null members, so an
    optional key given as null takes its default; ``value`` itself when it
    holds no null, and a copy otherwise, never changed."""
    if not isinstance(value, dict):
        raise _refuse(value, name, "a JSON object")
    if None in value.values():
        return {k: v for k, v in value.items() if v is not None}
    return value


def divisor_from_json(doc: dict | Sequence[int], name: str = "coeffs") -> DivisorClass:
    """Read a class from ``{"coeffs": [...]}`` or a bare coefficient list."""
    coeffs = doc.get("coeffs") if isinstance(doc, dict) else doc
    if not isinstance(coeffs, (list, tuple)) or not _INT.issuperset(map(type, coeffs)):
        raise _refuse(coeffs, name, "a list of integers")
    return _exact_class(tuple(coeffs))


@dataclass(frozen=True, init=False)
class SurfaceLattice:
    """The Neron-Severi lattice of a built-in family, with its canonical class.

    A lattice is named by (family, n, r) and by nothing else: every other
    field is derived from those three, so == and hash compare them alone and
    ``dataclasses.replace(lat, r=...)`` builds the lattice of the new r.
    ``family`` is a ``Family`` or its value; n and r are ints, given exactly
    when the family takes them.  ``canonical`` holds the coefficients of K on
    the basis named by ``basis_labels``.  The form is unimodular of signature
    (1, rank - 1) and K.K equals 8, 9 - r and 8 - r respectively.

    The Gram matrix G is stored once, as ``_head``: every nonzero entry of
    G + I as a triple (i, j, G_ij + delta_ij), in row-major order.  Its
    entries lie in the rows of the P^2 head H or the F_n head (C_n, F), as
    each E_i adds -1 on the diagonal alone, so a lattice takes O(rank)
    memory and time to build; ``gram`` builds G anew on each read, in
    O(rank^2), and ``repr`` prints no matrix.  The pairing reads the triples
    alone,

        D1.D2 = -sum_i a_i b_i + sum_(i, j, g) in _head a_i g b_j,

    and K.D is the dot product of D with the precomputed row K.G.
    """

    family: Family
    n: int | None
    r: int | None
    rank: int = field(init=False, compare=False)
    canonical: DivisorClass = field(init=False, compare=False)
    _head: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)
    _kg: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, family: Family | str, n: int | None = None, r: int | None = None) -> None:
        # which parameters are given, then their types, then n, then r: all
        # before anything of size r is built
        if type(family) is not Family:
            try:
                family = _FAMILIES[family]
            except (KeyError, TypeError):
                names = ", ".join(_FAMILIES)
                raise InputError(f"lattice family must be one of {names}, got {_shown(family)}") from None
        takes, given = _PARAMETERS[family], (("n", n), ("r", r))
        for p, value in given:
            if value is None and p in takes:
                raise InputError(f"{family.value} lattice requires {' and '.join(takes)}")
        for p, value in given:
            if value is not None and p not in takes:
                raise InputError(f"{family.value} lattice takes no {p}, got {p} = {_shown(value)}")
        for p, value in given:
            if value is not None and type(value) is not int:
                raise _refuse(value, p, "an integer")
        if n is not None and n < 0:
            raise InvalidParameterError(f"Hirzebruch parameter n must be >= 0, got {_shown(n)}")
        if r is not None and not 0 <= r <= MAX_BLOWUP_POINTS:
            raise InvalidParameterError(
                f"number of blown-up points must be in 0..{MAX_BLOWUP_POINTS:,}, got {_shown(r)}"
            )
        head, k = _standard_form(n, r)
        kg = list(map(neg, k))
        for i, j, g in head:
            kg[j] += k[i] * g
        # one store per field, in declaration order: filling vars(self) at once
        # makes the kernel's later attribute reads slower
        values = (family, n, r, len(k), _exact_class(k), head, tuple(kg))
        for name, value in zip(self.__dataclass_fields__, values):
            _set(self, name, value)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        """H, or C_n and F, then E_1..E_r: built on each read, as few callers read them."""
        head = ("H",) if self.n is None else (f"C{self.n}", "F")
        return head + tuple(f"E{i}" for i in range(1, (self.r or 0) + 1))

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G = (G + I) - I, rebuilt from ``_head``."""
        rank = self.rank
        rows = [[-(i == j) for j in range(rank)] for i in range(rank)]
        for i, j, g in self._head:
            rows[i][j] += g
        return tuple(map(tuple, rows))

    def _check(self, d: DivisorClass) -> tuple[int, ...]:
        c = d.coeffs
        if len(c) != self.rank:
            raise DimensionError(
                f"class of length {len(c)} on a lattice of rank {self.rank}"
            )
        return c

    def _pair(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        total = -sum(map(mul, a, b))
        for i, j, g in self._head:
            total += a[i] * g * b[j]
        return total

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Intersection number D1.D2, bilinear and symmetric."""
        return self._pair(self._check(d1), self._check(d2))

    def self_intersection(self, d: DivisorClass) -> int:
        c = self._check(d)
        return self._pair(c, c)

    def _k_dot(self, c: tuple[int, ...]) -> int:
        return sum(map(mul, self._kg, c))

    def canonical_pairing(self, d: DivisorClass) -> int:
        """K.D for the distinguished canonical class K."""
        return self._k_dot(self._check(d))

    def arithmetic_genus(self, d: DivisorClass) -> int:
        """Adjunction genus p_a(D) = 1 + (D.D + K.D)/2, in one frame.

        One pass: D.D + K.D = -sum_i c_i (c_i - kg_i) + the head terms.
        K is characteristic on every family, so the numerator is even:
        D.D + K.D = d(d - 3) - sum m_i(m_i - 1) on Bl_r P^2, and
        -n a(a - 1) + 2ab - 2a - 2b on F_n.
        """
        c = d.coeffs
        if len(c) != self.rank:
            self._check(d)  # raises its DimensionError
        total = -sum(map(mul, c, map(sub, c, self._kg)))
        for i, j, g in self._head:
            total += c[i] * g * c[j]
        return 1 + total // 2

    def euler_characteristic(self, d: DivisorClass) -> int:
        """chi(O(D)) = 1 + (D.D - K.D)/2 = p_a(-D) on a rational surface."""
        return self.arithmetic_genus(_exact_class(tuple(map(neg, d.coeffs))))

    def h0_lower_bound(self, d: DivisorClass) -> int:
        """max(0, chi(O(D))) when K - D is certified not effective, else 0."""
        return self._h0_bound(d.coeffs, self.euler_characteristic(d))

    def _h0_bound(self, c: tuple[int, ...], chi: int) -> int:
        """The bound of ``h0_lower_bound`` for checked coefficients c of chi(D) = chi.

        h^0(D) = chi(D) + h^1(D) - h^0(K - D) by Serre duality, so chi(D) <= h^0(D)
        once N.(K - D) < 0 for a nef N certifies that K - D is not effective.
        N = H on Bl_r P^2, or F on F_n and Bl_r F_n, pairs with X as x_0.  When
        it does not certify, N.D <= N.K < 0, so D is not effective and 0 is
        exact: on F_1, D = -5C - 5F has chi(D) = 6 but h^0(D) = 0.
        """
        if chi > 0 and self.canonical.coeffs[0] < c[0]:
            return chi
        return 0

    def zero_class(self) -> DivisorClass:
        return _exact_class((0,) * self.rank)

    def basis_class(self, index: int) -> DivisorClass:
        if type(index) is not int:
            raise _refuse(index, "index", "an integer")
        if not 0 <= index < self.rank:
            raise InvalidParameterError(
                f"basis index {_shown(index)} is out of range for rank {self.rank}"
            )
        return _exact_class(tuple(1 if i == index else 0 for i in range(self.rank)))

    def to_json_dict(self) -> dict:
        doc: dict = {"family": self.family.value}
        if self.n is not None:
            doc["n"] = self.n
        if self.r is not None:
            doc["r"] = self.r
        return doc


# a family by its value; a dict lookup is cheaper than the Enum call Family(value)
_FAMILIES = {f.value: f for f in Family}
# the parameters each family takes, in the order its "requires" message names them
_PARAMETERS = {
    Family.HIRZEBRUCH: ("n",),
    Family.BLOWUP_P2: ("r",),
    Family.BLOWUP_HIRZEBRUCH: ("n", "r"),
}


def _standard_form(n: int | None, r: int | None) -> tuple[tuple, tuple]:
    """The nonzero entries of G + I and K of the F_n head (C_n, F), or of
    the P^2 head H when n is None, followed by E_1..E_r."""
    if n is None:
        head, k = ((0, 0, 2),), (-3,)
    else:
        # 1 - n at (0, 0) is absent on F_1
        head, k = ((0, 1, 1), (1, 0, 1), (1, 1, 1)), (-2, -(n + 2))
        if n != 1:
            head = ((0, 0, 1 - n),) + head
    if r:
        k += (1,) * r
    return head, k


def hirzebruch_lattice(n: int) -> SurfaceLattice:
    """NS(F_n): basis (C_n, F) with C_n.C_n = -n, F.F = 0, C_n.F = 1."""
    return SurfaceLattice(Family.HIRZEBRUCH, n)


def blowup_p2_lattice(r: int) -> SurfaceLattice:
    """NS of P^2 blown up at r points: basis (H, E_1..E_r), K = -3H + sum E_i.

    r = 0 gives the rank-one lattice of P^2 itself.
    """
    return SurfaceLattice(Family.BLOWUP_P2, r=r)


def blowup_hirzebruch_lattice(n: int, r: int) -> SurfaceLattice:
    """NS of F_n blown up at r points: Hirzebruch block plus orthogonal E_i.

    r = 0 gives NS(F_n) itself, with the blowup family tag retained.
    """
    return SurfaceLattice(Family.BLOWUP_HIRZEBRUCH, n, r)


# the constructor under its earlier name, which callers still use
make_lattice = SurfaceLattice


def lattice_from_json(doc: dict) -> SurfaceLattice:
    """Read a lattice from ``{"family": ..., "n": ..., "r": ...}``."""
    doc = json_object(doc, "lattice")
    return SurfaceLattice(doc.get("family"), doc.get("n"), doc.get("r"))


def basis_change_f1_to_p2(lattice: SurfaceLattice, d: DivisorClass) -> DivisorClass:
    """Rebase a class from NS(F_1) to NS(Bl_1 P^2): C_1 -> E_1, F -> H - E_1.

    F_1 is the plane blown up at one point, so this is an isometry taking
    canonical class to canonical class.
    """
    if lattice.family is not Family.HIRZEBRUCH or lattice.n != 1:
        raise FamilyError("source lattice must be the Hirzebruch lattice with n = 1")
    a, b = lattice._check(d)
    # a*E_1 + b*(H - E_1) = b*H + (a - b)*E_1
    return _exact_class((b, a - b))


def basis_change_blf0_to_p2(lattice: SurfaceLattice, d: DivisorClass) -> DivisorClass:
    """Rebase a class from NS(Bl_1 F_0) to NS(Bl_2 P^2).

    The quadric blown up once dominates the plane blown up twice:
    C_0 -> H - E_2, F -> H - E_1, E -> H - E_1 - E_2.
    """
    if (
        lattice.family is not Family.BLOWUP_HIRZEBRUCH
        or lattice.n != 0
        or lattice.r != 1
    ):
        raise FamilyError(
            "source lattice must be the blowup of the Hirzebruch surface with n = 0 at one point"
        )
    c, f, e = lattice._check(d)
    return _exact_class((c + f + e, -(f + e), -(c + e)))


# Work allowed for one enumeration: search nodes visited plus the coefficients
# of every class to be listed.  For r >= 9 there are infinitely many
# (-1)-classes, and the count below any degree bound grows fast with r, so a
# request past this budget is refused rather than run for hours or until
# memory runs out.
ENUMERATION_BUDGET = 10_000_000

# The most points a blowup lattice may have.  Its K and K.G hold r entries
# each, so one large r in a request would be built before any class is read.
MAX_BLOWUP_POINTS = 10_000


def _arrangement_count(values: Sequence[int]) -> int:
    """The number of distinct arrangements of the sorted ``values``,
    len! / prod count_v!, as a running product: the first k values, the last
    of them the run-th of its value, have k/run times the arrangements of the
    first k - 1, so every partial product is an integer."""
    count = run = 1
    for k in range(1, len(values)):
        run = run + 1 if values[k] == values[k - 1] else 1
        count = count * (k + 1) // run
    return count


def _square_constrained_vectors(r: int, self_int: int, bound: int) -> list[tuple[int, ...]]:
    """One vector (d, -m_1, .., -m_r) per S_r orbit of the solutions of
    0 <= d <= bound, |m_i| <= bound, sum m_i = 3d - 2 - self_int and
    sum m_i^2 = d^2 - self_int, namely the one with m_1 >= .. >= m_r; r >= 1.

    An iterative depth-first search that fills one coordinate per level of an
    explicit stack.  With j coordinates left, summing to s with squares
    summing to q, the remaining j - 1 can take a sum s - m and a square sum
    q - m^2 only if (s - m)^2 <= (j - 1)(q - m^2) (Cauchy-Schwarz), i.e. only if

        |j m - s| <= isqrt((j - 1)(j q - s^2)).

    The child m is the largest of the j, so it is at least their mean s/j
    and at most the coordinate before it: every child lies in that interval,
    between ceil(s/j) (never below the interval's lower end) and the
    previous m.  When j q = s^2 all j coordinates equal s/j.  With two left,
    m_1 + m_2 = s and m_1^2 + m_2^2 = q force m_1 = (s + u)/2 >= m_2 =
    (s - u)/2 with u^2 = 2q - s^2 (u and s have the same parity).

    A budget unit is one search node (a degree tried or a child pushed) or
    one coefficient of a class in a found orbit: an orbit whose m take the
    value v c_v times holds r!/prod c_v! classes of r + 1 coefficients each.
    Every orbit is charged as it is found, before any class is built, and
    InvalidParameterError is raised once the total exceeds ENUMERATION_BUDGET.
    """
    found: list[tuple[int, ...]] = []
    budget = ENUMERATION_BUDGET
    width = r + 1
    vec = [0] * width
    for d in range(bound + 1):
        budget -= 1
        s0, q0 = 3 * d - 2 - self_int, d * d - self_int
        feasible = s0 * s0 <= r * q0
        # f(d) = s0^2 - r q0 is convex in d for r <= 9 (linear at 9), so once
        # f > 0 and f' = 2(3 s0 - r d) >= 0 no larger degree is feasible
        if not feasible and r <= 9 and 3 * s0 >= r * d:
            break
        # an entry (i, e, s, q): coordinate i - 1 is e; positions i..r, j of
        # them, still have to sum to s with squares summing to q
        stack = [(1, d, s0, q0)] if feasible else []
        while stack and budget >= 0:
            i, e, s, q = stack.pop()
            vec[i - 1] = e
            cap = -e if i > 1 else bound
            j = width - i
            t = j * q - s * s
            if t == 0:
                m, rem = divmod(s, j)
                if not rem and -bound <= m <= cap:
                    vec[i:] = [-m] * j
                    found.append(tuple(vec))
                    budget -= width * _arrangement_count(vec[1:])
            elif j == 2:
                u = isqrt(t)
                if u * u == t and s + u <= 2 * cap and s - u >= -2 * bound:
                    vec[i], vec[i + 1] = -(s + u) // 2, (u - s) // 2
                    found.append(tuple(vec))
                    budget -= width * _arrangement_count(vec[1:])
            elif j > 2:
                w = isqrt((j - 1) * t)
                lo, hi = max(-bound, -(-s // j)), min(cap, (s + w) // j)
                if lo <= hi:
                    stack.extend([(i + 1, -m, s - m, q - m * m) for m in range(lo, hi + 1)])
                    budget -= hi - lo + 1
        if budget < 0:
            raise InvalidParameterError(
                f"enumeration exceeds its work budget of {ENUMERATION_BUDGET:,} "
                "search nodes and coefficients; lower r or the degree bound"
            )
    return found


def _extend_by_arrangements(out: list[tuple[int, ...]], vec: tuple[int, ...]) -> None:
    """Append (d, e_1..e_r) for every distinct arrangement of the sorted
    e_1 <= .. <= e_r of ``vec``, in increasing lexicographic order.

    Knuth, TAOCP 4A, 7.2.1.2, Algorithm L: find the last j with e_j < e_{j+1},
    swap e_j with the last e_l > e_j and reverse everything after j.
    """
    a = list(vec)
    last = len(a) - 1
    while True:
        out.append(tuple(a))
        j = last - 1
        while j and a[j] >= a[j + 1]:
            j -= 1
        if not j:
            return
        aj, l = a[j], last
        while aj >= a[l]:
            l -= 1
        a[j], a[l] = a[l], aj
        a[j + 1 :] = a[:j:-1]


def enumerate_negative_rational_classes(
    lattice: SurfaceLattice, self_int: int, degree_bound: int
) -> list[DivisorClass]:
    """All classes d*H - sum m_i E_i of the given self-intersection and
    arithmetic genus zero, with 0 <= d <= degree_bound and |m_i| <= degree_bound.

    Results are sorted lexicographically by coefficient vector, and every
    permutation of the E_i is listed as a class of its own.

    For C = dH - sum m_i E_i the two constraints pin the linear data:
        C.C = d^2 - sum m_i^2 = self_int,
        p_a(C) = 0  <=>  C.C + K.C = -2,  and K.C = -3d + sum m_i,
    hence sum m_i = 3d - 2 - self_int and sum m_i^2 = d^2 - self_int.
    Cauchy-Schwarz gives (sum m_i)^2 <= r * sum m_i^2; for self_int = -1 and
    r <= 8 this reads (3d - 1)^2 <= 8(d^2 + 1), i.e. (d - 7)(d + 1) <= 0, so
    every solution has d <= 7 and a degree bound of 7 is provably complete.

    Both constraints are invariant under the group S_r permuting the E_i, so
    the search lists one class per orbit, with m_1 >= .. >= m_r, and expands
    each orbit into its distinct arrangements.

    The work is bounded by ENUMERATION_BUDGET (search nodes plus the
    coefficients of every class listed, charged before any class is built);
    a request beyond it raises InvalidParameterError.
    """
    if lattice.family is not Family.BLOWUP_P2:
        raise FamilyError("enumeration is defined on blowups of the plane only")
    for name, value in (("self_int", self_int), ("degree_bound", degree_bound)):
        if type(value) is not int:
            raise _refuse(value, name, "an integer")
    if self_int > -1:
        raise InvalidParameterError(f"self-intersection must be <= -1, got {_shown(self_int)}")
    if degree_bound < 1:
        raise InvalidParameterError(f"degree bound must be >= 1, got {_shown(degree_bound)}")
    r = lattice.r
    if r == 0:
        return []
    found: list[tuple[int, ...]] = []
    for vec in _square_constrained_vectors(r, self_int, degree_bound):
        _extend_by_arrangements(found, vec)
    # each orbit is an increasing run, which the sort merges
    found.sort()
    # _exact_class as two C-level passes, no Python frame per class: the same one
    # store into each fresh __dict__, so the kernel reads them as it reads any class
    classes = list(map(_new, repeat(DivisorClass, len(found))))
    deque(map(_set, classes, repeat("coeffs"), found), 0)
    return classes


def _int_rows(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    if not all(_INT.issuperset(map(type, row)) for row in matrix):
        raise _refuse(matrix, "matrix", "a list of integer rows")
    return [list(row) for row in matrix]


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = _int_rows(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signature(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric integer matrix.

    Symmetric congruence reduction over the integers: the elimination step
    rescales a basis vector by the pivot, which multiplies its diagonal entry
    by a positive square and therefore preserves all signs.  No floating
    point and no rationals are involved.
    """
    n = len(matrix)
    m = _int_rows(matrix)
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
                # all-zero diagonal: adding basis vector j to i makes the
                # pivot 2 * m[i][j] != 0
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
            f = m[i][j]
            if f == 0:
                continue
            for k in range(n):
                m[j][k] = p * m[j][k] - f * m[i][k]
            for k in range(n):
                m[k][j] = p * m[k][j] - f * m[k][i]
    return pos, neg, zero
