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

import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from math import factorial, isqrt
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    FamilyError,
    InputError,
    InvalidParameterError,
    LatticeCorruptionError,
)


class Family(str, Enum):
    """The three built-in surface families."""

    HIRZEBRUCH = "hirzebruch"
    BLOWUP_P2 = "blowup_p2"
    BLOWUP_HIRZEBRUCH = "blowup_hirzebruch"


class H0BoundAssumptionWarning(UserWarning):
    """The Riemann-Roch lower bound for h^0 was requested for a class where
    the blind assumption h^0(K - D) = 0 is not certified by the count itself."""


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
        # operator.index rejects floats and other inexact types loudly; written out
        # so that each class costs one store, not __init__ plus __post_init__
        object.__setattr__(self, "coeffs", tuple(map(operator.index, coeffs)))

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
        k = operator.index(k)
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
    d = object.__new__(DivisorClass)
    object.__setattr__(d, "coeffs", coeffs)
    return d


# The JSON readers below are the only way outside input enters the package.  A
# value of the wrong JSON type is refused, never coerced; None means "absent".
# Types are compared exactly because bool is a subclass of int.
_INT = frozenset((int,))


def _refuse(value, name: str, kind: str) -> InputError:
    if value is None:
        return InputError(f"missing required input {name}")
    return InputError(f"{name} must be {kind}, got {value!r}")


def json_int(value, name: str) -> int:
    """``value`` if it is an integer; bool, float and str are refused."""
    if type(value) is not int:
        raise _refuse(value, name, "an integer")
    return value


def json_bool(value, name: str) -> bool:
    """``value`` if it is JSON true or false; nothing else counts as a truth value."""
    if type(value) is not bool:
        raise _refuse(value, name, "true or false")
    return value


def json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise _refuse(value, name, "a JSON object")
    return value


def divisor_from_json(doc: dict | Sequence[int], name: str = "coeffs") -> DivisorClass:
    """Read a class from ``{"coeffs": [...]}`` or a bare coefficient list."""
    coeffs = doc.get("coeffs") if isinstance(doc, dict) else doc
    if not isinstance(coeffs, (list, tuple)) or not _INT.issuperset(map(type, coeffs)):
        raise _refuse(coeffs, name, "a list of integers")
    return _exact_class(tuple(coeffs))


@dataclass(frozen=True, init=False)
class SurfaceLattice:
    """A based integral lattice with a distinguished canonical class.

    ``canonical`` holds the coefficients of K on the basis named by
    ``basis_labels``.  For the built-in families the form is unimodular of
    signature (1, rank - 1) and K.K equals 8, 9 - r and 8 - r respectively.

    The Gram matrix G splits as head (+) (-I): ``h`` is the smallest index
    such that every basis vector from ``h`` on has square -1 and is
    orthogonal to all the others (1 on ``blowup_p2``, 2 on the F_n families,
    ``rank`` for a form with no such tail).  Only the h x h head block is
    stored, and == and hash compare it in place of G, the same test as the
    split is canonical.  A lattice takes O(h^2 + rank) memory and time to
    build; ``gram`` builds G anew on each read, in O(rank^2), and ``repr``
    prints no matrix.  The pairing reads the block alone,

        D1.D2 = -sum_i a_i b_i + sum_{i, j < h} a_i (G_ij + delta_ij) b_j,

    and K.D is the dot product of D with the precomputed row K.G.

    A hand-built lattice is given its full ``gram``, which is checked for
    shape and symmetry and then split; the factories pass the block as
    ``_block``.  Each head entry must be an ``int``: a float or a bool raises
    ``LatticeCorruptionError``.  The other entries equal 0, or -1 on the
    diagonal, by the choice of ``h``, and are compared, never kept.
    """

    family: Family
    n: int | None
    r: int | None
    rank: int
    basis_labels: tuple[str, ...]
    canonical: DivisorClass
    _block: tuple[tuple[int, ...], ...] = field(repr=False)
    # derived from the block and canonical; they take no part in ==, repr or JSON
    _head: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)
    _kg: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, family, n, r, rank, gram=None, *, basis_labels, canonical, _block=None) -> None:
        if gram is not None:
            if len(gram) != rank or any(len(row) != rank for row in gram):
                raise DimensionError("Gram matrix shape does not match the rank")
            if tuple(zip(*gram)) != tuple(map(tuple, gram)):
                raise LatticeCorruptionError("Gram matrix is not symmetric")
            h = rank
            while h and gram[h - 1][h - 1] == -1 and gram[h - 1].count(0) == rank - 1:
                h -= 1
            _block = tuple(tuple(row[:h]) for row in gram[:h])
        elif _block is None:
            raise InputError("a hand-built SurfaceLattice needs its gram matrix")
        k = canonical.coeffs
        if len(k) != rank:
            raise DimensionError("canonical class length does not match the rank")
        # G = (G + I) - I, and G + I vanishes outside the h x h head block
        head = []
        for i, row in enumerate(_block):
            for j, g in enumerate(row):
                if type(g) is not int:
                    raise LatticeCorruptionError(
                        f"Gram entry ({i}, {j}) is {g!r}, not an integer"
                    )
                g += i == j
                if g:
                    head.append((i, j, g))
        kg = list(map(neg, k))
        for i, j, g in head:
            kg[j] += k[i] * g
        values = (family, n, r, rank, basis_labels, canonical, _block, tuple(head), tuple(kg))
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the head block (+) (-I), all cut from one zero tuple."""
        rank, h = self.rank, len(self._block)
        zero = (0,) * rank
        return tuple(row + zero[h:] for row in self._block) + tuple(
            zero[:i] + (-1,) + zero[i + 1 :] for i in range(h, rank)
        )

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

    def _square_and_canonical(self, d: DivisorClass) -> tuple[int, int]:
        """(D.D, K.D) with one length check."""
        c = self._check(d)
        return self._pair(c, c), sum(map(mul, self._kg, c))

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Intersection number D1.D2, bilinear and symmetric."""
        return self._pair(self._check(d1), self._check(d2))

    def self_intersection(self, d: DivisorClass) -> int:
        c = self._check(d)
        return self._pair(c, c)

    def canonical_pairing(self, d: DivisorClass) -> int:
        """K.D for the distinguished canonical class K."""
        return sum(map(mul, self._kg, self._check(d)))

    def arithmetic_genus(self, d: DivisorClass) -> int:
        """Adjunction genus p_a(D) = 1 + (D.D + K.D)/2.

        D.D + K.D is even on every even-adjoint lattice; an odd value means
        the Gram data was edited into an inconsistent state and is reported
        as corruption rather than rounded away.
        """
        dd, kd = self._square_and_canonical(d)
        total = dd + kd
        if total % 2 != 0:
            raise LatticeCorruptionError(
                f"D.D + K.D = {total} is odd; the lattice data is corrupt"
            )
        return 1 + total // 2

    def euler_characteristic(self, d: DivisorClass) -> int:
        """chi(O(D)) = 1 + (D.D - K.D)/2 on a rational surface."""
        dd, kd = self._square_and_canonical(d)
        total = dd - kd
        if total % 2 != 0:
            raise LatticeCorruptionError(
                f"D.D - K.D = {total} is odd; the lattice data is corrupt"
            )
        return 1 + total // 2

    def h0_lower_bound(self, d: DivisorClass, *, warn_unverified: bool = False) -> int:
        """max(0, chi(O(D))), a lower bound for h^0(D).

        The bound is only valid when D is the class of an effective divisor
        and K - D is not effective.  Neither hypothesis is decidable from the
        class alone, so both are left to the caller; with
        ``warn_unverified=True`` a warning is emitted when chi(K - D) > 0,
        i.e. when the Euler characteristic itself cannot rule out sections
        of K - D.  By bilinearity chi(K - D) = 1 + (D.D - K.D)/2 = chi(D) for
        any symmetric form, so no class K - D is built.
        """
        chi = self.euler_characteristic(d)
        if warn_unverified and chi > 0:
            warnings.warn(
                "chi(K - D) > 0: the lower bound assumes h^0(K - D) = 0, "
                "which this computation cannot certify",
                H0BoundAssumptionWarning,
                stacklevel=2,
            )
        return max(0, chi)

    def zero_class(self) -> DivisorClass:
        return _exact_class((0,) * self.rank)

    def basis_class(self, index: int) -> DivisorClass:
        if not 0 <= index < self.rank:
            raise InvalidParameterError(
                f"basis index {index} is out of range for rank {self.rank}"
            )
        return _exact_class(tuple(1 if i == index else 0 for i in range(self.rank)))

    def to_json_dict(self) -> dict:
        doc: dict = {"family": self.family.value}
        if self.n is not None:
            doc["n"] = self.n
        if self.r is not None:
            doc["r"] = self.r
        return doc


def hirzebruch_lattice(n: int) -> SurfaceLattice:
    """NS(F_n): basis (C_n, F) with C_n.C_n = -n, F.F = 0, C_n.F = 1."""
    n = operator.index(n)
    if n < 0:
        raise InvalidParameterError(f"Hirzebruch parameter n must be >= 0, got {n}")
    return SurfaceLattice(
        family=Family.HIRZEBRUCH,
        n=n,
        r=None,
        rank=2,
        _block=((-n, 1), (1, 0)),
        basis_labels=(f"C{n}", "F"),
        canonical=_exact_class((-2, -(n + 2))),
    )


def _points(r: int) -> int:
    """The number of blown-up points, checked before anything of size r is built."""
    r = operator.index(r)
    if not 0 <= r <= MAX_BLOWUP_POINTS:
        raise InvalidParameterError(
            f"number of blown-up points must be in 0..{MAX_BLOWUP_POINTS:,}, got {r}"
        )
    return r


def blowup_p2_lattice(r: int) -> SurfaceLattice:
    """NS of P^2 blown up at r points: basis (H, E_1..E_r), K = -3H + sum E_i.

    r = 0 gives the rank-one lattice of P^2 itself.
    """
    r = _points(r)
    rank = 1 + r
    return SurfaceLattice(
        family=Family.BLOWUP_P2,
        n=None,
        r=r,
        rank=rank,
        _block=((1,),),
        basis_labels=("H",) + tuple(f"E{i}" for i in range(1, r + 1)),
        canonical=_exact_class((-3,) + (1,) * r),
    )


def blowup_hirzebruch_lattice(n: int, r: int) -> SurfaceLattice:
    """NS of F_n blown up at r points: Hirzebruch block plus orthogonal E_i.

    r = 0 gives NS(F_n) itself, with the blowup family tag retained.
    """
    n = operator.index(n)
    if n < 0:
        raise InvalidParameterError(f"Hirzebruch parameter n must be >= 0, got {n}")
    r = _points(r)
    rank = 2 + r
    return SurfaceLattice(
        family=Family.BLOWUP_HIRZEBRUCH,
        n=n,
        r=r,
        rank=rank,
        _block=((-n, 1), (1, 0)),
        basis_labels=(f"C{n}", "F") + tuple(f"E{i}" for i in range(1, r + 1)),
        canonical=_exact_class((-2, -(n + 2)) + (1,) * r),
    )


def make_lattice(family: Family | str, n: int | None = None, r: int | None = None) -> SurfaceLattice:
    """Build a lattice from a family descriptor; deterministic for equal inputs."""
    try:
        fam = Family(family)
    except ValueError:
        names = ", ".join(f.value for f in Family)
        raise InputError(f"lattice family must be one of {names}, got {family!r}") from None
    if fam is Family.HIRZEBRUCH:
        if n is None:
            raise InputError("hirzebruch lattice requires n")
        if r is not None:
            raise InputError(f"hirzebruch lattice takes no r, got r = {r!r}")
        return hirzebruch_lattice(n)
    if fam is Family.BLOWUP_P2:
        if r is None:
            raise InputError("blowup_p2 lattice requires r")
        if n is not None:
            raise InputError(f"blowup_p2 lattice takes no n, got n = {n!r}")
        return blowup_p2_lattice(r)
    if n is None or r is None:
        raise InputError("blowup_hirzebruch lattice requires n and r")
    return blowup_hirzebruch_lattice(n, r)


def lattice_from_json(doc: dict) -> SurfaceLattice:
    """Read a lattice from ``{"family": ..., "n": ..., "r": ...}``."""
    doc = json_object(doc, "lattice")
    n, r = doc.get("n"), doc.get("r")
    return make_lattice(
        doc.get("family"),
        n=None if n is None else json_int(n, "n"),
        r=None if r is None else json_int(r, "r"),
    )


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

# The most points a blowup lattice may have.  Its labels and K hold r entries
# each, so one large r in a request would be built before any class is read.
MAX_BLOWUP_POINTS = 10_000


def _arrangement_count(values: Sequence[int]) -> int:
    """The number of distinct arrangements of ``values``, len! / prod count_v!."""
    count = factorial(len(values))
    for c in Counter(values).values():
        count //= factorial(c)
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


def _check_permutation_invariant(lattice: SurfaceLattice) -> None:
    """Raise LatticeCorruptionError unless permuting E_1..E_r preserves the
    pairing and K, read off the head split and the row K.G."""
    for i, j, _ in lattice._head:
        if i or j:
            raise LatticeCorruptionError(
                f"Gram entry ({i}, {j}) breaks the symmetry of the E_i; "
                "the lattice data is corrupt"
            )
    values = set(lattice._kg[1:])
    if len(values) > 1:
        raise LatticeCorruptionError(
            f"K.E_i takes the values {sorted(values)}, which breaks the symmetry "
            "of the E_i; the lattice data is corrupt"
        )


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
    the search lists one class per orbit, with m_1 >= .. >= m_r.  The
    lattice's own pairing decides each orbit on that class, once it is
    checked that S_r preserves the lattice's pairing and K; a lattice where
    it does not, or where D.D + K.D is odd, raises LatticeCorruptionError.
    Each accepted orbit is then expanded into its distinct arrangements.

    The work is bounded by ENUMERATION_BUDGET (search nodes plus the
    coefficients of every class listed, charged before any class is built);
    a request beyond it raises InvalidParameterError.
    """
    if lattice.family is not Family.BLOWUP_P2:
        raise FamilyError("enumeration is defined on blowups of the plane only")
    if self_int > -1:
        raise InvalidParameterError(f"self-intersection must be <= -1, got {self_int}")
    if degree_bound < 1:
        raise InvalidParameterError(f"degree bound must be >= 1, got {degree_bound}")
    r = lattice.r or 0
    if r == 0:
        return []
    _check_permutation_invariant(lattice)
    found: list[tuple[int, ...]] = []
    for vec in _square_constrained_vectors(r, self_int, degree_bound):
        # the search cannot produce anything else, but the lattice's own
        # pairing decides; D.D and K.D are constant on the orbit
        dd, kd = lattice._square_and_canonical(_exact_class(vec))
        if (dd + kd) % 2 != 0:
            raise LatticeCorruptionError(
                f"D.D + K.D = {dd + kd} is odd; the lattice data is corrupt"
            )
        if dd == self_int and dd + kd == -2:
            _extend_by_arrangements(found, vec)
    # each orbit is an increasing run, which the sort merges
    found.sort()
    return list(map(_exact_class, found))


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [[operator.index(x) for x in row] for row in matrix]
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
    m = [[operator.index(x) for x in row] for row in matrix]
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
