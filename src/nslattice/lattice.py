"""Based integral lattices of rational surfaces and the pairing of their classes.

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

from dataclasses import dataclass, field
from operator import mul

from .errors import DimensionError, FamilyError, InputError, InvalidParameterError
from .values import DivisorClass, Family, _exact_class, _indexed, _refuse, _set, _shown, json_object


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

    G and K.G are stored as five integers, ``_head`` = (a, b, e, k_0, k_1):
    the head of G + I and of K.G + 1 on the H or (C_n, F) coordinates d_0
    and d_1, past which both vanish, as each E_i adds -1 to the diagonal of
    G and to K.G alone.  The record is (2, 0, 0, -2, 0) on Bl_r P^2 and
    (1 - n, 1, 1, n - 1, -1) on F_n and Bl_r F_n.  A lattice takes O(rank)
    memory, in K, and time to build; ``gram`` builds G anew on each read, in
    O(rank^2), and ``repr`` prints no matrix.  The kernel is straight-line
    arithmetic,

        D1.D2 = x_0 (a y_0 + b y_1) + x_1 (b y_0 + e y_1) - sum_i x_i y_i,
        K.D = k_0 d_0 + k_1 d_1 - sum_i d_i,

    and adds the d_1 terms only when b != 0, as P^2 has no d_1.
    """

    family: Family
    n: int | None
    r: int | None
    rank: int = field(init=False, compare=False)
    canonical: DivisorClass = field(init=False, compare=False)
    _head: tuple[int, int, int, int, int] = field(init=False, repr=False, compare=False)

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
        # one store per field, in declaration order: filling vars(self) at once
        # makes the kernel's later attribute reads slower
        values = (family, n, r, len(k), _exact_class(k), head)
        for name, value in zip(self.__dataclass_fields__, values):
            _set(self, name, value)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        """H, or C_n and F, then E_1..E_r: built on each read, as few callers read them."""
        head = ("H",) if self.n is None else (_indexed("C", self.n), "F")
        return head + tuple(f"E{i}" for i in range(1, (self.r or 0) + 1))

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G = (G + I) - I, rebuilt from ``_head``."""
        rank = self.rank
        a, b, e = self._head[:3]
        rows = [[-(i == j) for j in range(rank)] for i in range(rank)]
        rows[0][0] += a
        if b:
            rows[0][1] = rows[1][0] = b
            rows[1][1] += e
        return tuple(map(tuple, rows))

    def _check(self, d: DivisorClass) -> tuple[int, ...]:
        if type(d) is not DivisorClass:
            # anything else must be a subclass, which may name its F_n, as a
            # HirzebruchClass does: C_5 is no C_3
            if not isinstance(d, DivisorClass):
                raise _refuse(d, "d", "a DivisorClass")
            if getattr(d, "n", self.n) != self.n:
                raise InvalidParameterError(
                    f"class with n = {_shown(d.n)} on a lattice with n = {_shown(self.n)}"
                )
        c = d.coeffs
        if len(c) != self.rank:
            raise DimensionError(f"class of length {len(c)} on a lattice of rank {self.rank}")
        return c

    def _pair(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        a, b, e, _, _ = self._head
        total = a * x[0] * y[0] - sum(map(mul, x, y))
        if b:
            total += b * (x[0] * y[1] + x[1] * y[0]) + e * x[1] * y[1]
        return total

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Intersection number D1.D2, bilinear and symmetric."""
        return self._pair(self._check(d1), self._check(d2))

    def self_intersection(self, d: DivisorClass) -> int:
        c = self._check(d)
        return self._pair(c, c)

    def _k_dot(self, c: tuple[int, ...]) -> int:
        _, b, _, k0, k1 = self._head
        return k0 * c[0] + (k1 * c[1] if b else 0) - sum(c)

    def canonical_pairing(self, d: DivisorClass) -> int:
        """K.D for the distinguished canonical class K."""
        return self._k_dot(self._check(d))

    def arithmetic_genus(self, d: DivisorClass) -> int:
        """Adjunction genus p_a(D) = 1 + (D.D + K.D)/2, by ``_genus`` on d as ``_check`` reads it."""
        return self._genus(self._check(d))

    def _genus(self, c: tuple[int, ...]) -> int:
        """p_a for checked coefficients c, a tuple of rank ints, where

            D.D + K.D = d_0 (a d_0 + 2b d_1 + k_0) + d_1 (e d_1 + k_1) - sum_i d_i (d_i + 1).

        K is characteristic on every family, so the numerator is even: it is
        d(d - 3) - sum m_i(m_i - 1) on Bl_r P^2, and -n a(a - 1) + 2ab - 2a - 2b on F_n.
        The selfcheck sampler builds the genus tables that screen its raw draws with it.
        """
        a, b, e, k0, k1 = self._head
        d0 = c[0]
        total = d0 * (a * d0 + k0) - sum(map(mul, c, c)) - sum(c)
        if b:
            total += c[1] * (2 * b * d0 + e * c[1] + k1)
        return 1 + total // 2

    def euler_characteristic(self, d: DivisorClass) -> int:
        """chi(O(D)) = 1 + (D.D - K.D)/2 = p_a(D) - K.D on a rational surface, by
        ``_genus`` and ``_k_dot`` on d as ``_check`` reads it."""
        c = self._check(d)
        return self._genus(c) - self._k_dot(c)

    def h0_lower_bound(self, d: DivisorClass) -> int:
        """max(0, chi(O(D))) when K - D is certified not effective, else 0; the
        Riemann-Roch bound that ``lemma_move_check`` reads too.

        h^0(D) = chi(D) + h^1(D) - h^0(K - D) by Serre duality, so chi(D) <= h^0(D)
        once N.(K - D) < 0 for a nef N certifies that K - D is not effective.
        N = H on Bl_r P^2, or F on F_n and Bl_r F_n, pairs with X as x_0.  When
        it does not certify, N.D <= N.K < 0, so D is not effective and 0 is
        exact: on F_1, D = -5C - 5F has chi(D) = 6 but h^0(D) = 0.
        """
        c = self._check(d)
        chi = self._genus(c) - self._k_dot(c)
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
        params = {p: getattr(self, p) for p in _PARAMETERS[self.family]}
        return {"family": self.family.value, **params}


# a family by its value; a dict lookup is cheaper than the Enum call Family(value)
_FAMILIES = {f.value: f for f in Family}
# the parameters each family takes, in the order its "requires" message names them
_PARAMETERS = {
    Family.HIRZEBRUCH: ("n",),
    Family.BLOWUP_P2: ("r",),
    Family.BLOWUP_HIRZEBRUCH: ("n", "r"),
}


def _standard_form(n: int | None, r: int | None) -> tuple[tuple, tuple]:
    """The head record (a, b, e, k_0, k_1) and K of the F_n head (C_n, F), or
    of the P^2 head H when n is None, followed by E_1..E_r."""
    if n is None:
        head, k = (2, 0, 0, -2, 0), (-3,)
    else:
        head, k = (1 - n, 1, 1, n - 1, -1), (-2, -(n + 2))
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


def lattice_from_json(doc: dict) -> SurfaceLattice:
    """Read a lattice from ``{"family": ..., "n": ..., "r": ...}``."""
    doc = json_object(doc, "lattice")
    return SurfaceLattice(doc.get("family"), doc.get("n"), doc.get("r"))


def basis_change_to_p2(lattice: SurfaceLattice, d: DivisorClass) -> DivisorClass:
    """Rebase a class from NS(Bl_r F_n), or NS(F_n) with r = 0, onto NS(Bl_(r+1) P^2)
    by an isometry taking K to K, on (a, b, e..) = aC_n + bF + sum e_i E_i:
    C_(n-2) = C_n + F gives b <- b - a*floor(n/2); for n even, the elementary
    transformation at E_1 gives F_1 (C_1 = C_0 - E_1, E_1' = F - E_1); then
    C_1 -> E_1, F -> H - E_1 and E_i -> E_(i+1).  Geometric for n <= 1 at general
    points; for n >= 2, C_n maps to no curve, so numerical only.  FamilyError on
    Bl_r P^2, already a plane model, and on F_n with n even and no point: U is even.
    """
    if not isinstance(lattice, SurfaceLattice):
        raise _refuse(lattice, "lattice", "a SurfaceLattice")
    n, r = lattice.n, lattice.r
    if n is None or not (n & 1 or r):
        raise FamilyError("basis change needs F_n with n odd or a blowup of F_n at r >= 1 points")
    if r == MAX_BLOWUP_POINTS:
        raise InvalidParameterError(f"a blowup at r = {r:,} points has its plane model at r + 1, "
                                    f"past the limit of {MAX_BLOWUP_POINTS:,}")
    a, b, *e = lattice._check(d)
    b -= a * (n >> 1)
    if not n & 1:
        b, e[0] = a + b + e[0], -(a + e[0])
    return _exact_class((b, a - b, *e))


# earlier names, which callers still use: the constructor's, and the map's first two cases
make_lattice = SurfaceLattice
basis_change_f1_to_p2 = basis_change_blf0_to_p2 = basis_change_to_p2


# The most points a blowup lattice may have.  Its K holds r entries, so one
# large r in a request would be built before any class is read.
MAX_BLOWUP_POINTS = 10_000
