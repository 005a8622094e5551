"""Negative rational classes on plane blowups: one search per S_r orbit.

Loaded on first use, by the ``enumerate`` command and the selfcheck only.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import repeat
from math import isqrt

from .errors import FamilyError, InvalidParameterError
from .lattice import SurfaceLattice
from .values import DivisorClass, Family, _new, _refuse, _set, _shown


# Work allowed for one enumeration: search nodes visited plus the coefficients
# of every class to be listed.  For r >= 9 there are infinitely many
# (-1)-classes, and the count below any degree bound grows fast with r, so a
# request past this budget is refused rather than run for hours or until
# memory runs out.
ENUMERATION_BUDGET = 10_000_000


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
    # probed, not tested by type: SurfaceLattice belongs to the lazy lattice module,
    # which can be loaded twice, while family is compared with the eager Family
    try:
        family = lattice.family
    except AttributeError:
        raise _refuse(lattice, "lattice", "a SurfaceLattice") from None
    if family is not Family.BLOWUP_P2:
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

