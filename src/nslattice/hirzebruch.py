"""Divisor-class calculus on Hirzebruch surfaces F_n.

The effective monoid of F_n is generated by C_n and F, the nef monoid by
C_n + n*F and F; both are free of rank two.  A complete linear system
|a*C_n + b*F| splits into a fixed multiple of C_n and a mobile residual, and
the fixed multiple is computed here in closed form.
"""

from __future__ import annotations

from .errors import InvalidParameterError, NotEffectiveError
from .values import DivisorClass, _indexed, _new, _Record, _refuse, _set, _shown


def _checked(n: int, a: int, b: int) -> None:
    """Refuse a non-integer n, a or b (bool included), the first by name, and a negative n."""
    if type(n) is not int or type(a) is not int or type(b) is not int:
        name, value = next((k, v) for k, v in zip("nab", (n, a, b)) if type(v) is not int)
        raise _refuse(value, name, "an integer")
    if n < 0:
        raise InvalidParameterError(f"Hirzebruch parameter n must be >= 0, got {_shown(n)}")


class HirzebruchClass(DivisorClass):
    """The class a*C_n + b*F on F_n: the class (a, b) of ``hirzebruch_lattice(n)``
    that also names n, so == and hash compare (coeffs, n)."""

    n: int

    def __init__(self, n: int, a: int, b: int) -> None:
        _checked(n, a, b)
        _set(self, "coeffs", (a, b))
        _set(self, "n", n)

    a = property(lambda self: self.coeffs[0], doc="The multiple of C_n.")
    b = property(lambda self: self.coeffs[1], doc="The multiple of F.")

    def _match(self, other: DivisorClass) -> None:
        super()._match(other)
        if getattr(other, "n", self.n) != self.n:
            raise InvalidParameterError("classes live on different Hirzebruch surfaces")

    def to_json_dict(self) -> dict:
        a, b = self.coeffs
        return {"n": self.n, "a": a, "b": b}


def _exact(n: int, a: int, b: int) -> HirzebruchClass:
    """A class on integers already checked: each verdict checks its inputs
    once, at entry, and builds its results without the constructor's check."""
    h = _new(HirzebruchClass)
    _set(h, "coeffs", (a, b))
    _set(h, "n", n)
    return h


class EffectiveWitness(_Record):
    """Membership verdict for the effective monoid N*C_n + N*F.

    When the class is effective, ``multiplicities`` holds the generator
    multiplicities (copies of C_n, copies of F) realizing it.
    """

    effective: bool
    multiplicities: tuple[int, int] | None

    def __init__(self, effective: bool, multiplicities: tuple[int, int] | None) -> None:
        _set(self, "effective", effective)
        _set(self, "multiplicities", multiplicities)

    def __bool__(self) -> bool:
        return self.effective

    def to_json_dict(self) -> dict:
        multiplicities = list(self.multiplicities) if self.effective else None
        return {"effective": self.effective, "multiplicities": multiplicities}


class NefDecomposition(_Record):
    """x = s*(C_n + n*F) + t*F with s, t >= 0."""

    s: int
    t: int

    def __init__(self, s: int, t: int) -> None:
        _set(self, "s", s)
        _set(self, "t", t)

    def to_json_dict(self) -> dict:
        return {"nef": True, "s": self.s, "t": self.t}


class NotNef(_Record):
    """Failure verdict naming the effective generator that pairs negatively."""

    violator: str
    pairing: int

    def __init__(self, violator: str, pairing: int) -> None:
        _set(self, "violator", violator)
        _set(self, "pairing", pairing)

    def __bool__(self) -> bool:
        return False

    def to_json_dict(self) -> dict:
        return {"nef": False, "violator": self.violator, "pairing": self.pairing}


class FixedMobileDecomposition(_Record):
    """Fixed part j*C_n and mobile part of a complete linear system."""

    fixed: HirzebruchClass
    mobile: HirzebruchClass
    j: int

    def __init__(self, fixed: HirzebruchClass, mobile: HirzebruchClass, j: int) -> None:
        _set(self, "fixed", fixed)
        _set(self, "mobile", mobile)
        _set(self, "j", j)

    def to_json_dict(self) -> dict:
        (fa, fb), (ma, mb) = self.fixed.coeffs, self.mobile.coeffs
        return {
            "n": self.fixed.n,
            "j": self.j,
            "fixed": {"a": fa, "b": fb},
            "mobile": {"a": ma, "b": mb},
        }


def effective_generators(n: int) -> tuple[HirzebruchClass, HirzebruchClass]:
    """Generators (C_n, F) of the effective monoid of F_n."""
    return HirzebruchClass(n, 1, 0), HirzebruchClass(n, 0, 1)


def nef_generators(n: int) -> tuple[HirzebruchClass, HirzebruchClass]:
    """Generators (C_n + n*F, F) of the nef monoid of F_n."""
    return HirzebruchClass(n, 1, n), HirzebruchClass(n, 0, 1)


def is_effective(n: int, a: int, b: int) -> EffectiveWitness:
    """a*C_n + b*F is effective iff a >= 0 and b >= 0.

    The pair (a, b) itself is the witness: it gives the multiplicities of the
    generators C_n and F.  The zero class is effective (the empty sum).
    """
    _checked(n, a, b)
    if a >= 0 and b >= 0:
        return EffectiveWitness(True, (a, b))
    return EffectiveWitness(False, None)


def nef_decompose(n: int, a: int, b: int) -> NefDecomposition | NotNef:
    """Nefness test with witness for x = a*C_n + b*F.

    x.F = a and x.C_n = b - n*a must both be nonnegative; when they are,
    x = a*(C_n + n*F) + (b - n*a)*F exhibits x in the nef monoid.  Otherwise
    the verdict names the generator whose pairing fails: F, or C_n as
    ``C<n>``, or as ``C_n`` when n has too many digits for a decimal form.
    """
    _checked(n, a, b)
    if a < 0:
        return NotNef("F", a)
    section_pairing = b - n * a
    if section_pairing < 0:
        return NotNef(_indexed("C", n), section_pairing)
    return NefDecomposition(a, section_pairing)


def fixed_mobile_decompose(n: int, a: int, b: int) -> FixedMobileDecomposition:
    """Split |a*C_n + b*F| into its fixed part j*C_n and mobile part.

    Requires the class to be effective; otherwise the linear system is empty
    and the decomposition is undefined.  For n = 0 or b >= a*n the system has
    no fixed component (j = 0).  Otherwise j = a - b//n is the unique integer
    with 1 <= j <= a and (a - j)*n <= b <= (a - j + 1)*n - 1, and the mobile
    part (a - j)*C_n + b*F pairs nonnegatively with C_n.
    """
    _checked(n, a, b)
    if a < 0 or b < 0:
        raise NotEffectiveError(
            f"{_shown(a)}*C{_shown(n)} + {_shown(b)}*F is not effective; "
            "its complete linear system is empty"
        )
    j = 0 if n == 0 or b >= a * n else a - b // n
    return FixedMobileDecomposition(_exact(n, j, 0), _exact(n, a - j, b), j)


def anticanonical_class(n: int) -> HirzebruchClass:
    """-K on F_n, namely 2*C_n + (n + 2)*F."""
    _checked(n, 2, 2)
    return _exact(n, 2, n + 2)


def anticanonical_fixed_locus(n: int) -> FixedMobileDecomposition:
    """Fixed/mobile split of |-K| on F_n.

    The fixed part is zero for n <= 2 and exactly one copy of C_n for n >= 3.
    """
    _checked(n, 2, 2)
    return fixed_mobile_decompose(n, 2, n + 2)
