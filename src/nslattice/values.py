"""Divisor classes and the family names, with the input readers and refusals
that every module shares.

Loaded with the package, as ``errors`` is.  The lattice, the enumeration and
the Hirzebruch and blowup layers are loaded on first use, and each compares
the classes and families it is given with the one copy held here
(``type(d) is DivisorClass``, ``family is Family.BLOWUP_P2``).  Values are
immutable after construction; the module is safe for unrestricted concurrent
use.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import add, neg, sub

from .errors import DimensionError, InputError


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
        try:
            coeffs = tuple(coeffs)
            if not _INT.issuperset(map(type, coeffs)):
                raise TypeError
        except TypeError:  # not iterable, or an entry no int
            raise _refuse(coeffs, "coeffs", "a list of integers") from None
        _set(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def _match(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise _refuse(other, "a class's operand", "a DivisorClass")
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
    """``repr(value)`` cut to 100 characters, or, when it has no repr, its type and
    why: it holds an integer past the interpreter's digit limit, or it is nested
    past the recursion limit."""
    try:
        text = repr(value)
    except ValueError:
        kind = "an integer" if type(value) is int else f"a {type(value).__name__} holding an integer"
        return f"{kind} past {sys.get_int_max_str_digits():,} digits"
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to show"
    return text if len(text) <= 100 else text[:99] + "…"


def _refuse(value, name: str, kind: str) -> InputError:
    """The one refusal of a missing or wrong-type value, named ``name``."""
    if value is None:
        return InputError(f"missing required input {name}")
    return InputError(f"{name} must be {kind}, got {_shown(value)}")


def _indexed(stem: str, n: int) -> str:
    """``stem`` then n, as ``C3``, or then ``_n`` when n is too long for a decimal form."""
    try:
        return f"{stem}{n}"
    except ValueError:
        return f"{stem}_n"


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

