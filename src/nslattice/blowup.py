"""Witness-based nef testing and classification of anticanonical fixed components.

Nefness of a class cannot be decided from lattice data alone: it quantifies
over all prime divisors on the surface, and the lattice does not know which
classes are prime.  Everything here is therefore *relative to a witness set*,
a caller-supplied list of classes asserted to be prime.  Incomplete witness
lists give necessary evidence only, and the verdicts say so.

Inconsistent witness data is a first-class outcome, not an exception: a
witness set can contradict what is possible for a genuine fixed component of
an anticanonical system, and the classifier reports that as a
``theorem_violation`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionError, PreconditionError
from .lattice import SurfaceLattice, lattice_from_json
from .values import (
    DivisorClass,
    Family,
    _new,
    _refuse,
    _set,
    divisor_from_json,
    json_bool,
    json_object,
)

NEGATIVE_RATIONAL = "negative_rational"
GENUS_ONE = "genus_one"
THEOREM_VIOLATION = "theorem_violation"


@dataclass(frozen=True, init=False)
class CurveWitness:
    """A divisor class the caller asserts to contain a prime divisor.

    Primality is not decidable from a class, so it stays a caller-side
    assertion; the necessary condition p_a >= 0 is enforced when the witness
    is attached to a SurfaceModel.
    """

    cls: DivisorClass
    asserted_prime: bool = True

    def __init__(self, cls: DivisorClass, asserted_prime: bool = True) -> None:
        # written out, as DivisorClass's is, so that the check costs no __post_init__ call
        if not isinstance(cls, DivisorClass):
            raise _refuse(cls, "cls", "a DivisorClass")
        _set(self, "cls", cls)
        _set(self, "asserted_prime", json_bool(asserted_prime, "prime"))

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.cls.coeffs), "prime": self.asserted_prime}


def witness_from_json(doc: dict) -> CurveWitness:
    """The checks and messages of json_object, divisor_from_json, then CurveWitness on
    ``prime`` (null or absent is true), with no call to json_object or CurveWitness."""
    if not isinstance(doc, dict):
        raise _refuse(doc, "witness", "a JSON object")
    # both fields are read exactly, so the witness skips the checking __init__
    w = _new(CurveWitness)
    _set(w, "cls", divisor_from_json(doc))
    if (prime := doc.get("prime")) is None:
        prime = True
    elif type(prime) is not bool:
        raise _refuse(prime, "prime", "true or false")
    _set(w, "asserted_prime", prime)
    return w


@dataclass(frozen=True)
class SurfaceModel:
    """A lattice plus a (possibly incomplete) list of known prime classes.

    Each witness's length, and p_a >= 0 by the lattice's ``_genus`` if it is asserted
    prime, are checked once, here; ``_forced`` holds the pairs (witness, K.C) with
    K.C > 0 in list order, and the verdicts below read it.
    """

    lattice: SurfaceLattice
    curves: tuple[CurveWitness, ...] = ()
    _forced: tuple[tuple[CurveWitness, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lat, forced = self.lattice, []
        if not isinstance(lat, SurfaceLattice):
            raise _refuse(lat, "lattice", "a SurfaceLattice")
        # a witness's class and flag are checked, so only a non-witness raises these here;
        # curves must be a list or tuple, as in model_from_json: "" and {} are no witnesses
        try:
            if not isinstance(self.curves, (list, tuple)):
                raise TypeError
            curves = tuple(self.curves)
            for w in curves:
                d = w.cls
                c = d.coeffs
                if len(c) != lat.rank:
                    raise DimensionError(f"witness {list(c)} does not match lattice rank {lat.rank}")
                if type(d) is not DivisorClass:
                    lat._check(d)  # refuses a class of another n
                if w.asserted_prime and lat._genus(c) < 0:
                    raise PreconditionError(
                        f"class {list(c)} has negative arithmetic genus and "
                        "cannot contain a prime divisor"
                    )
                if (kc := lat._k_dot(c)) > 0:
                    forced.append((w, kc))
        except (TypeError, AttributeError):
            raise _refuse(self.curves, "curves", "a list of CurveWitness values") from None
        _set(self, "curves", curves)
        _set(self, "_forced", tuple(forced))

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.to_json_dict(),
            "curves": [w.to_json_dict() for w in self.curves],
        }


def model_from_json(doc: dict) -> SurfaceModel:
    doc = json_object(doc, "model")
    lattice = lattice_from_json(doc.get("lattice"))
    curves = doc.get("curves", [])
    if not isinstance(curves, (list, tuple)):
        raise _refuse(curves, "curves", "a list of witnesses")
    return SurfaceModel(lattice, tuple(map(witness_from_json, curves)))


@dataclass(frozen=True)
class FixedComponentKind:
    """Tagged verdict for a fixed component of an anticanonical system.

    ``negative_rational`` carries n >= 1 (the component is a (-n)-curve),
    ``genus_one`` carries the self-intersection (<= 0), and
    ``theorem_violation`` carries the reason the data is impossible.
    """

    kind: str
    n: int | None = None
    self_int: int | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.kind == NEGATIVE_RATIONAL and (self.n is None or self.n < 1):
            raise PreconditionError("negative_rational verdict requires n >= 1")
        if self.kind == GENUS_ONE and (self.self_int is None or self.self_int > 0):
            raise PreconditionError("genus_one verdict requires self-intersection <= 0")
        if self.kind == THEOREM_VIOLATION and not self.reason:
            raise PreconditionError("theorem_violation verdict requires a reason")

    def to_json_dict(self) -> dict:
        if self.kind == NEGATIVE_RATIONAL:
            return {"kind": self.kind, "n": self.n}
        if self.kind == GENUS_ONE:
            return {"kind": self.kind, "self_int": self.self_int}
        return {"kind": self.kind, "reason": self.reason}


@dataclass(frozen=True)
class NefVerdict:
    """Outcome of a witness-relative nef test."""

    nef_relative: bool
    violator: CurveWitness | None = None
    pairing: int | None = None
    empty_evidence: bool = False

    def __bool__(self) -> bool:
        return self.nef_relative

    def to_json_dict(self) -> dict:
        if self.nef_relative:
            return {"verdict": "nef-relative", "empty_evidence": self.empty_evidence}
        assert self.violator is not None
        return {
            "verdict": "violated-by",
            "violator": self.violator.to_json_dict(),
            "pairing": self.pairing,
        }


@dataclass(frozen=True)
class Report:
    """Diagnostic outcome with a verdict, readable detail lines and violators."""

    verdict: str
    details: tuple[str, ...] = ()
    violators: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "details": list(self.details),
            "violators": list(self.violators),
        }


INCOMPLETE_VERDICT = "witness set provably incomplete or surface not anticanonical-nef"


def _read(model: SurfaceModel) -> tuple:
    """``model``'s lattice, curves and forced pairs, or the refusal of a model lacking one."""
    try:
        return model.lattice, model.curves, model._forced
    except AttributeError:
        raise _refuse(model, "model", "a SurfaceModel") from None


def nef_against_witnesses(model: SurfaceModel, d: DivisorClass) -> NefVerdict:
    """Test D against every witness; the verdict is relative to the list.

    Returns the first witness (in list order) pairing negatively with D.  An
    empty witness list yields a vacuous nef verdict flagged as empty evidence.
    """
    lat, curves, _ = _read(model)
    c = lat._check(d)
    if not curves:
        return NefVerdict(True, empty_evidence=True)
    for w in curves:
        pairing = lat._pair(c, w.cls.coeffs)
        if pairing < 0:
            return NefVerdict(False, violator=w, pairing=pairing)
    return NefVerdict(True)


def forced_fixed_components(model: SurfaceModel) -> list[CurveWitness]:
    """Witnesses pairing negatively with -K.

    A prime divisor whose class pairs negatively with -K lies in every member
    of |-K|, so each such witness is a fixed component of the anticanonical
    system.  Input list order is preserved.  (-K).C < 0 is read as K.C > 0.
    ``asserted_prime`` is not read: on F_3 a witness 2C_3 (p_a = -4) marked
    not prime is listed, though the fixed part of |-K| is C_3 once.
    """
    return [w for w, _ in _read(model)[2]]


def _prime_class(model: SurfaceModel, witness: CurveWitness, user: str) -> tuple:
    """The lattice, coefficients and square of a witness that ``user`` requires asserted prime."""
    try:
        prime = witness.asserted_prime
    except AttributeError:
        raise _refuse(witness, "witness", "a CurveWitness") from None
    if not prime:
        raise PreconditionError(f"{user} requires a witness asserted to be prime")
    lat = _read(model)[0]
    c = lat._check(witness.cls)
    return lat, c, lat._pair(c, c)


def classify_fixed_component(model: SurfaceModel, witness: CurveWitness) -> FixedComponentKind:
    """Classify a fixed component of an anticanonical system by (p_a, self-int).

    A genuine fixed component is either a (-n)-curve (p_a = 0, self-int <= -1)
    or a genus-one integral curve of self-intersection <= 0, the latter with
    self-intersection 0 only when K.K = 0, and not at all when K.K > 0.  Any
    other combination is impossible and reported as a theorem violation.
    """
    lat, c, s = _prime_class(model, witness, "classification")
    # Noether's formula K.K = 10 - rho on a rational surface
    pa, k2 = lat._genus(c), 10 - lat.rank
    if pa == 0 and s <= -1:
        return FixedComponentKind(NEGATIVE_RATIONAL, n=-s)
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
        return FixedComponentKind(GENUS_ONE, self_int=s)
    return FixedComponentKind(THEOREM_VIOLATION, reason=reason)


def anticanonical_consequence_check(model: SurfaceModel, witness_complete: bool) -> Report:
    """Global consistency checks driven by whether -K is nef against the witnesses.

    When -K clears every witness, a surface with genuinely nef -K must have
    K.K >= 0, Picard number <= 10, and (for blowups of the plane) at most
    nine points blown up; a failed inequality proves the witness set
    incomplete or the surface not anticanonical-nef.  When some witness
    blocks -K and K.K >= 0, the forced fixed components are listed with
    their arithmetic genus and self-intersection.  Each one of genus zero
    is a (-n)-curve with n >= 3 by adjunction alone, so that case is never
    a theorem violation.  ``witness_complete`` is true or false, nothing else.
    """
    json_bool(witness_complete, "witness_complete")
    lat, curves, forced = _read(model)
    k2 = 10 - lat.rank  # Noether's formula on a rational surface
    details: list[str] = []

    if not forced:
        if not curves:
            details.append("no witnesses supplied; the nef verdict is vacuous")
        else:
            details.append(f"-K pairs >= 0 with all {len(curves)} witnesses")
        details.append(
            "witness list asserted complete: -K is nef"
            if witness_complete
            else "witness list not asserted complete: nef evidence is relative only"
        )
        checks = [(f"K.K = {k2} >= 0", k2 >= 0), (f"rho = {lat.rank} <= 10", lat.rank <= 10)]
        if lat.family is Family.BLOWUP_P2:
            checks.append((f"r = {lat.r} <= 9", lat.r <= 9))
        failed = []
        for text, ok in checks:
            details.append(f"{text}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failed.append(text)
        if failed:
            return Report(INCOMPLETE_VERDICT, tuple(details), tuple(failed))
        return Report("consistent", tuple(details), ())

    first, kc = forced[0]
    details.append(
        f"-K pairs negatively with witness {list(first.cls.coeffs)} (pairing {-kc})"
    )
    if k2 < 0:
        details.append(f"K.K = {k2} < 0: no forced consequence to verify")
        return Report("inconclusive", tuple(details), ())

    details.append(f"K.K = {k2} >= 0 and -K is not nef against the witnesses")
    for w, _ in forced:
        c = w.cls.coeffs
        s, pa = lat._pair(c, c), lat._genus(c)
        if pa == 0:
            # adjunction: K.C >= 1 and p_a = 0 give C.C = -2 - K.C <= -3
            details.append(
                f"forced fixed component {list(c)}: p_a = 0, self-intersection {s} <= -3: ok"
            )
        else:
            details.append(
                f"forced fixed component {list(c)}: p_a = {pa}, not rational; outside this check"
            )
    return Report("consistent", tuple(details), ())


def lemma_move_check(model: SurfaceModel, witness: CurveWitness) -> Report:
    """Verify that a prime class of positive self-intersection moves.

    On an anticanonical surface, assumed as in classify_fixed_component, a
    prime divisor G with G.G > 0 has h^0(G) >= 2 by the Riemann-Roch bound,
    so a computed bound below 2 contradicts the hypotheses (the surface is
    not anticanonical, or the class is not prime): a violation.
    """
    lat, c, s = _prime_class(model, witness, "the check")
    if s <= 0:
        return Report(
            "not applicable",
            (f"self-intersection {s} <= 0: no conclusion about moving",),
            (),
        )
    bound = lat.h0_lower_bound(witness.cls)
    details = (
        f"self-intersection {s} > 0",
        f"K pairing {lat._k_dot(c)}",
        f"h^0 lower bound {bound}",
    )
    if bound >= 2:
        return Report("consistent", details + ("bound >= 2: the class moves",), ())
    return Report(
        THEOREM_VIOLATION,
        details
        + (
            "bound < 2 is impossible for a prime class of positive "
            "self-intersection on an anticanonical surface",
        ),
        (witness.to_json_dict(),),
    )
