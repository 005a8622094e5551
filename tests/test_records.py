"""The record contract.  Each of the package's 14 records is a ``_Record``:
``dataclasses.fields`` and ``dataclasses.replace`` read its fields, and it
compares, hashes and shows itself, and refuses assignment and deletion, as a
frozen dataclass of the same fields would."""

import dataclasses
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from functools import cache
from pathlib import Path

import pytest

from nslattice import (
    GENUS_ONE,
    NEGATIVE_RATIONAL,
    CheckResult,
    CurveWitness,
    DivisorClass,
    EffectiveWitness,
    FixedComponentKind,
    FixedMobileDecomposition,
    HirzebruchClass,
    NefDecomposition,
    NefVerdict,
    NotNef,
    Report,
    SelfcheckConfig,
    SurfaceLattice,
    SurfaceModel,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    fixed_mobile_decompose,
    is_effective,
    nef_decompose,
)
from nslattice.values import _Record


def witness(*coeffs, prime=True):
    return CurveWitness(DivisorClass(coeffs), prime)


# each record: its field names in order, and two builders of unequal values
RECORDS = {
    DivisorClass: (("coeffs",), lambda: DivisorClass((1, -1, 0)), lambda: DivisorClass((0, 1, -1))),
    SurfaceLattice: (
        ("family", "n", "r", "rank", "canonical", "_head"),
        lambda: blowup_p2_lattice(3),
        lambda: blowup_hirzebruch_lattice(1, 2),
    ),
    CurveWitness: (
        ("cls", "asserted_prime"),
        lambda: witness(0, 1, -1),
        lambda: witness(0, 1, -1, prime=False),
    ),
    SurfaceModel: (
        ("lattice", "curves", "_forced"),
        lambda: SurfaceModel(blowup_p2_lattice(2), (witness(0, 1, 0),)),
        lambda: SurfaceModel(blowup_p2_lattice(2)),
    ),
    FixedComponentKind: (
        ("kind", "n", "self_int", "reason"),
        lambda: FixedComponentKind(NEGATIVE_RATIONAL, n=1),
        lambda: FixedComponentKind(GENUS_ONE, self_int=0),
    ),
    NefVerdict: (
        ("nef_relative", "violator", "pairing", "empty_evidence"),
        lambda: NefVerdict(True, empty_evidence=True),
        lambda: NefVerdict(False, witness(0, 1), -1),
    ),
    Report: (
        ("verdict", "details", "violators"),
        lambda: Report("consistent", ("K.K = 8 >= 0: ok",)),
        lambda: Report("inconclusive", ("K.K = -1 < 0",), ("r = 10 <= 9",)),
    ),
    HirzebruchClass: (("coeffs", "n"), lambda: HirzebruchClass(3, 1, 0), lambda: HirzebruchClass(5, 1, 0)),
    EffectiveWitness: (
        ("effective", "multiplicities"),
        lambda: is_effective(3, 2, 5),
        lambda: is_effective(3, -1, 0),
    ),
    NefDecomposition: (("s", "t"), lambda: nef_decompose(3, 1, 4), lambda: nef_decompose(3, 2, 6)),
    NotNef: (("violator", "pairing"), lambda: nef_decompose(4, -1, 3), lambda: nef_decompose(4, 1, 3)),
    FixedMobileDecomposition: (
        ("fixed", "mobile", "j"),
        lambda: fixed_mobile_decompose(3, 2, 5),
        lambda: fixed_mobile_decompose(3, 2, 6),
    ),
    SelfcheckConfig: (
        (
            "anticanonical_n_max", "uniqueness_n_max", "uniqueness_a_max", "monoid_n_max",
            "monoid_coeff_bound", "monoid_copies", "random_classes", "random_coeff_bound",
            "family_n_max", "family_r_max", "isometry_random_classes", "enum_r_max",
            "enum_degree_bound", "enum_stability_bound", "seed",
        ),
        lambda: SelfcheckConfig(),
        lambda: SelfcheckConfig(seed=7),
    ),
    CheckResult: (
        ("name", "passed", "detail"),
        lambda: CheckResult("classifier_theorem_cases", True, "dichotomy swept for n = 0..50"),
        lambda: CheckResult("classifier_theorem_cases", False, "1 failures; first: n = 3"),
    ),
}
CASES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


@cache
def reference_class(cls):
    """A frozen dataclass of ``cls``'s fields, each given to its constructor, so
    that a field built with init=False is given its value too."""
    fields = dataclasses.fields(cls)
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(repr=f.repr, compare=f.compare)) for f in fields],
        frozen=True,
    )


def reference(record):
    """``record`` as an instance of its ``reference_class``."""
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return reference_class(type(record))(**values)


def test_every_record_is_listed():
    found, todo = set(), [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            # a module dropped from sys.modules and imported again defines its records anew
            if cls.__module__.startswith("nslattice."):
                found.add(cls.__name__)
    assert found == {cls.__name__ for cls in RECORDS} and len(found) == 14


@CASES
def test_fields_are_pinned(cls):
    names, first, second = RECORDS[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert type(first()) is cls and type(second()) is cls


@CASES
def test_replace_round_trips(cls):
    _, first, second = RECORDS[cls]
    a, b = first(), second()
    if cls is HirzebruchClass:
        # its constructor takes (n, a, b), not its fields (coeffs, n), as it did as a
        # frozen dataclass; ROADMAP item 13 folds it into DivisorClass
        with pytest.raises(TypeError, match="unexpected keyword argument 'coeffs'"):
            dataclasses.replace(a)
        return
    same = dataclasses.replace(a)
    assert type(same) is cls and same == a and repr(same) == repr(a)
    given = [f.name for f in dataclasses.fields(cls) if f.init]
    moved = dataclasses.replace(a, **{name: getattr(b, name) for name in given})
    assert moved == b and moved != a and repr(moved) == repr(b)
    back = dataclasses.replace(moved, **{name: getattr(a, name) for name in given})
    assert back == a and hash(back) == hash(a) and repr(back) == repr(a)


@CASES
def test_the_replace_protocol_is_dataclasses_replace(cls):
    # copy.replace (CPython >= 3.13) calls __replace__, as on a dataclass
    _, first, second = RECORDS[cls]
    a, b = first(), second()
    given = {f.name: getattr(b, f.name) for f in dataclasses.fields(cls) if f.init}
    if cls is HirzebruchClass:
        with pytest.raises(TypeError, match="unexpected keyword argument 'coeffs'"):
            a.__replace__()
        return
    moved = a.__replace__(**given)
    assert type(moved) is cls and moved == dataclasses.replace(a, **given) == b


@CASES
def test_compares_hashes_and_shows_as_a_frozen_dataclass(cls):
    _, first, second = RECORDS[cls]
    records = [first(), first(), second()]
    refs = [reference(x) for x in records]
    for x, ref in zip(records, refs):
        assert repr(x) == repr(ref)
        # neither side compares with the other's class
        assert x.__eq__(ref) is NotImplemented and not x == ref
    for x, rx in zip(records, refs):
        for y, ry in zip(records, refs):
            assert (x == y, x != y) == (rx == ry, rx != ry)
    twin, other = records[1], records[2]
    assert records[0] is not twin and records[0] == twin and hash(records[0]) == hash(twin)
    assert records[0] != other and records[0] != object() and records[0] != None  # noqa: E711


@CASES
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, first, _ = RECORDS[cls]
    record = first()
    ref, shown = reference(record), repr(record)
    for name in names + ("extra",):
        with pytest.raises(FrozenInstanceError) as got:
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError) as want:
            setattr(ref, name, 0)
        assert str(got.value) == str(want.value) == f"cannot assign to field {name!r}"
        with pytest.raises(FrozenInstanceError) as got:
            delattr(record, name)
        with pytest.raises(FrozenInstanceError) as want:
            delattr(ref, name)
        assert str(got.value) == str(want.value) == f"cannot delete field {name!r}"
    assert repr(record) == shown


def test_a_record_equals_no_record_of_another_class():
    # as with frozen dataclasses, a subclass's record is another value, though
    # the fields it shares compare equal: C_1 on F_3 is no plain class (1, 0)
    plain, on_f3 = DivisorClass((1, 0)), HirzebruchClass(3, 1, 0)
    assert plain.__eq__(on_f3) is NotImplemented and on_f3.__eq__(plain) is NotImplemented
    assert plain != on_f3 and on_f3 != plain


@CASES
def test_match_args_are_the_fields_given_to_the_constructor(cls):
    # as a dataclass sets them, so a class pattern takes the fields by position
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls) if f.init)


def test_every_record_is_a_dataclass_and_the_base_is_not():
    for cls in RECORDS:
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(RECORDS[cls][1]())
    assert not dataclasses.is_dataclass(_Record)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter, where no record's fields have been read,
    and return its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("base_first", [False, True])
def test_a_subclass_has_its_own_fields_whichever_is_read_first(base_first):
    # HirzebruchClass inherits from DivisorClass, but not its fields
    lines = run_fresh(
        "import dataclasses\n"
        "from nslattice import DivisorClass, HirzebruchClass\n"
        f"base = dataclasses.fields(DivisorClass) if {base_first} else None\n"
        "names = lambda cls: [f.name for f in dataclasses.fields(cls)]\n"
        "print(names(HirzebruchClass), names(DivisorClass), names(HirzebruchClass(3, 1, 0)))\n"
    )
    assert lines == ["['coeffs', 'n'] ['coeffs'] ['coeffs', 'n']"]


def test_threads_reading_the_fields_first_get_the_same_fields():
    # each thread reads every record's fields in its own order, all starting at once
    # and switching as often as the interpreter allows
    names = ", ".join(cls.__name__ for cls in RECORDS)
    lines = run_fresh(
        "import dataclasses, sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        f"from nslattice import {names}\n"
        f"records = [{names}]\n"
        "start, got = threading.Barrier(8), [None] * 8\n"
        "def read(i):\n"
        "    start.wait()\n"
        "    order = records[i:] + records[:i]\n"
        "    got[i] = {cls: dataclasses.fields(cls) for cls in order}\n"
        "threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "print(not any(t.is_alive() for t in threads), all(g == got[0] for g in got), len(got[0]))\n"
        "for cls in records:\n"
        "    print(cls.__name__, *[f.name for f in got[0][cls]])\n"
    )
    assert lines[0] == "True True 14"
    assert lines[1:] == [" ".join((cls.__name__, *RECORDS[cls][0])) for cls in RECORDS]
