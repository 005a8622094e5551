"""The (-n)-class enumeration against a search of the whole box, and the work
budget that bounds it."""

import hashlib
import itertools
import tracemalloc

import pytest

import oracles
from nslattice import (
    DivisorClass,
    InvalidParameterError,
    blowup_p2_lattice,
    enumerate_negative_rational_classes,
    enumeration,
)
from nslattice.errors import InputError

SELF_INTS = (-1, -2, -3, -4)


def coeffs_of(r, self_int, bound):
    found = enumerate_negative_rational_classes(blowup_p2_lattice(r), self_int, bound)
    return [cls.coeffs for cls in found]


@pytest.mark.parametrize("bound", (1, 2, 3))
@pytest.mark.parametrize("r", range(6))
def test_equals_box_search(r, bound):
    for self_int in SELF_INTS:
        assert coeffs_of(r, self_int, bound) == oracles.box_negative_rational_classes(
            r, self_int, bound
        )


@pytest.mark.parametrize("r", range(13))
def test_bound_one_matches_multiset_count_in_increasing_order(r):
    for self_int in SELF_INTS:
        got = coeffs_of(r, self_int, 1)
        assert len(got) == oracles.count_negative_rational_classes(r, self_int, 1)
        assert all(a < b for a, b in zip(got, got[1:]))
        for c in got:
            assert oracles.pairing_blowup_p2(c, c) == self_int
            assert oracles.genus_blowup_p2(c) == 0
            assert c[0] in (0, 1) and all(abs(e) <= 1 for e in c[1:])


def test_degrees_past_an_infeasible_stretch_are_found():
    # at r = 10, self_int = -5 Cauchy-Schwarz fails for d = 3..15 only, and
    # d = 16 has the ten classes 16H - 6E_i - 5(sum of the other E_j)
    got = coeffs_of(10, -5, 17)
    assert len(got) == oracles.count_negative_rational_classes(10, -5, 17)
    assert sum(c[0] == 16 for c in got) == 10


@pytest.mark.parametrize("r", range(1, 11))
def test_standard_plane_lattices_enumerate(r):
    got = coeffs_of(r, -1, 2)
    assert len(got) == oracles.count_negative_rational_classes(r, -1, 2)


@pytest.mark.parametrize("self_int,r,bound", [(-1, 10, 5), (-2, 9, 7)])
def test_listed_classes_are_plain_divisor_classes(self_int, r, bound):
    # built without DivisorClass.__init__: each must still be the value it names
    for c in enumerate_negative_rational_classes(blowup_p2_lattice(r), self_int, bound):
        same = DivisorClass(c.coeffs)
        assert type(c) is DivisorClass and vars(c) == {"coeffs": c.coeffs}
        assert c == same and hash(c) == hash(same) and repr(c) == repr(same)


def test_enumeration_grid_digest():
    # the grid the earlier perf changes were each checked against by hand
    digest = hashlib.sha256()
    for self_int in SELF_INTS:
        for r in range(11):
            for bound in range(1, (5 if r == 10 else 7) + 1):
                found = coeffs_of(r, self_int, bound)
                digest.update(repr((self_int, r, bound, found)).encode())
    assert digest.hexdigest() == (
        "04c9abf0f1e3f99744d01e36ff1aab4228a452e2f5faa785973e38ac2ce7d8e4"
    )


@pytest.mark.parametrize("bound", (2, 3, 4))
@pytest.mark.parametrize("r", range(6, 11))
def test_orbits_expand_completely(r, bound):
    # at these bounds the multiplicities of an orbit take three or more values
    for self_int in SELF_INTS:
        got = coeffs_of(r, self_int, bound)
        assert len(got) == oracles.count_negative_rational_classes(r, self_int, bound)
        assert all(a < b for a, b in zip(got, got[1:]))
        listed = set(got)
        for c in got:
            for i in range(2, r + 1):
                swapped = list(c)
                swapped[1], swapped[i] = c[i], c[1]
                assert tuple(swapped) in listed


def test_budget_is_charged_before_any_class_is_built(monkeypatch):
    # (-1)-classes at r = 60, bound 1: the degree-0 orbit of E_i costs
    # 60 * 61 units, the degree-1 orbit (1; 1, 1, 0^58) 1,770 * 61 = 107,970
    lat = blowup_p2_lattice(60)
    monkeypatch.setattr(enumeration, "ENUMERATION_BUDGET", 50_000)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="budget"):
            enumerate_negative_rational_classes(lat, -1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1,770 classes would hold 1,770 * 61 coefficient pointers alone
    assert peak < 64 * 1024


@pytest.mark.parametrize("r,units", [(9, 47_990), (10, 612_609)])
def test_budget_charge_is_exact(monkeypatch, r, units):
    # (-1)-classes at bound 7 take exactly README's units: they fit a budget of
    # that many and not one fewer
    lat = blowup_p2_lattice(r)
    monkeypatch.setattr(enumeration, "ENUMERATION_BUDGET", units)
    enumerate_negative_rational_classes(lat, -1, 7)
    monkeypatch.setattr(enumeration, "ENUMERATION_BUDGET", units - 1)
    with pytest.raises(InvalidParameterError, match="budget"):
        enumerate_negative_rational_classes(lat, -1, 7)


def test_arrangement_count_matches_the_multinomial():
    # the search passes each orbit's multiplicities sorted
    for length in range(9):
        for values in itertools.combinations_with_replacement(range(-3, 4), length):
            assert enumeration._arrangement_count(values) == oracles.arrangement_count(values)


@pytest.mark.parametrize("r", (1, 2))
@pytest.mark.parametrize("self_int,bound", [(-1.0, 7), (-1, 7.0), (-1, True), (True, 7)])
def test_inexact_arguments_are_refused_before_the_search(monkeypatch, r, self_int, bound):
    # a float self-intersection once came back as a coefficient at r = 1,
    # DivisorClass((0, 1.0)), and failed inside isqrt at r = 2; a bound of
    # True once listed the 3 classes of degree <= 1 at r = 2
    def search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(enumeration, "_square_constrained_vectors", search)
    with pytest.raises(TypeError):
        enumerate_negative_rational_classes(blowup_p2_lattice(r), self_int, bound)


def test_over_budget_is_a_domain_error(monkeypatch):
    # (-1)-classes at r = 8, bound 7 take about 2,200 units of work
    monkeypatch.setattr(enumeration, "ENUMERATION_BUDGET", 1_000)
    with pytest.raises(InvalidParameterError, match="budget") as info:
        enumerate_negative_rational_classes(blowup_p2_lattice(8), -1, 7)
    # a domain error (exit 1), not a malformed input (exit 2)
    assert not isinstance(info.value, InputError)


# finitely many classes: Cauchy-Schwarz bounds the degree for r <= 8, and at
# r = 9 for self_int <= -3 only
FINITE = [(r, s) for r in range(1, 10) for s in SELF_INTS if r <= 8 or s <= -3]


@pytest.mark.parametrize("r,self_int", FINITE)
def test_huge_degree_bound_stops_at_the_cauchy_schwarz_limit(r, self_int):
    # the degrees past the limit are never tried, so they cost no budget
    assert coeffs_of(r, self_int, 10**12) == coeffs_of(r, self_int, 60)


# every cell of the benchmark sweep, and the selfcheck's stability run at bound 12
KNOWN_REQUESTS = [(r, s, 7 if r <= 9 else 5) for s in (-1, -2) for r in range(1, 11)] + [
    (r, -1, 12) for r in range(1, 9)
]


def test_known_requests_stay_well_inside_the_budget(monkeypatch):
    # the largest, (-1)-classes at r = 10 and bound 5, takes about 111,000 units
    monkeypatch.setattr(enumeration, "ENUMERATION_BUDGET", enumeration.ENUMERATION_BUDGET // 50)
    for r, self_int, bound in KNOWN_REQUESTS:
        enumerate_negative_rational_classes(blowup_p2_lattice(r), self_int, bound)
