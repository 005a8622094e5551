"""A lattice stores G and K.G as the five integers of its head record, _head,
and no table of its rank but K: the matrix it builds on demand against the
naive one, equality by (family, n, r), dataclasses.replace, memory at high
rank and the parameters each family takes."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from nslattice import (
    DivisorClass,
    Family,
    InputError,
    SurfaceLattice,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    hirzebruch_lattice,
    lattice_from_json,
    make_lattice,
)
from test_kernel import family_lattices


@given(family_lattices)
def test_gram_and_hand_built_twin(lat):
    assert lat.gram == oracles.family_gram(lat.family, lat.n, lat.r)
    # the constructor called directly, with the family by its value
    twin = SurfaceLattice(lat.family.value, lat.n, lat.r)
    assert twin == lat and hash(twin) == hash(lat)
    assert twin._head == lat._head
    # a lattice is its (family, n, r): changing any of them gives another one
    others = [
        dataclasses.replace(lat, **{p: getattr(lat, p) + 1})
        for p in ("n", "r")
        if getattr(lat, p) is not None
    ]
    if lat.family is Family.HIRZEBRUCH:
        # the same Gram matrix, labels and K under another family
        others.append(blowup_hirzebruch_lattice(lat.n, 0))
        assert others[-1].gram == lat.gram and others[-1].canonical == lat.canonical
    assert others and all(other != lat for other in others)


@given(st.integers(0, 13))
def test_replace_keeps_the_block(r):
    lat = blowup_p2_lattice(r)
    moved = dataclasses.replace(lat, r=r + 1)
    assert moved == blowup_p2_lattice(r + 1) and moved != lat
    assert moved._head == lat._head
    # G is bordered by one more E with E.E = -1
    assert tuple(row[:-1] for row in moved.gram[:-1]) == lat.gram
    assert moved.gram[-1] == (0,) * (r + 1) + (-1,)
    # every field but family, n and r is derived, so replace refuses it
    with pytest.raises(ValueError, match="canonical"):
        dataclasses.replace(lat, canonical=DivisorClass((1,) * lat.rank))


def test_repr_prints_no_matrix():
    text = repr(blowup_hirzebruch_lattice(2, 3))
    assert "gram" not in text and "_head" not in text and "-1" not in text


@given(family_lattices)
def test_no_table_of_the_rank_but_k(lat):
    fields = vars(lat)
    assert set(fields) == {"family", "n", "r", "rank", "canonical", "_head"}
    assert len(fields["_head"]) == 5 and len(lat.canonical.coeffs) == lat.rank


def test_rank_2001_lattices_are_small():
    # the full Gram matrix of either would take about 32 MB
    tracemalloc.start()
    try:
        lats = [blowup_p2_lattice(2000), blowup_hirzebruch_lattice(0, 2000)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [lat.rank for lat in lats] == [2001, 2002]


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"family": "hirzebruch", "n": 1, "r": 5}, "r"),
        ({"family": "hirzebruch", "n": 1, "r": 0}, "r"),
        ({"family": "blowup_p2", "n": 3, "r": 1}, "n"),
        ({"family": "blowup_p2", "n": 0, "r": 1}, "n"),
    ],
)
def test_parameter_the_family_does_not_take_is_refused(doc, key):
    with pytest.raises(InputError, match=f"takes no {key}"):
        lattice_from_json(doc)
    with pytest.raises(InputError, match=f"takes no {key}"):
        make_lattice(doc["family"], n=doc["n"], r=doc["r"])


def test_absent_parameters_still_accepted():
    assert lattice_from_json({"family": "hirzebruch", "n": 1, "r": None}) == hirzebruch_lattice(1)
    assert lattice_from_json({"family": "blowup_p2", "n": None, "r": 2}) == blowup_p2_lattice(2)


@pytest.mark.parametrize(
    "family,n,r,message",
    [
        ("hirzebruch", None, None, "hirzebruch lattice requires n"),
        ("hirzebruch", None, 2, "hirzebruch lattice requires n"),
        ("hirzebruch", 1, 2, "hirzebruch lattice takes no r, got r = 2"),
        ("blowup_p2", None, None, "blowup_p2 lattice requires r"),
        ("blowup_p2", 3, None, "blowup_p2 lattice requires r"),
        ("blowup_p2", 3, 2, "blowup_p2 lattice takes no n, got n = 3"),
        ("blowup_hirzebruch", None, 2, "blowup_hirzebruch lattice requires n and r"),
        ("blowup_hirzebruch", 1, None, "blowup_hirzebruch lattice requires n and r"),
        (Family.BLOWUP_HIRZEBRUCH, None, None, "blowup_hirzebruch lattice requires n and r"),
    ],
)
def test_make_lattice_refusals(family, n, r, message):
    # blowup_hirzebruch takes both parameters, so it has no extra one to refuse
    for build in (make_lattice, SurfaceLattice):
        with pytest.raises(InputError) as info:
            build(family, n=n, r=r)
        assert str(info.value) == message
