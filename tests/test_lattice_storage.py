"""A lattice stores only the head block of its Gram matrix: the matrix it
builds on demand against the naive one, equality with a hand-built lattice,
dataclasses.replace, memory at high rank and the parameters each family takes."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given

import oracles
from nslattice import (
    DimensionError,
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


def hand_built(lat, gram):
    return SurfaceLattice(
        family=lat.family,
        n=lat.n,
        r=lat.r,
        rank=lat.rank,
        gram=gram,
        basis_labels=lat.basis_labels,
        canonical=lat.canonical,
    )


@given(family_lattices)
def test_gram_and_hand_built_twin(lat):
    gram = oracles.family_gram(lat.family, lat.n, lat.r)
    assert lat.gram == gram
    twin = hand_built(lat, lat.gram)
    assert twin == lat and hash(twin) == hash(lat)
    assert twin._head == lat._head and twin._kg == lat._kg
    assert hand_built(lat, [list(row) for row in gram]) == lat
    # the same basis, labels and K with another head block is another lattice
    other = tuple(tuple(g + 2 * (i == j == 0) for j, g in enumerate(row)) for i, row in enumerate(gram))
    assert hand_built(lat, other) != lat


@given(family_lattices)
def test_replace_keeps_the_block(lat):
    k = DivisorClass((1,) * lat.rank)
    moved = dataclasses.replace(lat, canonical=k)
    assert moved._block is lat._block and moved._head == lat._head
    assert moved.gram == lat.gram and moved.canonical == k
    assert moved != lat
    with pytest.raises(DimensionError):
        dataclasses.replace(lat, canonical=DivisorClass((1,) * (lat.rank + 1)))


def test_repr_prints_no_matrix():
    text = repr(blowup_hirzebruch_lattice(2, 3))
    assert "gram" not in text and "_block" not in text and "-1" not in text


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


def test_hand_built_lattice_without_gram_is_refused():
    with pytest.raises(InputError, match="gram"):
        SurfaceLattice(
            family=Family.BLOWUP_P2,
            n=None,
            r=0,
            rank=1,
            basis_labels=("H",),
            canonical=DivisorClass((-3,)),
        )
