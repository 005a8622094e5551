"""The lattice kernel against the naive Gram-matrix pairing, the checks made
when a lattice is built, and the classes drawn by the selfcheck sampler."""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from nslattice import (
    DimensionError,
    DivisorClass,
    Family,
    InvalidParameterError,
    LatticeCorruptionError,
    SurfaceLattice,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    hirzebruch_lattice,
)
from nslattice.selfcheck import _random_class

coeff = st.integers(min_value=-30, max_value=30)

# every built-in family up to rank 14
family_lattices = st.one_of(
    st.builds(hirzebruch_lattice, st.integers(0, 20)),
    st.builds(blowup_p2_lattice, st.integers(0, 13)),
    st.builds(blowup_hirzebruch_lattice, st.integers(0, 20), st.integers(0, 12)),
)


def hand_built(gram, canonical):
    rank = len(gram)
    return SurfaceLattice(
        family=Family.BLOWUP_P2,
        n=None,
        r=None,
        rank=rank,
        gram=gram,
        basis_labels=tuple(f"B{i}" for i in range(rank)),
        canonical=DivisorClass(canonical),
    )


@st.composite
def dense_lattices(draw):
    # every entry nonzero, so no basis vector splits off as a -1 tail
    rank = draw(st.integers(2, 7))
    entry = st.integers(-4, 4).filter(bool)
    upper = {(i, j): draw(entry) for i in range(rank) for j in range(i, rank)}
    gram = tuple(
        tuple(upper[min(i, j), max(i, j)] for j in range(rank)) for i in range(rank)
    )
    return hand_built(gram, draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank)))


@st.composite
def broken_tail_lattices(draw):
    # a family lattice whose -I tail has one -2 on the diagonal
    lat = draw(
        st.one_of(
            st.builds(blowup_p2_lattice, st.integers(1, 13)),
            st.builds(blowup_hirzebruch_lattice, st.integers(0, 20), st.integers(1, 12)),
        )
    )
    p = draw(st.integers(lat.rank - lat.r, lat.rank - 1))
    gram = tuple(
        tuple(-2 if i == j == p else g for j, g in enumerate(row))
        for i, row in enumerate(lat.gram)
    )
    return hand_built(gram, lat.canonical.coeffs)


def class_pair(lat):
    vec = st.lists(coeff, min_size=lat.rank, max_size=lat.rank)
    return st.tuples(st.just(lat), vec, vec)


def assert_kernel_matches_oracle(lat, x, y):
    gram, k = lat.gram, lat.canonical.coeffs
    d1, d2 = DivisorClass(x), DivisorClass(y)
    dd = oracles.gram_pairing(gram, x, x)
    kd = oracles.gram_pairing(gram, k, x)
    assert lat.intersect(d1, d2) == oracles.gram_pairing(gram, x, y)
    assert lat.intersect(d2, d1) == oracles.gram_pairing(gram, y, x)
    assert lat.self_intersection(d1) == dd
    assert lat.canonical_pairing(d1) == kd
    for method, total in (
        (lat.arithmetic_genus, dd + kd),
        (lat.euler_characteristic, dd - kd),
    ):
        if total % 2:
            with pytest.raises(LatticeCorruptionError):
                method(d1)
        else:
            assert method(d1) == 1 + total // 2


class TestKernelOracle:
    @given(family_lattices.flatmap(class_pair))
    def test_families(self, case):
        assert_kernel_matches_oracle(*case)

    @given(dense_lattices().flatmap(class_pair))
    def test_dense_gram(self, case):
        assert_kernel_matches_oracle(*case)

    @given(broken_tail_lattices().flatmap(class_pair))
    def test_tail_broken_by_minus_two(self, case):
        assert_kernel_matches_oracle(*case)

    def test_family_splits(self):
        # the head is H on blowup_p2 and the (C_n, F) block on the F_n families
        assert blowup_p2_lattice(9)._head == ((0, 0, 2),)
        assert blowup_hirzebruch_lattice(3, 12)._head == ((0, 0, -2), (0, 1, 1), (1, 0, 1), (1, 1, 1))
        assert hirzebruch_lattice(1)._head == ((0, 1, 1), (1, 0, 1), (1, 1, 1))

    def test_derived_tables_stay_out_of_equality_and_repr(self):
        lat = blowup_hirzebruch_lattice(2, 3)
        assert "_head" not in repr(lat) and "_kg" not in repr(lat)
        assert lat == blowup_hirzebruch_lattice(2, 3)
        assert hash(lat) == hash(blowup_hirzebruch_lattice(2, 3))
        assert lat.to_json_dict() == {"family": "blowup_hirzebruch", "n": 2, "r": 3}


class TestGramValidation:
    def test_asymmetric_gram(self):
        with pytest.raises(LatticeCorruptionError):
            hand_built(((1, 2), (0, -1)), (0, 0))

    @pytest.mark.parametrize(
        "gram",
        [
            ((1, 0), (0,)),
            ((1, 0, 0), (0, -1)),
            ((1,), (0, -1)),
            ((1, 0),),
        ],
    )
    def test_ragged_or_short_rows(self, gram):
        with pytest.raises(DimensionError):
            SurfaceLattice(
                family=Family.BLOWUP_P2,
                n=None,
                r=1,
                rank=2,
                gram=gram,
                basis_labels=("H", "E1"),
                canonical=DivisorClass((-3, 1)),
            )

    def test_wrong_canonical_length(self):
        with pytest.raises(DimensionError):
            hand_built(((1, 0), (0, -1)), (-3, 1, 1))

    def test_symmetric_gram_given_as_lists(self):
        lat = hand_built([[1, 0], [0, -1]], (-3, 1))
        assert lat.self_intersection(DivisorClass((3, -1))) == 8


class TestH0Duality:
    @given(family_lattices.flatmap(lambda lat: st.tuples(
        st.just(lat), st.lists(coeff, min_size=lat.rank, max_size=lat.rank)
    )))
    def test_chi_of_residual_class_and_certified_bound(self, case):
        lat, x = case
        d = DivisorClass(x)
        chi = lat.euler_characteristic(d)
        residual = lat.canonical - d
        assert lat.euler_characteristic(residual) == chi
        # the nef pullbacks: H on the plane blowups, F and C_n + nF on the others;
        # the library reads H or F alone, as C_n + nF certifies no other class
        # with chi > 0
        if lat.n is None:
            nef = [lat.basis_class(0)]
        else:
            nef = [lat.basis_class(1), lat.basis_class(0) + lat.n * lat.basis_class(1)]
        certified = any(lat.intersect(c, residual) < 0 for c in nef)
        assert lat.h0_lower_bound(d) == (max(0, chi) if certified else 0)


class TestRandomClassStream:
    @pytest.mark.parametrize("seed", [0, 20260808, 20260810])
    @pytest.mark.parametrize("rank,bound", [(1, 4), (2, 9), (14, 9)])
    def test_same_draws_as_randint(self, seed, rank, bound):
        plain = random.Random(seed)
        expected = [plain.randint(-bound, bound) for _ in range(rank)]
        got = _random_class(random.Random(seed), rank, bound)
        assert list(got.coeffs) == expected
        assert got == DivisorClass(expected) and hash(got) == hash(DivisorClass(expected))

    def test_generator_states_match_after_many_draws(self):
        ours, plain = random.Random(808), random.Random(808)
        for k in range(2_000):
            rank, bound = 1 + k % 14, (4, 9)[k % 2]
            got = _random_class(ours, rank, bound)
            assert got.coeffs == tuple(plain.randint(-bound, bound) for _ in range(rank))
        assert ours.getstate() == plain.getstate()

    def test_inexact_coefficients_still_refused(self):
        with pytest.raises(TypeError):
            DivisorClass([1.5])
        with pytest.raises(TypeError):
            DivisorClass((1,)) * 1.5


class TestGramEntryTypes:
    @pytest.mark.parametrize(
        "gram",
        [
            ((1.5,),),
            ((1.0,),),
            ((True,),),
            ((1, 0.5), (0.5, -1)),
            ((0, 1), (1, 2.0)),
            # tail entries equal to those of -I by value are refused too
            ((1, 0.0, 0), (0.0, -1.0, 0), (0, 0, -1)),
            ((1, 0, 0), (0, -1.0, 0), (0, 0, -1)),
        ],
    )
    def test_non_integer_head_entry_rejected(self, gram):
        with pytest.raises(LatticeCorruptionError, match="not an integer"):
            hand_built(gram, (-3,) + (1,) * (len(gram) - 1))

    @pytest.mark.parametrize(
        "changes",
        [
            {"r": 2.0}, {"r": True}, {"r": "2"}, {"n": 0.0}, {"n": False},
            {"family": "blowup_p2"}, {"family": "plane"},
        ],
    )
    def test_parameter_of_another_type_rejected(self, changes):
        # r = 2.0 and the family "blowup_p2" used to compare equal to blowup_p2_lattice(2)
        with pytest.raises(LatticeCorruptionError, match="need a Family"):
            dataclasses.replace(blowup_p2_lattice(2), **changes)


class TestBasisClassRange:
    @pytest.mark.parametrize(
        "lat",
        [hirzebruch_lattice(3), blowup_p2_lattice(2), blowup_hirzebruch_lattice(1, 2)],
        ids=["hirzebruch", "blowup_p2", "blowup_hirzebruch"],
    )
    def test_index_outside_the_basis_rejected(self, lat):
        assert [lat.basis_class(i) for i in range(lat.rank)] == [
            DivisorClass(tuple(int(i == j) for j in range(lat.rank))) for i in range(lat.rank)
        ]
        for index in (-1, lat.rank, 7):
            with pytest.raises(InvalidParameterError):
                lat.basis_class(index)
