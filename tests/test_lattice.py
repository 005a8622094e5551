import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oracles
from nslattice import (
    DimensionError,
    DivisorClass,
    Family,
    FamilyError,
    InvalidParameterError,
    SurfaceLattice,
    basis_change_blf0_to_p2,
    basis_change_f1_to_p2,
    basis_change_to_p2,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    divisor_from_json,
    enumerate_negative_rational_classes,
    hirzebruch_lattice,
    lattice_from_json,
    make_lattice,
)
from nslattice.selfcheck import _inertia

coeff = st.integers(min_value=-30, max_value=30)


def pair2(draw_from=coeff):
    return st.tuples(draw_from, draw_from)


class TestConstruction:
    def test_hirzebruch_3(self):
        lat = hirzebruch_lattice(3)
        assert lat.rank == 2
        assert lat.gram == ((-3, 1), (1, 0))
        assert lat.canonical.coeffs == (-2, -5)
        assert lat.basis_labels == ("C3", "F")

    @pytest.mark.parametrize(
        "lat,labels",
        [
            (hirzebruch_lattice(0), ("C0", "F")),
            (blowup_p2_lattice(0), ("H",)),
            (blowup_p2_lattice(3), ("H", "E1", "E2", "E3")),
            (blowup_hirzebruch_lattice(12, 0), ("C12", "F")),
            (blowup_hirzebruch_lattice(1, 2), ("C1", "F", "E1", "E2")),
        ],
        ids=["F0", "P2", "Bl3P2", "Bl0F12", "Bl2F1"],
    )
    def test_basis_labels(self, lat, labels):
        # built on each read from n and r, and no part of the lattice's value
        assert lat.basis_labels == labels
        assert len(labels) == lat.rank
        assert "E1" not in repr(lat)

    def test_blowup_p2_0_is_the_plane(self):
        lat = blowup_p2_lattice(0)
        assert lat.rank == 1
        assert lat.gram == ((1,),)
        assert lat.canonical.coeffs == (-3,)

    def test_blowup_p2_6_canonical_square(self):
        lat = blowup_p2_lattice(6)
        assert lat.self_intersection(lat.canonical) == 3

    def test_blowup_hirzebruch_block_structure(self):
        lat = blowup_hirzebruch_lattice(5, 2)
        assert lat.rank == 4
        assert lat.gram[0][:2] == (-5, 1)
        assert lat.gram[2] == (0, 0, -1, 0)
        assert lat.canonical.coeffs == (-2, -7, 1, 1)

    @pytest.mark.parametrize(
        "family,kwargs",
        [
            (Family.HIRZEBRUCH, {"n": -1}),
            (Family.BLOWUP_P2, {"r": -2}),
            (Family.BLOWUP_HIRZEBRUCH, {"n": -1, "r": 0}),
            (Family.BLOWUP_HIRZEBRUCH, {"n": 0, "r": -1}),
        ],
    )
    def test_negative_parameters_rejected(self, family, kwargs):
        with pytest.raises(InvalidParameterError):
            make_lattice(family, **kwargs)

    def test_missing_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_lattice("hirzebruch")
        with pytest.raises(InvalidParameterError):
            make_lattice("blowup_hirzebruch", n=1)

    def test_deterministic_for_equal_inputs(self):
        assert make_lattice("hirzebruch", n=4) == make_lattice(Family.HIRZEBRUCH, n=4)

    def test_json_round_trip(self):
        for lat in (hirzebruch_lattice(2), blowup_p2_lattice(5), blowup_hirzebruch_lattice(1, 3)):
            assert lattice_from_json(lat.to_json_dict()) == lat

    def test_divisor_class_rejects_inexact(self):
        with pytest.raises(TypeError):
            DivisorClass((1.5, 0))

    def test_divisor_json(self):
        d = DivisorClass((3, -1))
        assert divisor_from_json(d.to_json_dict()) == d
        assert divisor_from_json([3, -1]) == d

    def test_divisor_length(self):
        assert len(DivisorClass((1, 2, 3))) == 3


class TestIntersect:
    def test_section_self_intersection(self):
        lat = hirzebruch_lattice(2)
        c = lat.basis_class(0)
        assert lat.intersect(c, c) == -2

    def test_section_meets_fiber(self):
        lat = hirzebruch_lattice(5)
        assert lat.intersect(lat.basis_class(0), lat.basis_class(1)) == 1

    def test_line_through_two_points(self):
        lat = blowup_p2_lattice(3)
        d = DivisorClass((1, -1, -1, 0))
        assert lat.intersect(d, d) == -1

    def test_dimension_mismatch(self):
        lat = hirzebruch_lattice(1)
        with pytest.raises(DimensionError):
            lat.intersect(DivisorClass((1, 0, 0)), DivisorClass((1, 0)))
        with pytest.raises(DimensionError):
            DivisorClass((1, 0, 0)) + DivisorClass((1, 0))
        with pytest.raises(DimensionError):
            DivisorClass((1, 0, 0)) - DivisorClass((1, 0))

    @given(st.integers(0, 8), pair2(), pair2(), pair2(), coeff, coeff)
    def test_bilinearity_and_symmetry(self, n, x, y, z, s, t):
        lat = hirzebruch_lattice(n)
        a, b, c = DivisorClass(x), DivisorClass(y), DivisorClass(z)
        assert lat.intersect(a, b) == lat.intersect(b, a)
        combo = s * a + t * b
        assert lat.intersect(combo, c) == s * lat.intersect(a, c) + t * lat.intersect(b, c)

    @given(st.integers(0, 8), st.integers(0, 6), st.lists(coeff, min_size=2, max_size=8))
    def test_matches_symbolic_expansion(self, n, r, raw):
        lat = blowup_hirzebruch_lattice(n, len(raw) - 2)
        d = DivisorClass(raw)
        assert lat.intersect(d, d) == oracles.pairing_blowup_hirzebruch(n, raw, raw)
        kd = lat.canonical_pairing(d)
        assert kd == oracles.pairing_blowup_hirzebruch(n, lat.canonical.coeffs, raw)


class TestGenusAndChi:
    @pytest.mark.parametrize("n", range(11))
    def test_basis_curves_are_rational(self, n):
        lat = hirzebruch_lattice(n)
        assert lat.arithmetic_genus(lat.basis_class(0)) == 0
        assert lat.arithmetic_genus(lat.basis_class(1)) == 0

    def test_anticanonical_cubic_has_genus_one(self):
        lat = blowup_p2_lattice(1)
        assert lat.arithmetic_genus(DivisorClass((3, -1))) == 1

    def test_chi_of_zero_class(self):
        for lat in (hirzebruch_lattice(4), blowup_p2_lattice(7)):
            assert lat.euler_characteristic(lat.zero_class()) == 1

    @pytest.mark.parametrize("n", [0, 1, 3, 9])
    def test_chi_of_anticanonical_on_ruled(self, n):
        lat = hirzebruch_lattice(n)
        assert lat.euler_characteristic(-lat.canonical) == 9

    def test_chi_of_anticanonical_on_nine_points(self):
        lat = blowup_p2_lattice(9)
        assert lat.euler_characteristic(-lat.canonical) == 1

    @given(st.integers(0, 12), pair2())
    @settings(max_examples=200)
    def test_adjunction_parity_property(self, n, x):
        lat = hirzebruch_lattice(n)
        d = DivisorClass(x)
        total = lat.self_intersection(d) + lat.canonical_pairing(d)
        assert total % 2 == 0


class TestH0Bound:
    def test_section_plus_fibers(self):
        lat = hirzebruch_lattice(3)
        assert lat.h0_lower_bound(DivisorClass((1, 5))) == 9

    def test_zero_class_has_constants(self):
        lat = hirzebruch_lattice(2)
        assert lat.h0_lower_bound(lat.zero_class()) == 1

    @given(st.integers(0, 8), st.integers(0, 10), st.integers(0, 20))
    def test_positive_prime_like_classes_move(self, n, a, b):
        lat = hirzebruch_lattice(n)
        d = DivisorClass((a, b))
        s = lat.self_intersection(d)
        kd = lat.canonical_pairing(d)
        if s > 0 and kd <= -1:
            assert lat.h0_lower_bound(d) >= 2

    def test_never_negative(self):
        lat = blowup_p2_lattice(4)
        triple = DivisorClass((0, 3, 0, 0, 0))
        assert lat.euler_characteristic(triple) == -2
        assert lat.h0_lower_bound(triple) == 0

    def test_line_on_two_point_blowup(self):
        lat = blowup_p2_lattice(2)
        assert lat.h0_lower_bound(DivisorClass((1, 0, 0))) == 3

    @pytest.mark.parametrize(
        "kind,coeffs,h0",
        [
            ("general", (2, 0), 6),
            ("general", (1, 1), 3),  # E_1 is a fixed part
            ("general", (-1, 0), 0),
            ("general", (2, -2), 3),  # the line pairs through the point
            ("general", (1, -1, -1, -1), 0),
            ("line", (1, -1, -1, -1), 1),
            ("general", (2, -1, -1, -1, -1, -1), 1),
            ("general", (2, -1, -1, -1, -1, -1, -1), 0),
            ("conic", (2, -1, -1, -1, -1, -1, -1), 1),
            ("two lines", (2, -1, -1, -1, -1, -1, -1), 1),
            ("line", (2, -1, -1, -1, -1), 3),  # the line plus any line
        ],
    )
    def test_points_oracle_counts_known_systems(self, kind, coeffs, h0):
        points = oracles.plane_points(kind, len(coeffs) - 1, random.Random(7))
        assert oracles.h0_through_points(points, coeffs) == h0

    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("general", "line", "two lines", "conic")), st.integers(1, 6),
           st.integers(0, 2**32), st.data())
    def test_bound_never_exceeds_the_sections_through_points(self, kind, r, points_seed, data):
        lat = blowup_p2_lattice(r)
        points = oracles.plane_points(kind, r, random.Random(points_seed))
        classes = st.tuples(st.integers(0, 5), *[st.integers(-3, 1)] * r)
        for coeffs in data.draw(st.lists(classes, min_size=5, max_size=5)):
            assert lat.h0_lower_bound(DivisorClass(coeffs)) <= oracles.h0_through_points(points, coeffs)


class TestBasisChanges:
    def test_f1_examples(self):
        lat = hirzebruch_lattice(1)
        assert basis_change_f1_to_p2(lat, DivisorClass((1, 0))).coeffs == (0, 1)
        assert basis_change_f1_to_p2(lat, lat.canonical).coeffs == (-3, 1)
        assert basis_change_f1_to_p2(lat, DivisorClass((0, 1))).coeffs == (1, -1)

    def test_blf0_examples(self):
        lat = blowup_hirzebruch_lattice(0, 1)
        assert basis_change_blf0_to_p2(lat, DivisorClass((0, 0, 1))).coeffs == (1, -1, -1)
        assert basis_change_blf0_to_p2(lat, lat.canonical).coeffs == (-3, 1, 1)
        img_c = basis_change_blf0_to_p2(lat, DivisorClass((1, 0, 0)))
        img_f = basis_change_blf0_to_p2(lat, DivisorClass((0, 1, 0)))
        assert blowup_p2_lattice(2).intersect(img_c, img_f) == 1

    # by name: the two names are one function now, so its __name__ would name both cases
    @pytest.mark.parametrize(
        "fn,src,dst",
        [
            ("basis_change_f1_to_p2", hirzebruch_lattice(1), blowup_p2_lattice(1)),
            ("basis_change_blf0_to_p2", blowup_hirzebruch_lattice(0, 1), blowup_p2_lattice(2)),
        ],
    )
    def test_isometry_on_basis(self, fn, src, dst):
        fn = {"basis_change_f1_to_p2": basis_change_f1_to_p2,
              "basis_change_blf0_to_p2": basis_change_blf0_to_p2}[fn]
        basis = [src.basis_class(i) for i in range(src.rank)]
        for x in basis:
            for y in basis:
                assert src.intersect(x, y) == dst.intersect(fn(src, x), fn(src, y))
        assert fn(src, src.canonical) == dst.canonical

    @given(st.lists(coeff, min_size=3, max_size=3), st.lists(coeff, min_size=3, max_size=3))
    def test_blf0_isometry_on_random_classes(self, x, y):
        src = blowup_hirzebruch_lattice(0, 1)
        dst = blowup_p2_lattice(2)
        d1, d2 = DivisorClass(x), DivisorClass(y)
        assert src.intersect(d1, d2) == dst.intersect(
            basis_change_blf0_to_p2(src, d1), basis_change_blf0_to_p2(src, d2)
        )

    def test_wrong_family_rejected(self):
        with pytest.raises(FamilyError):
            basis_change_to_p2(hirzebruch_lattice(2), DivisorClass((1, 0)))
        with pytest.raises(FamilyError):
            basis_change_to_p2(blowup_p2_lattice(2), DivisorClass((1, 0, 0)))
        # C_1 + 2F - E_1 on Bl_1 F_1 is 2H - E_1 - E_2: n odd, so step 3 alone
        bl1f1 = blowup_hirzebruch_lattice(1, 1)
        assert basis_change_to_p2(bl1f1, DivisorClass((1, 2, -1))).coeffs == (2, -1, -1)
        # C_0 + 2F + 3E_1 + 4E_2 on Bl_2 F_0: the elementary transformation gives
        # (1, 6, -4, 4) on Bl_2 F_1, so 6H - 5E_1 - 4E_2 + 4E_3 (square -21 on both)
        bl2f0 = blowup_hirzebruch_lattice(0, 2)
        assert basis_change_to_p2(bl2f0, DivisorClass((1, 2, 3, 4))).coeffs == (6, -5, -4, 4)

    def test_plane_model_past_the_blowup_bound_names_the_source(self):
        with pytest.raises(InvalidParameterError) as info:
            basis_change_to_p2(blowup_hirzebruch_lattice(3, 10_000), DivisorClass((1, 0)))
        assert str(info.value) == (
            "a blowup at r = 10,000 points has its plane model at r + 1, past the limit of 10,000"
        )

    @given(st.sampled_from(list(Family)), st.integers(0, 40), st.integers(0, 12), st.data())
    def test_one_map_is_a_k_fixing_isometry_on_every_ruled_family(self, family, n, r, data):
        src = SurfaceLattice(
            family,
            None if family is Family.BLOWUP_P2 else n,
            None if family is Family.HIRZEBRUCH else r,
        )
        # the plane itself, and the even form U of F_n, n even, with no point blown up
        if family is Family.BLOWUP_P2 or (n % 2 == 0 and not src.r):
            with pytest.raises(FamilyError):
                basis_change_to_p2(src, src.canonical)
            return
        dst = blowup_p2_lattice(src.rank - 1)
        assert basis_change_to_p2(src, src.canonical) == dst.canonical
        vector = st.lists(coeff, min_size=src.rank, max_size=src.rank).map(DivisorClass)
        for _ in range(3):
            d1, d2 = data.draw(vector), data.draw(vector)
            assert dst.intersect(basis_change_to_p2(src, d1), basis_change_to_p2(src, d2)) == (
                src.intersect(d1, d2)
            )
        images = [basis_change_to_p2(src, src.basis_class(i)).coeffs for i in range(src.rank)]
        # so the map is invertible over the integers
        assert oracles.fraction_determinant(images) in (1, -1)

    def test_every_ruled_lattice_up_to_n_40_and_r_12_maps_its_gram_and_k(self):
        accepted = 0
        for family in Family:
            for n in (None,) if family is Family.BLOWUP_P2 else range(41):
                for r in (None,) if family is Family.HIRZEBRUCH else range(13):
                    src = SurfaceLattice(family, n, r)
                    if family is Family.BLOWUP_P2 or (n % 2 == 0 and not r):
                        with pytest.raises(FamilyError):
                            basis_change_to_p2(src, src.zero_class())
                        continue
                    dst = blowup_p2_lattice(src.rank - 1)
                    basis = [src.basis_class(i) for i in range(src.rank)]
                    images = [basis_change_to_p2(src, x) for x in basis]
                    assert [[dst.intersect(x, y) for y in images] for x in images] == [
                        list(row) for row in src.gram
                    ]
                    assert basis_change_to_p2(src, src.canonical) == dst.canonical
                    assert oracles.fraction_determinant([x.coeffs for x in images]) in (1, -1)
                    accepted += 1
        assert accepted == 532


class TestEnumeration:
    def test_r0_is_empty(self):
        assert enumerate_negative_rational_classes(blowup_p2_lattice(0), -1, 7) == []

    def test_r1_single_exceptional(self):
        got = enumerate_negative_rational_classes(blowup_p2_lattice(1), -1, 7)
        assert [cls.coeffs for cls in got] == [(0, 1)]

    def test_r2_three_classes(self):
        got = enumerate_negative_rational_classes(blowup_p2_lattice(2), -1, 7)
        assert {cls.coeffs for cls in got} == {(0, 0, 1), (0, 1, 0), (1, -1, -1)}

    def test_r6_count_27(self):
        got = enumerate_negative_rational_classes(blowup_p2_lattice(6), -1, 7)
        assert len(got) == 27

    def test_sorted_lexicographically(self):
        got = enumerate_negative_rational_classes(blowup_p2_lattice(5), -1, 7)
        assert [cls.coeffs for cls in got] == sorted(cls.coeffs for cls in got)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_matches_direct_search_for_minus_two(self, r):
        lat = blowup_p2_lattice(r)
        got = enumerate_negative_rational_classes(lat, -2, 7)
        assert len(got) == oracles.MINUS_TWO_COUNTS_BOUND_7[r]
        for cls in got:
            assert lat.self_intersection(cls) == -2
            assert lat.arithmetic_genus(cls) == 0
            assert lat.canonical_pairing(cls) == 0

    def test_minus_one_forces_k_pairing(self):
        lat = blowup_p2_lattice(4)
        for cls in enumerate_negative_rational_classes(lat, -1, 7):
            assert lat.canonical_pairing(cls) == -1

    def test_small_r_direct_set_equality(self):
        for r in (1, 2, 3):
            lat = blowup_p2_lattice(r)
            got = {cls.coeffs for cls in enumerate_negative_rational_classes(lat, -1, 7)}
            assert got == oracles.direct_negative_rational_classes(r, -1, 7)

    def test_wrong_family_rejected(self):
        with pytest.raises(FamilyError):
            enumerate_negative_rational_classes(hirzebruch_lattice(1), -1, 7)

    def test_bad_parameters_rejected(self):
        lat = blowup_p2_lattice(2)
        with pytest.raises(InvalidParameterError):
            enumerate_negative_rational_classes(lat, 0, 7)
        with pytest.raises(InvalidParameterError):
            enumerate_negative_rational_classes(lat, -1, 0)


def _by_fractions(matrix):
    return (*oracles.fraction_signature(matrix), oracles.fraction_determinant(matrix))


# a symmetric matrix of small entries, so that many are singular
symmetric = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
).map(lambda m: [[m[min(i, j)][max(i, j)] for j in range(len(m))] for i in range(len(m))])


class TestMatrixHelpers:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("r", range(6))
    def test_unimodular_signature_all_families(self, n, r):
        for lat in (
            hirzebruch_lattice(n),
            blowup_p2_lattice(r),
            blowup_hirzebruch_lattice(n, r),
        ):
            pos, neg, zero, det = _inertia(lat.gram)
            assert (pos, neg, zero) == (1, lat.rank - 1, 0) and abs(det) == 1
            assert _inertia(lat.gram) == _by_fractions(lat.gram)

    def test_degenerate_matrix(self):
        # the empty matrix, a zero row (no pivot), a row swap and a singular
        # matrix whose pivots are all nonzero until its last row
        for matrix in ((), [[0, 0], [0, 2]], [[0, 3, 1], [3, 0, 2], [1, 2, 1]], [[2, 4], [4, 8]]):
            assert _inertia(matrix) == _by_fractions(matrix)
        assert _inertia([[0, 0], [0, 0]]) == (0, 0, 2, 0)
        # all-zero diagonal: the pivot comes from adding a basis vector
        assert _inertia([[0, 1], [1, 0]]) == (1, 1, 0, -1)
        assert _inertia([[2, 4], [4, 8]]) == (1, 0, 1, 0)

    @seed(20260808)
    @settings(deadline=None)
    @example([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    @example([[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    @given(symmetric)
    def test_symmetric_matrices_by_fractions(self, matrix):
        assert _inertia(matrix) == _by_fractions(matrix)

    def test_k_squared_by_family(self):
        for n in range(21):
            lat = hirzebruch_lattice(n)
            assert lat.self_intersection(lat.canonical) == 8
        for r in range(13):
            lat = blowup_p2_lattice(r)
            assert lat.self_intersection(lat.canonical) == 9 - r
            lat = blowup_hirzebruch_lattice(3, r)
            assert lat.self_intersection(lat.canonical) == 8 - r
