"""The lattice kernel against the naive pairing of each family's own Gram
matrix and K, the types a lattice's parameters may take, and the classes
drawn and screened by the selfcheck sampler."""

import dataclasses
import random
import sys
from itertools import chain, islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from nslattice import (
    DivisorClass,
    Family,
    InputError,
    InvalidParameterError,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    hirzebruch_lattice,
    lattice_from_json,
    witness_from_json,
)
from nslattice.selfcheck import _TRI, _head_screen, _uniform
from nslattice.values import _exact_class

coeff = st.integers(min_value=-30, max_value=30)

# every built-in family up to rank 14
family_lattices = st.one_of(
    st.builds(hirzebruch_lattice, st.integers(0, 20)),
    st.builds(blowup_p2_lattice, st.integers(0, 13)),
    st.builds(blowup_hirzebruch_lattice, st.integers(0, 20), st.integers(0, 12)),
)


def class_pair(lat):
    vec = st.lists(coeff, min_size=lat.rank, max_size=lat.rank)
    return st.tuples(st.just(lat), vec, vec)


def assert_kernel_matches_oracle(lat, x, y):
    # G and K from the bilinear expansions in oracles, not from the lattice's record
    gram = oracles.family_gram(lat.family, lat.n, lat.r)
    k = oracles.family_canonical(lat.family, lat.n, lat.r)
    assert lat.canonical.coeffs == k
    d1, d2 = DivisorClass(x), DivisorClass(y)
    dd = oracles.gram_pairing(gram, x, x)
    kd = oracles.gram_pairing(gram, k, x)
    assert lat.intersect(d1, d2) == oracles.gram_pairing(gram, x, y)
    assert lat.intersect(d2, d1) == oracles.gram_pairing(gram, y, x)
    assert lat.self_intersection(d1) == dd
    assert lat.canonical_pairing(d1) == kd
    # the unchecked kernel, on a tuple as the public genus and the selfcheck's
    # head screen pass it
    assert lat._genus(tuple(x)) == 1 + (dd + kd) // 2
    for method, total in (
        (lat.arithmetic_genus, dd + kd),
        (lat.euler_characteristic, dd - kd),
    ):
        # K is characteristic on every family
        assert total % 2 == 0
        assert method(d1) == 1 + total // 2


class TestKernelOracle:
    @given(family_lattices.flatmap(class_pair))
    def test_families(self, case):
        assert_kernel_matches_oracle(*case)

    @pytest.mark.parametrize(
        "lat,x,y",
        [
            # P^2 has no d_1: its kernel must not read one
            (blowup_p2_lattice(0), (3,), (-2,)),
            (blowup_p2_lattice(0), (0,), (7,)),
            (blowup_p2_lattice(0), (-(2**65) - 3,), (2**64 + 1,)),
            # coefficients past 2^64 on every family
            (blowup_p2_lattice(2), (2**64 + 1, -(2**65), 3), (-(2**70), 2**64, 2**66 - 1)),
            (hirzebruch_lattice(5), (2**64, -(2**64) - 1), (-(2**80) + 7, 2**65)),
            (hirzebruch_lattice(1), (-(2**64), 2**64 + 9), (3, 2**99)),
            (blowup_hirzebruch_lattice(0, 2), (2**64, 1 - 2**64, 2**70, -5), (7, -(2**66), 1, 2**64)),
        ],
        ids=["p2", "p2-zero", "p2-past-2^64", "bl2p2", "f5", "f1", "bl2f0"],
    )
    def test_examples(self, lat, x, y):
        assert_kernel_matches_oracle(lat, x, y)

    def test_plane_values(self):
        # a plane cubic has genus 1, two lines meet once, h^0(O(2)) = 6
        p2 = blowup_p2_lattice(0)
        assert p2.arithmetic_genus(DivisorClass((3,))) == 1
        assert p2.intersect(DivisorClass((1,)), DivisorClass((2,))) == 2
        assert p2.euler_characteristic(DivisorClass((2,))) == 6
        assert p2.canonical_pairing(DivisorClass((1,))) == -3
        assert p2.h0_lower_bound(DivisorClass((2,))) == 6

    def test_family_splits(self):
        # the head record (a, b, e, k_0, k_1): G + I and K.G + 1 on H, or on the
        # (C_n, F) block of the F_n families
        assert blowup_p2_lattice(0)._head == blowup_p2_lattice(9)._head == (2, 0, 0, -2, 0)
        assert blowup_hirzebruch_lattice(3, 12)._head == (-2, 1, 1, 2, -1)
        assert hirzebruch_lattice(1)._head == (0, 1, 1, 0, -1)

    def test_derived_tables_stay_out_of_equality_and_repr(self):
        lat = blowup_hirzebruch_lattice(2, 3)
        assert "_head" not in repr(lat)
        assert lat == blowup_hirzebruch_lattice(2, 3)
        assert hash(lat) == hash(blowup_hirzebruch_lattice(2, 3))
        assert lat.to_json_dict() == {"family": "blowup_hirzebruch", "n": 2, "r": 3}


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


# every family with n <= 12 and r <= 14, beside an r' for a lattice of the same
# n, whose head values the negative-curve check's screen may share
screened_lattices = st.one_of(
    st.builds(hirzebruch_lattice, st.integers(0, 12)),
    st.builds(blowup_p2_lattice, st.integers(0, 14)),
    st.builds(blowup_hirzebruch_lattice, st.integers(0, 12), st.integers(0, 14)),
)
raw_draws = st.lists(st.integers(0, 8), min_size=16, max_size=16)


class TestScreenTable:
    @given(screened_lattices, st.integers(0, 14), raw_draws)
    @example(blowup_p2_lattice(0), 3, [0] * 16)
    @example(blowup_p2_lattice(0), 0, [8] * 16)
    @example(blowup_p2_lattice(1), 12, [0, 8] * 8)
    @example(blowup_p2_lattice(1), 1, [5, 3] * 8)
    @example(hirzebruch_lattice(0), 14, [5, 2] * 8)
    def test_table_less_tail_sum_is_the_genus(self, lat, other_r, raw):
        if lat.n is None:
            sibling = blowup_p2_lattice(other_r)
        else:
            sibling = blowup_hirzebruch_lattice(lat.n, other_r)
        # one chunk of 81 heads per lattice, in pool order, whichever lattice of
        # the same n the head values were first taken from
        need = _head_screen([lat])
        assert _head_screen([lat, sibling]) == need + _head_screen([sibling])
        assert _head_screen([sibling, lat]) == _head_screen([sibling]) + need
        gram = oracles.family_gram(lat.family, lat.n, lat.r)
        k = oracles.family_canonical(lat.family, lat.n, lat.r)

        def genus(coeffs):
            dd, kd = oracles.gram_pairing(gram, coeffs, coeffs), oracles.gram_pairing(gram, k, coeffs)
            return 1 + (dd + kd) // 2

        # entry 9 x_0 + x_h: p_a + 1 of the head (x_0 - 4, x_h - 4), or (x_0 - 4) on
        # P^2, where the tail's C(d_i + 1, 2), each 0..10, can bring p_a to 0
        tail = max(lat.rank - 2, 0)
        for v in range(81):
            head = (v // 9 - 4, v % 9 - 4)[: lat.rank]
            p = genus(head + (0,) * tail)
            assert need[v] == (p + 1 if 0 <= p <= 10 * tail else 0)
        # a raw draw x in 0..8 is the class x - 4; a head the table passes
        # leaves p_a(D) = need - 1 less the tail's sum
        raw = bytes(raw[: max(lat.rank, 2)])
        coeffs = tuple(x - 4 for x in raw[: lat.rank])
        v = 9 * raw[0] + raw[1]
        if need[v]:
            assert need[v] - 1 - sum(raw[2:].translate(_TRI)) == lat._genus(coeffs) == genus(coeffs)
        else:
            assert genus(coeffs) != 0

    def test_tail_weights(self):
        # C(e + 1, 2) for a coefficient e = x - 4, and nothing past the draws' range
        assert list(_TRI[:9]) == [(e + 1) * e // 2 for e in range(-4, 5)]
        assert list(_TRI[:9]) == [6, 3, 1, 0, 0, 1, 3, 6, 10]
        assert _TRI[9:] == bytes(247)


class TestRandomClassStream:
    @pytest.mark.parametrize("seed", [0, 20260808, 20260810])
    @pytest.mark.parametrize("rank,bound", [(1, 4), (2, 9), (14, 9)])
    def test_same_draws_as_the_byte_replay(self, seed, rank, bound):
        replay = oracles.uniform_draws(random.Random(seed), 2 * bound + 1)
        expected = [next(replay) - bound for _ in range(rank)]
        values = chain.from_iterable(_uniform(random.Random(seed), 2 * bound + 1))
        got = _exact_class(tuple([x - bound for x in islice(values, rank)]))
        assert list(got.coeffs) == expected
        assert got == DivisorClass(expected) and hash(got) == hash(DivisorClass(expected))

    def test_generator_states_match_after_many_draws(self):
        # two streams on one generator, as the checks keep them, each drawing a
        # block only when it runs out
        ours, plain = random.Random(808), random.Random(808)
        streams = [chain.from_iterable(_uniform(ours, m)) for m in (9, 19)]
        replays = [oracles.uniform_draws(plain, m) for m in (9, 19)]
        for k in range(2_000):
            rank, side = 1 + k % 14, k % 2
            got = list(islice(streams[side], rank))
            assert got == [next(replays[side]) for _ in range(rank)]
        assert ours.getstate() == plain.getstate()

    def test_inexact_coefficients_still_refused(self):
        # bool is a subclass of int: DivisorClass((True, 2)) once gave (1, 2)
        for coeffs in ([1.5], [True], (2, False)):
            with pytest.raises(TypeError):
                DivisorClass(coeffs)
        for k in (1.5, True):
            with pytest.raises(TypeError):
                DivisorClass((1,)) * k
            with pytest.raises(TypeError):
                k * DivisorClass((1,))


class TestParameterTypes:
    @pytest.mark.parametrize(
        "changes,error,match",
        [
            ({"r": 2.0}, TypeError, "r must be an integer"),
            ({"r": True}, TypeError, "r must be an integer"),
            ({"r": "2"}, TypeError, "r must be an integer"),
            # a parameter the family does not take is refused whatever its type
            ({"n": 0.0}, InputError, "takes no n"),
            ({"n": False}, InputError, "takes no n"),
            ({"family": "plane"}, InputError, "lattice family must be one of"),
        ],
        ids=["r-float", "r-bool", "r-str", "n-float", "n-bool", "family-plane"],
    )
    def test_parameter_of_another_type_rejected(self, changes, error, match):
        with pytest.raises(error, match=match):
            dataclasses.replace(blowup_p2_lattice(2), **changes)

    def test_factories_refuse_a_bool(self):
        # True used to build Bl_1 P^2
        with pytest.raises(TypeError, match="r must be an integer"):
            blowup_p2_lattice(True)
        with pytest.raises(TypeError, match="n must be an integer"):
            hirzebruch_lattice(False)

    def test_family_given_by_its_value(self):
        lat = dataclasses.replace(blowup_p2_lattice(2), family="blowup_p2")
        assert lat == blowup_p2_lattice(2) and lat.family is Family.BLOWUP_P2


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default limit of 4,300 digits on integer string conversion",
)
@pytest.mark.parametrize(
    "read,error,message",
    [
        (lambda: witness_from_json({"coeffs": [1.5, 10**5000]}), InputError,
         "coeffs must be a list of integers, got a list holding an integer past 4,300 digits"),
        (lambda: witness_from_json({"coeffs": [1], "prime": -(10**5000)}), InputError,
         "prime must be true or false, got an integer past 4,300 digits"),
        (lambda: lattice_from_json({"family": "blowup_p2", "r": 10**5000}), InvalidParameterError,
         "number of blown-up points must be in 0..10,000, got an integer past 4,300 digits"),
        (lambda: lattice_from_json({"family": "hirzebruch", "n": 1, "r": 10**5000}), InputError,
         "hirzebruch lattice takes no r, got r = an integer past 4,300 digits"),
    ],
    ids=["coeffs", "prime", "r-range", "r-not-taken"],
)
def test_value_past_the_digit_limit_is_refused_by_name(read, error, message):
    # repr() of such an integer raises ValueError, which escaped the refusal
    with pytest.raises(error) as info:
        read()
    assert str(info.value) == message


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
