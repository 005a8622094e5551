import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from nslattice import (
    CurveWitness,
    DivisorClass,
    HirzebruchClass,
    InvalidParameterError,
    NefDecomposition,
    NotEffectiveError,
    NotNef,
    SurfaceModel,
    anticanonical_class,
    anticanonical_fixed_locus,
    basis_change_to_p2,
    blowup_p2_lattice,
    classify_fixed_component,
    effective_generators,
    fixed_mobile_decompose,
    forced_fixed_components,
    hirzebruch_lattice,
    is_effective,
    nef_decompose,
    nef_generators,
)

n_values = st.integers(0, 10)
small = st.integers(-12, 12)


@given(n_values, small, small)
def test_self_intersection_matches_lattice(n, a, b):
    lat = hirzebruch_lattice(n)
    assert oracles.self_intersection_hirzebruch(n, a, b) == lat.self_intersection(
        HirzebruchClass(n, a, b)
    )


# the constructor and each verdict that checks n, a and b
CHECKED = (HirzebruchClass, is_effective, nef_decompose, fixed_mobile_decompose)


def test_negative_n_rejected():
    for function in CHECKED:
        with pytest.raises(
            InvalidParameterError, match="^Hirzebruch parameter n must be >= 0, got -1$"
        ):
            function(-1, 0, 0)


@pytest.mark.parametrize("args", [(3, True, False), (True, 0, 0), (3, 1.0, 2)])
def test_inexact_parameters_rejected(args):
    # bool is a subclass of int: is_effective(3, True, False) once said
    # effective, with multiplicities [1, 0]; the first non-integer is named
    name, value = next((k, v) for k, v in zip("nab", args) if type(v) is not int)
    message = f"{name} must be an integer, got {value!r}"
    for function in CHECKED:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            function(*args)


def test_classes_on_different_surfaces_do_not_add():
    with pytest.raises(InvalidParameterError, match="different Hirzebruch surfaces"):
        HirzebruchClass(1, 1, 0) + HirzebruchClass(2, 1, 0)


def test_class_json_names_n():
    # the document perfbench's api_query check reads
    assert HirzebruchClass(3, 1, 0).to_json_dict() == {"n": 3, "a": 1, "b": 0}


class TestEffective:
    def test_examples(self):
        assert is_effective(3, 2, 5)
        assert is_effective(3, 2, 5).multiplicities == (2, 5)
        assert not is_effective(3, -1, 5)
        assert is_effective(0, 0, 0)
        assert is_effective(0, 0, 0).multiplicities == (0, 0)

    @given(n_values, small, small)
    def test_against_generated_monoid(self, n, a, b):
        generated = oracles.generated_monoid((1, 0), (0, 1), 12)
        assert bool(is_effective(n, a, b)) == ((a, b) in generated)

    @given(n_values, small, small)
    def test_witness_reconstructs(self, n, a, b):
        w = is_effective(n, a, b)
        if w:
            u, v = w.multiplicities
            assert (u, v) == (a, b) and u >= 0 and v >= 0


class TestNef:
    def test_decomposition_example(self):
        d = nef_decompose(2, 3, 7)
        assert isinstance(d, NefDecomposition)
        assert (d.s, d.t) == (3, 1)
        g1, g2 = nef_generators(2)
        assert (d.s * g1 + d.t * g2).coeffs == (3, 7)

    def test_violator_example(self):
        v = nef_decompose(4, 1, 3)
        assert isinstance(v, NotNef)
        assert v.violator == "C4"
        assert v.pairing == -1

    def test_fiber_violator_when_a_negative(self):
        v = nef_decompose(2, -1, 5)
        assert isinstance(v, NotNef)
        assert v.violator == "F" and v.pairing == -1

    def test_zero_class_is_nef(self):
        d = nef_decompose(0, 0, 0)
        assert isinstance(d, NefDecomposition)
        assert (d.s, d.t) == (0, 0)

    @given(n_values, small, small)
    def test_against_pairing_predicate(self, n, a, b):
        lat = hirzebruch_lattice(n)
        cls = HirzebruchClass(n, a, b)
        fiber_pairing = lat.intersect(cls, lat.basis_class(1))
        section_pairing = lat.intersect(cls, lat.basis_class(0))
        verdict = nef_decompose(n, a, b)
        assert isinstance(verdict, NefDecomposition) == (
            fiber_pairing >= 0 and section_pairing >= 0
        )

    @given(n_values, small, small)
    def test_nef_implies_effective(self, n, a, b):
        if isinstance(nef_decompose(n, a, b), NefDecomposition):
            assert is_effective(n, a, b)

    @given(n_values, st.integers(0, 12), st.integers(0, 12))
    def test_reconstruction_identity(self, n, s, t):
        cls = HirzebruchClass(n, s, s * n + t)
        d = nef_decompose(n, cls.a, cls.b)
        assert isinstance(d, NefDecomposition)
        assert (d.s, d.t) == (s, t)

    def test_generators_are_nef_and_independent(self):
        for n in range(7):
            g1, g2 = nef_generators(n)
            for g in (g1, g2):
                assert isinstance(nef_decompose(n, g.a, g.b), NefDecomposition)
            assert g1.a * g2.b - g1.b * g2.a != 0
            e1, e2 = effective_generators(n)
            assert e1.a * e2.b - e1.b * e2.a != 0


class TestFixedMobile:
    def test_anticanonical_on_f3(self):
        dec = fixed_mobile_decompose(3, 2, 5)
        assert dec.j == 1
        assert (dec.fixed.a, dec.fixed.b) == (1, 0)
        assert (dec.mobile.a, dec.mobile.b) == (1, 5)

    def test_deeper_fixed_multiple(self):
        dec = fixed_mobile_decompose(3, 3, 4)
        assert dec.j == 2
        assert (dec.fixed.a, dec.fixed.b) == (2, 0)
        assert (dec.mobile.a, dec.mobile.b) == (1, 4)

    def test_no_fixed_component_on_f0(self):
        dec = fixed_mobile_decompose(0, 5, 2)
        assert dec.j == 0 and dec.fixed.is_zero()

    def test_zero_class(self):
        dec = fixed_mobile_decompose(4, 0, 0)
        assert dec.j == 0 and dec.fixed.is_zero() and dec.mobile.is_zero()

    def test_not_effective_rejected(self):
        with pytest.raises(NotEffectiveError):
            fixed_mobile_decompose(3, -1, 5)
        with pytest.raises(NotEffectiveError):
            fixed_mobile_decompose(0, 2, -1)

    @given(n_values, st.integers(0, 12), st.integers(0, 40))
    def test_reconstruction_and_mobility(self, n, a, b):
        dec = fixed_mobile_decompose(n, a, b)
        assert (dec.fixed + dec.mobile).coeffs == (a, b)
        assert (dec.fixed.a, dec.fixed.b) == (dec.j, 0)
        assert dec.j >= 0
        lat = hirzebruch_lattice(n)
        section = lat.basis_class(0)
        assert lat.intersect(dec.mobile, section) >= 0
        assert lat.intersect(dec.mobile, lat.basis_class(1)) >= 0

    @given(n_values, st.integers(0, 12), st.integers(0, 40))
    def test_parts_are_constructor_values(self, n, a, b):
        # the parts skip the constructor's check but not its value semantics
        dec = fixed_mobile_decompose(n, a, b)
        fixed, mobile = HirzebruchClass(n, dec.j, 0), HirzebruchClass(n, a - dec.j, b)
        assert (dec.fixed, dec.mobile) == (fixed, mobile)
        assert (hash(dec.fixed), hash(dec.mobile)) == (hash(fixed), hash(mobile))
        assert dec == type(dec)(fixed, mobile, dec.j)

    @given(n_values, st.integers(0, 12), st.integers(0, 40))
    def test_lattice_takes_the_parts_directly(self, n, a, b):
        # a part is a class of hirzebruch_lattice(n), read as its coefficients alone
        dec = fixed_mobile_decompose(n, a, b)
        lat = hirzebruch_lattice(n)
        fixed, mobile = DivisorClass(dec.fixed.coeffs), DivisorClass(dec.mobile.coeffs)
        assert lat.intersect(dec.fixed, dec.mobile) == oracles.pairing_hirzebruch(
            n, fixed.coeffs, mobile.coeffs
        )
        for part, plain in ((dec.fixed, fixed), (dec.mobile, mobile)):
            assert lat.self_intersection(part) == oracles.self_intersection_hirzebruch(n, *plain.coeffs)
            for method in ("canonical_pairing", "arithmetic_genus", "euler_characteristic",
                           "h0_lower_bound"):
                assert getattr(lat, method)(part) == getattr(lat, method)(plain)

    @given(st.integers(1, 10), st.integers(1, 10))
    def test_unique_bracketing_multiple(self, n, a):
        for b in range(a * n):
            js = oracles.bracketing_multiples(n, a, b)
            assert len(js) == 1
            assert fixed_mobile_decompose(n, a, b).j == js[0]

    @given(st.integers(1, 10), st.integers(0, 10), st.integers(0, 60))
    def test_no_fixed_part_iff_b_covers_sections(self, n, a, b):
        dec = fixed_mobile_decompose(n, a, b)
        assert (dec.j == 0) == (b >= a * n)


class TestAnticanonical:
    @pytest.mark.parametrize("n,expected", [(0, (2, 2)), (1, (2, 3)), (5, (2, 7))])
    def test_class_formula(self, n, expected):
        ac = anticanonical_class(n)
        assert (ac.a, ac.b) == expected

    def test_matches_lattice_canonical(self):
        for n in range(20):
            lat = hirzebruch_lattice(n)
            assert anticanonical_class(n).coeffs == (-lat.canonical).coeffs

    def test_plane_model_takes_it_to_minus_k(self):
        plane = blowup_p2_lattice(1)
        for n in range(1, 16, 2):
            assert basis_change_to_p2(hirzebruch_lattice(n), anticanonical_class(n)) == -plane.canonical

    def test_section_is_a_witness(self):
        section, fiber = effective_generators(3)
        model = SurfaceModel(hirzebruch_lattice(3), (CurveWitness(section), CurveWitness(fiber)))
        assert forced_fixed_components(model) == [CurveWitness(section)]
        kind = classify_fixed_component(model, CurveWitness(section))
        assert kind.to_json_dict() == {"kind": "negative_rational", "n": 3}

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_no_fixed_component_small_n(self, n):
        dec = anticanonical_fixed_locus(n)
        assert dec.j == 0 and dec.fixed.is_zero()

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_section_is_the_fixed_component(self, n):
        dec = anticanonical_fixed_locus(n)
        assert dec.j == 1
        assert (dec.fixed.a, dec.fixed.b) == (1, 0)
        assert (dec.mobile.a, dec.mobile.b) == (1, n + 2)

    def test_threshold_is_exactly_three(self):
        assert [n for n in range(51) if not anticanonical_fixed_locus(n).fixed.is_zero()] == list(
            range(3, 51)
        )


# F_n for n <= 9, a in -8..8 and b in -12..24: 6,290 classes
H0_GRID = [(n, a, b) for n in range(10) for a in range(-8, 9) for b in range(-12, 25)]


def h0_bound(n, a, b):
    return hirzebruch_lattice(n).h0_lower_bound(HirzebruchClass(n, a, b))


class TestExactH0:
    """The exact h^0 of oracles.h0_hirzebruch against this module's verdicts
    and the lattice's Riemann-Roch bound."""

    def test_sections_iff_effective(self):
        for n, a, b in H0_GRID:
            assert (oracles.h0_hirzebruch(n, a, b) > 0) == bool(is_effective(n, a, b)), (n, a, b)

    def test_fixed_multiple_is_where_sections_stop_dropping(self):
        # C_n is fixed k times in |D| iff h^0(D - kC_n) = h^0(D)
        for n, a, b in H0_GRID:
            if a >= 0 and b >= 0:
                h = oracles.h0_hirzebruch(n, a, b)
                j = max(k for k in range(a + 1) if oracles.h0_hirzebruch(n, a - k, b) == h)
                assert fixed_mobile_decompose(n, a, b).j == j, (n, a, b)

    def test_h0_is_chi_on_nef_classes(self):
        for n, a, b in H0_GRID:
            if nef_decompose(n, a, b):
                chi = hirzebruch_lattice(n).euler_characteristic(HirzebruchClass(n, a, b))
                assert oracles.h0_hirzebruch(n, a, b) == chi, (n, a, b)

    def test_bound_is_never_above_h0(self):
        equal = 0
        for n, a, b in H0_GRID:
            bound, h = h0_bound(n, a, b), oracles.h0_hirzebruch(n, a, b)
            assert bound <= h, (n, a, b)
            equal += bound == h
        assert len(H0_GRID) == 6290
        assert equal >= 5160

    def test_effective_residual_gets_zero(self):
        # K - D = 3C_1 + 2F is effective; chi(D) = 6 overstates h^0(D) = 0
        assert oracles.h0_hirzebruch(1, -5, -5) == 0
        assert h0_bound(1, -5, -5) == 0
