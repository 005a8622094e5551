import copy
import dataclasses
import importlib
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from nslattice import (
    CurveWitness,
    DimensionError,
    DivisorClass,
    Family,
    FixedComponentKind,
    GENUS_ONE,
    InputError,
    NSLatticeError,
    NEGATIVE_RATIONAL,
    PreconditionError,
    SurfaceModel,
    THEOREM_VIOLATION,
    anticanonical_consequence_check,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    classify_fixed_component,
    forced_fixed_components,
    hirzebruch_lattice,
    lemma_move_check,
    make_lattice,
    model_from_json,
    nef_against_witnesses,
    witness_from_json,
)
from nslattice.blowup import INCOMPLETE_VERDICT
from nslattice.values import json_object


def hirzebruch_model(n):
    lat = hirzebruch_lattice(n)
    return SurfaceModel(
        lat, (CurveWitness(lat.basis_class(0)), CurveWitness(lat.basis_class(1)))
    )


def public_forced_pairs(model):
    """The pairs (witness, K.C) with K.C > 0 in list order, by the public canonical_pairing."""
    lat = model.lattice
    return tuple((w, kc) for w in model.curves if (kc := lat.canonical_pairing(w.cls)) > 0)


def exceptional_model(r):
    lat = blowup_p2_lattice(r)
    return SurfaceModel(lat, tuple(CurveWitness(lat.basis_class(i)) for i in range(1, r + 1)))


class TestWitnessValidation:
    def test_rank_mismatch_rejected(self):
        # the message names the witness, as the CLI prints it (test_cli.py)
        with pytest.raises(DimensionError, match=r"^witness \[1, 0, 0\] does not match lattice rank 2$"):
            SurfaceModel(hirzebruch_lattice(1), (CurveWitness(DivisorClass((1, 0, 0))),))

    def test_negative_genus_prime_rejected(self):
        lat = blowup_p2_lattice(2)
        # 2H - 3E_1 has p_a = -2 and cannot contain a prime divisor
        with pytest.raises(PreconditionError):
            SurfaceModel(lat, (CurveWitness(DivisorClass((2, -3, 0))),))
        # at the boundary: E_1 + E_2 has C.C + K.C = -4 (p_a = -1), E_1 - E_2 has -2 (p_a = 0)
        with pytest.raises(PreconditionError, match=r"^class \[0, 1, 1\] has negative"):
            SurfaceModel(lat, (CurveWitness(DivisorClass((0, 1, 1))),))
        SurfaceModel(lat, (CurveWitness(DivisorClass((0, 1, -1))),))

    def test_non_prime_witness_not_genus_checked(self):
        lat = blowup_p2_lattice(2)
        SurfaceModel(lat, (CurveWitness(DivisorClass((2, -3, 0)), asserted_prime=False),))

    def test_json_round_trip(self):
        model = hirzebruch_model(3)
        assert model_from_json(model.to_json_dict()) == model

    def test_null_members_read_as_absent(self):
        # json_object drops the nulls of every document it reads: the model's
        # "curves", a witness's "prime" and the nested lattice's "n"
        lattice = {"family": "blowup_p2", "n": None, "r": 1}
        bare = {"lattice": lattice, "curves": None}
        witnessed = {"lattice": lattice, "curves": [{"coeffs": [0, 1], "prime": None}]}
        given = copy.deepcopy([bare, witnessed])
        assert model_from_json(bare) == SurfaceModel(blowup_p2_lattice(1))
        assert model_from_json(witnessed) == SurfaceModel(
            blowup_p2_lattice(1), (CurveWitness(DivisorClass((0, 1))),)
        )
        assert [bare, witnessed] == given
        # a document without nulls is read as is, not copied
        doc = {"family": "blowup_p2", "r": 1}
        assert json_object(doc, "lattice") is doc

    def test_stored_pairings_are_no_part_of_the_value(self):
        model = hirzebruch_model(3)
        # K = -2C_3 - 5F: K.C_3 = 1 is forced, K.F = -2 is not
        assert model._forced == public_forced_pairs(model) == ((model.curves[0], 1),)
        twin = hirzebruch_model(3)
        object.__setattr__(twin, "_forced", ())
        assert twin == model and hash(twin) == hash(model)
        assert repr(twin) == repr(model) and "_forced" not in repr(model)
        assert twin.to_json_dict() == model.to_json_dict()
        # replace builds the model anew, so the forced pairs follow the new curves
        section, curve = CurveWitness(DivisorClass((1, 1))), CurveWitness(DivisorClass((1, 0)))
        moved = dataclasses.replace(model, curves=[section, curve])
        assert moved._forced == public_forced_pairs(moved) == ((curve, 1),)  # K.(C_3 + F) = -1
        assert dataclasses.replace(model, curves=[section])._forced == ()
        assert type(moved.curves) is tuple

    def test_a_lattice_from_a_second_copy_of_its_module_is_taken(self, monkeypatch):
        # a caller that drops the lazy lattice module and imports it again gets a
        # second SurfaceLattice class; the model tells a lattice by eager names
        import nslattice
        import nslattice.lattice as first

        monkeypatch.setattr(nslattice, "lattice", first)  # the import rebinds it
        monkeypatch.delitem(sys.modules, "nslattice.lattice")
        second = importlib.import_module("nslattice.lattice")
        assert second is not first and second.SurfaceLattice is not first.SurfaceLattice
        witness = CurveWitness(DivisorClass((0, 1)))
        model = SurfaceModel(second.blowup_p2_lattice(1), (witness,))
        assert type(model.lattice) is second.SurfaceLattice and model._forced == ()
        verdict = classify_fixed_component(model, witness)
        assert (verdict.kind, verdict.n) == (NEGATIVE_RATIONAL, 1)
        assert not nef_against_witnesses(model, DivisorClass((0, 1))).nef_relative

    def test_a_look_alike_lattice_is_refused(self):
        lat = blowup_p2_lattice(1)
        fake = SimpleNamespace(**vars(lat))
        assert fake.family is Family.BLOWUP_P2
        with pytest.raises(InputError, match=r"^lattice must be a SurfaceLattice, got namespace\("):
            SurfaceModel(fake, ())

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": NEGATIVE_RATIONAL, "n": 0},
            {"kind": GENUS_ONE, "self_int": 1},
            {"kind": THEOREM_VIOLATION},
        ],
    )
    def test_inconsistent_verdict_tag_is_a_domain_error(self, fields):
        with pytest.raises(NSLatticeError):
            FixedComponentKind(**fields)


class TestNefAgainstWitnesses:
    def test_nef_class_clears_witnesses(self):
        model = hirzebruch_model(2)
        verdict = nef_against_witnesses(model, DivisorClass((1, 2)))
        assert verdict.nef_relative and not verdict.empty_evidence
        assert bool(verdict) is True

    def test_negative_section_is_caught(self):
        model = hirzebruch_model(2)
        verdict = nef_against_witnesses(model, DivisorClass((1, 0)))
        assert not verdict.nef_relative
        assert bool(verdict) is False
        assert verdict.pairing == -2
        assert verdict.violator.cls.coeffs == (1, 0)

    def test_exceptional_curve_blocks_itself(self):
        model = exceptional_model(1)
        verdict = nef_against_witnesses(model, DivisorClass((0, 1)))
        assert not verdict.nef_relative and verdict.pairing == -1

    def test_empty_witness_list_is_flagged(self):
        model = SurfaceModel(blowup_p2_lattice(1), ())
        verdict = nef_against_witnesses(model, DivisorClass((0, 1)))
        assert verdict.nef_relative and verdict.empty_evidence

    def test_first_violator_in_list_order(self):
        lat = blowup_p2_lattice(2)
        model = SurfaceModel(
            lat, (CurveWitness(lat.basis_class(1)), CurveWitness(lat.basis_class(2)))
        )
        verdict = nef_against_witnesses(model, DivisorClass((0, 1, 1)))
        assert verdict.violator.cls == lat.basis_class(1)


class TestForcedFixedComponents:
    def test_high_degree_section_is_forced(self):
        model = hirzebruch_model(5)
        forced = forced_fixed_components(model)
        assert [w.cls.coeffs for w in forced] == [(1, 0)]

    def test_nothing_forced_on_f1(self):
        assert forced_fixed_components(hirzebruch_model(1)) == []

    def test_nothing_forced_on_one_point_blowup(self):
        lat = blowup_p2_lattice(1)
        model = SurfaceModel(
            lat,
            (CurveWitness(DivisorClass((0, 1))), CurveWitness(DivisorClass((1, -1)))),
        )
        assert forced_fixed_components(model) == []

    def test_forced_components_are_never_nef_relative(self):
        for n in range(11):
            model = hirzebruch_model(n)
            forced = forced_fixed_components(model)
            if forced:
                minus_k = -model.lattice.canonical
                assert not nef_against_witnesses(model, minus_k).nef_relative


class TestClassifier:
    def test_exceptional_curve_is_a_minus_one_curve(self):
        # the paper's n >= 1 includes n = 1: E_1 on Bl_1 P^2 is no theorem violation
        lat = blowup_p2_lattice(1)
        verdict = classify_fixed_component(SurfaceModel(lat, ()), CurveWitness(lat.basis_class(1)))
        assert (verdict.kind, verdict.n) == (NEGATIVE_RATIONAL, 1)

    def test_pulled_back_section_is_negative_rational(self):
        lat = blowup_hirzebruch_lattice(5, 1)
        model = SurfaceModel(lat, ())
        verdict = classify_fixed_component(model, CurveWitness(DivisorClass((1, 0, 0))))
        assert verdict.kind == NEGATIVE_RATIONAL and verdict.n == 5

    def test_anticanonical_on_nine_points_is_genus_one(self):
        lat = blowup_p2_lattice(9)
        model = SurfaceModel(lat, ())
        verdict = classify_fixed_component(model, CurveWitness(-lat.canonical))
        assert verdict.kind == GENUS_ONE and verdict.self_int == 0

    @pytest.mark.parametrize("r", [9, 10, 11, 12])
    def test_anticanonical_through_points_on_a_cubic_is_genus_one(self, r):
        # at r points of a smooth cubic, the cubic is the one curve of
        # |-K| = |3H - E_1 - ... - E_r| (and of |-2K|), so it is the fixed part of
        # |-K|: genus one, square 9 - r; at general points |-K| is empty from r = 10
        anti = (3,) + (-1,) * r
        points = oracles.plane_points("cubic", r, random.Random(r))
        assert oracles.h0_through_points(points, anti) == 1
        assert oracles.h0_through_points(points, tuple(2 * c for c in anti)) == 1
        general = oracles.plane_points("general", r, random.Random(r))
        assert oracles.h0_through_points(general, anti) == (r == 9)
        lat = blowup_p2_lattice(r)
        model = SurfaceModel(lat, (CurveWitness(-lat.canonical),))
        assert model.curves[0].cls.coeffs == anti
        verdict = classify_fixed_component(model, model.curves[0])
        assert (verdict.kind, verdict.self_int) == (GENUS_ONE, 9 - r)

    def test_line_class_moves_so_it_violates(self):
        lat = blowup_p2_lattice(8)
        model = SurfaceModel(lat, ())
        verdict = classify_fixed_component(model, CurveWitness(lat.basis_class(0)))
        assert verdict.kind == THEOREM_VIOLATION

    def test_genus_one_zero_square_needs_k2_zero(self):
        # on K.K > 0 the only class with p_a = 1, D.D = 0 is the zero class
        lat = blowup_p2_lattice(8)
        model = SurfaceModel(lat, ())
        verdict = classify_fixed_component(model, CurveWitness(lat.zero_class()))
        assert verdict.kind == THEOREM_VIOLATION
        assert "K.K" in verdict.reason

    def test_genus_one_negative_square_ok_when_k2_nonpositive(self):
        lat = blowup_p2_lattice(10)
        model = SurfaceModel(lat, ())
        # -K on ten points: p_a = 1, self-intersection -1
        verdict = classify_fixed_component(model, CurveWitness(-lat.canonical))
        assert verdict.kind == GENUS_ONE and verdict.self_int == -1

    def test_genus_one_negative_square_rejected_when_k2_positive(self):
        # -E_1 - E_2 has p_a = 1 and square -2; with K.K = 1 > 0 every fixed
        # component must be rational, so the classifier must refuse it
        lat = blowup_p2_lattice(8)
        cls = DivisorClass((0, -1, -1, 0, 0, 0, 0, 0, 0))
        assert lat.arithmetic_genus(cls) == 1
        assert lat.self_intersection(cls) == -2
        model = SurfaceModel(lat, ())
        verdict = classify_fixed_component(model, CurveWitness(cls))
        assert verdict.kind == THEOREM_VIOLATION
        assert "genus 1" in verdict.reason

    def test_non_prime_witness_rejected(self):
        model = SurfaceModel(blowup_p2_lattice(1), ())
        with pytest.raises(PreconditionError):
            classify_fixed_component(
                model, CurveWitness(DivisorClass((0, 1)), asserted_prime=False)
            )

    def test_totality_over_reachable_pairs(self):
        lat = blowup_p2_lattice(3)
        model = SurfaceModel(lat, ())
        for d in range(-3, 4):
            for e1 in range(-3, 4):
                for e2 in range(-3, 4):
                    witness = CurveWitness(DivisorClass((d, e1, e2, 0)))
                    verdict = classify_fixed_component(model, witness)
                    assert verdict.kind in (NEGATIVE_RATIONAL, GENUS_ONE, THEOREM_VIOLATION)

    @given(st.integers(0, 8), st.integers(0, 6), st.lists(st.integers(-6, 6), min_size=3, max_size=8))
    def test_adjunction_identity_for_rational_classes(self, n, _, raw):
        lat = blowup_hirzebruch_lattice(n, len(raw) - 2)
        d = DivisorClass(raw)
        if lat.arithmetic_genus(d) == 0:
            assert lat.self_intersection(d) == -2 - lat.canonical_pairing(d)


class TestConsequenceCheck:
    def test_nine_point_blowup_consistent(self):
        report = anticanonical_consequence_check(exceptional_model(9), False)
        assert report.verdict == "consistent"
        assert report.violators == ()

    def test_ten_point_blowup_flagged(self):
        report = anticanonical_consequence_check(exceptional_model(10), True)
        assert report.verdict == INCOMPLETE_VERDICT
        assert any("rho = 11" in v for v in report.violators)
        assert any("r = 10" in v for v in report.violators)

    def test_forced_section_checked_against_minus_three(self):
        lat = blowup_hirzebruch_lattice(5, 1)
        model = SurfaceModel(lat, tuple(CurveWitness(lat.basis_class(i)) for i in range(3)))
        report = anticanonical_consequence_check(model, False)
        assert report.verdict == "consistent"
        assert any("self-intersection -5 <= -3" in line for line in report.details)

    def test_empty_witnesses_vacuous_nef(self):
        report = anticanonical_consequence_check(SurfaceModel(blowup_p2_lattice(3), ()), False)
        assert report.verdict == "consistent"
        assert any("vacuous" in line for line in report.details)

    def test_k2_negative_not_nef_is_inconclusive(self):
        # K.K = -1 < 0; the conic through seven of ten points pairs -1 with -K,
        # so -K is not nef-relative, but no consequence applies
        lat = blowup_p2_lattice(10)
        cls = DivisorClass((2,) + (-1,) * 7 + (0, 0, 0))
        assert lat.arithmetic_genus(cls) == 0
        assert lat.intersect(-lat.canonical, cls) == -1
        model = SurfaceModel(lat, (CurveWitness(cls),))
        report = anticanonical_consequence_check(model, False)
        assert report.verdict == "inconclusive"


class TestLemmaMoveCheck:
    def test_moving_class_on_f3(self):
        model = hirzebruch_model(3)
        report = lemma_move_check(model, CurveWitness(DivisorClass((1, 5))))
        assert report.verdict == "consistent"
        assert "h^0 lower bound 9" in report.details[2]

    def test_nonpositive_square_not_applicable(self):
        model = hirzebruch_model(3)
        report = lemma_move_check(model, CurveWitness(DivisorClass((1, 0))))
        assert report.verdict == "not applicable"

    def test_line_moves_on_one_point_blowup(self):
        lat = blowup_p2_lattice(1)
        model = SurfaceModel(lat, ())
        report = lemma_move_check(model, CurveWitness(lat.basis_class(0)))
        assert report.verdict == "consistent"
        assert "h^0 lower bound 3" in report.details[2]

    def test_inconsistent_data_is_reported(self):
        # square 1 but K-pairing 3 (p_a = 3), so the bound collapses to 0:
        # impossible for a prime class on an anticanonical surface
        lat = blowup_p2_lattice(5)
        probe = DivisorClass((-3, 2, 1, 1, 1, 1))
        assert lat.self_intersection(probe) == 1
        assert lat.canonical_pairing(probe) == 3
        assert lat.h0_lower_bound(probe) == 0
        report = lemma_move_check(SurfaceModel(lat, ()), CurveWitness(probe))
        assert report.verdict == THEOREM_VIOLATION

    def test_bound_one_is_a_violation(self):
        # G = 5H - 2(E_1 + ... + E_4) - (E_5 + ... + E_12): G.G = 1 and K.G = 1, so
        # p_a = 2, chi = 1 and the bound is 1, one short of moving
        lat = blowup_p2_lattice(12)
        probe = DivisorClass((5,) + (-2,) * 4 + (-1,) * 8)
        assert (lat.self_intersection(probe), lat.arithmetic_genus(probe)) == (1, 2)
        report = lemma_move_check(SurfaceModel(lat, ()), CurveWitness(probe))
        assert report.verdict == THEOREM_VIOLATION
        assert report.details[2] == "h^0 lower bound 1"

    def test_preconditions_enforced(self):
        model = hirzebruch_model(1)
        with pytest.raises(PreconditionError):
            lemma_move_check(model, CurveWitness(DivisorClass((1, 1)), asserted_prime=False))


class TestCorollaryConsistency:
    def test_fixed_locus_matches_ruled_surface_story(self):
        for n in range(51):
            model = hirzebruch_model(n)
            forced = forced_fixed_components(model)
            if n <= 2:
                assert forced == []
            else:
                assert len(forced) == 1
                assert forced[0].cls.coeffs == (1, 0)
                verdict = classify_fixed_component(model, forced[0])
                assert verdict.kind == NEGATIVE_RATIONAL and verdict.n == n



def _witness_pool(lat):
    # the basis and every x - y - z, such as E_1 - E_2 - E_3 on a plane blowup or
    # C_n - E_1 - E_2 on a blown-up F_n: forced rational classes that random
    # vectors seldom hit
    b = [lat.basis_class(i) for i in range(lat.rank)]
    pool = b + [x - b[j] - b[k] for x in b for j in range(len(b)) for k in range(j)]
    return [c for c in pool if lat.arithmetic_genus(c) >= 0]


POOL_LATTICES = (
    [hirzebruch_lattice(n) for n in range(6)]
    + [blowup_p2_lattice(r) for r in range(11)]
    + [blowup_hirzebruch_lattice(n, r) for n in range(4) for r in range(9)]
)
WITNESS_POOLS = {lat: _witness_pool(lat) for lat in POOL_LATTICES}


@st.composite
def models_with_genus_nonnegative_witnesses(draw):
    """A model of any family whose witnesses all have p_a >= 0."""
    lat = draw(st.sampled_from(POOL_LATTICES))
    vector = st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank).map(DivisorClass)
    classes = draw(st.lists(vector | st.sampled_from(WITNESS_POOLS[lat]), max_size=6))
    curves = tuple(CurveWitness(c) for c in classes if lat.arithmetic_genus(c) >= 0)
    return SurfaceModel(lat, curves), draw(st.booleans())


@given(models_with_genus_nonnegative_witnesses())
def test_consequence_check_never_finds_a_violation(case):
    # adjunction: a forced component C has K.C >= 1, so p_a = 0 gives C.C <= -3
    model, witness_complete = case
    report = anticanonical_consequence_check(model, witness_complete)
    assert report.verdict != THEOREM_VIOLATION
    for line in report.details:
        if line.startswith("forced fixed component") and "p_a = 0," in line:
            assert line.endswith("<= -3: ok")


# coefficients of either sign up to four times 2^64, beside small ones
BIG = 2**64
coefficient = st.integers(-3, 3) | st.integers(BIG, 4 * BIG) | st.integers(-4 * BIG, -BIG)


@st.composite
def models_with_large_witnesses(draw):
    """A model of rank <= 14 with up to 16 witnesses, of any family, and one
    more class asserted prime.  Witnesses are random vectors or the classes
    b_i - b_j - b_k of basis vectors, which are often forced and rational;
    one is asserted prime only if p_a >= 0."""
    family = draw(st.sampled_from(["hirzebruch", "blowup_p2", "blowup_hirzebruch"]))
    n = None if family == "blowup_p2" else draw(st.integers(0, 12))
    r = None if family == "hirzebruch" else draw(st.integers(0, 13 if n is None else 12))
    lat = make_lattice(family, n, r)
    index = st.integers(0, lat.rank - 1)
    vector = st.lists(coefficient, min_size=lat.rank, max_size=lat.rank)
    difference = st.tuples(index, index, index).map(
        lambda ijk: [(t == ijk[0]) - (t == ijk[1]) - (t == ijk[2]) for t in range(lat.rank)]
    )
    classes = st.one_of(vector, difference).map(DivisorClass)
    curves = []
    for c in draw(st.lists(classes, max_size=16)):
        prime = draw(st.booleans()) and lat.arithmetic_genus(c) >= 0
        curves.append(CurveWitness(c, prime))
    return SurfaceModel(lat, tuple(curves)), CurveWitness(draw(classes))


@given(models_with_large_witnesses(), st.booleans())
def test_verdicts_match_the_reference_formulas(case, witness_complete):
    # the verdicts read the stored forced pairs and take K.K = 10 - rank
    model, extra = case
    assert model._forced == public_forced_pairs(model)
    assert forced_fixed_components(model) == oracles.reference_forced_fixed_components(model)
    assert anticanonical_consequence_check(model, witness_complete).to_json_dict() == (
        oracles.reference_anticanonical_consequence_check(model, witness_complete)
    )
    for w in [w for w in model.curves if w.asserted_prime] + [extra]:
        assert classify_fixed_component(model, w).to_json_dict() == (
            oracles.reference_classify_fixed_component(model, w)
        )
        assert lemma_move_check(model, w).to_json_dict() == (
            oracles.reference_lemma_move_check(model, w)
        )


# any JSON value, with integers past the interpreter's digit limit and long strings
json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.integers(4300, 4400).map(lambda k: -(10**k)) | st.just("x" * 500)
)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
coeffs_value = json_any | st.lists(st.integers(-3, 3) | json_leaf, max_size=4)
witness_doc = json_any | st.fixed_dictionaries(
    {}, optional={"coeffs": coeffs_value, "prime": json_any | st.booleans(), "other": json_any}
)


def read_witness(reader, doc):
    try:
        return reader(doc)
    except InputError as exc:
        return str(exc)


@given(witness_doc)
def test_witness_reader_matches_the_composed_readers(doc):
    given = copy.deepcopy(doc)
    got = read_witness(witness_from_json, doc)
    assert got == read_witness(oracles.reference_witness_from_json, doc)
    assert isinstance(got, CurveWitness) or len(got) < 200
    assert doc == given
