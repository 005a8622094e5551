"""Every constructor, reader and verdict that takes outside values refuses a
value it must refuse with the error its API documents and a bounded message:
an NSLatticeError, and for a missing or wrong-type value an InputError, which
is also the TypeError the Python API documents."""

import sys
from dataclasses import fields
from operator import neg
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nslattice import (
    CurveWitness,
    DivisorClass,
    HirzebruchClass,
    InputError,
    InvalidParameterError,
    NotNef,
    NSLatticeError,
    SelfcheckConfig,
    SurfaceModel,
    anticanonical_class,
    anticanonical_consequence_check,
    anticanonical_fixed_locus,
    basis_change_to_p2,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    classify_fixed_component,
    divisor_from_json,
    enumerate_negative_rational_classes,
    fixed_mobile_decompose,
    forced_fixed_components,
    hirzebruch_lattice,
    is_effective,
    lattice_from_json,
    lemma_move_check,
    model_from_json,
    nef_against_witnesses,
    nef_decompose,
    run_selfcheck,
    witness_from_json,
)

MAX_MESSAGE = 300

# integers past the interpreter's default limit of 4,300 digits, which have no repr
huge = st.integers(4300, 4400).map(lambda k: 10**k)
any_int = st.integers() | huge | huge.map(neg)
# a value of a wrong JSON type for an integer, list or object: a bool, a float or a string
scalar = st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.just("x" * 500)
not_int = (
    scalar
    | st.lists(any_int, min_size=1, max_size=2)
    | st.dictionaries(st.text(max_size=3), any_int, max_size=2)
)
present = not_int.filter(lambda v: v is not None)  # null stands for an absent value
# a coefficient list holding one non-integer beside an integer, perhaps one past the limit
with_non_int = st.tuples(not_int, any_int).flatmap(st.permutations)


def below(least):
    return st.integers(max_value=least - 1) | huge.map(neg)


def above(most):
    return st.integers(min_value=most + 1) | huge


def hirzebruch_args(n=st.integers(0) | huge, a=any_int, b=any_int):
    return st.tuples(n, a, b)


def one_non_int():
    """(n, a, b) with one of the three a non-integer."""
    return st.sampled_from(range(3)).flatmap(
        lambda k: hirzebruch_args(*(not_int if i == k else any_int for i in range(3)))
    )


HIRZEBRUCH_CALLS = (HirzebruchClass, is_effective, nef_decompose, fixed_mobile_decompose)
# the lattice methods that read a class
CLASS_METHODS = (
    "intersect", "self_intersection", "canonical_pairing", "arithmetic_genus",
    "euler_characteristic", "h0_lower_bound",
)
# anything but a CurveWitness, where the blowup API takes one; a class lacks the flag
not_witness = not_int | st.lists(any_int) | st.just(DivisorClass((0, 1)))
# the fields every config refuses below 0, and the two with a largest value
CONFIG_BOUNDED = [f.name for f in fields(SelfcheckConfig) if f.name != "seed"]
CONFIG_MOST = {"family_r_max": 10_000, "enum_r_max": 8}
LAT = blowup_p2_lattice(2)
F3 = hirzebruch_lattice(3)
F1_WITH_F = model_from_json(
    {"lattice": {"family": "hirzebruch", "n": 1}, "curves": [{"coeffs": [0, 1]}]}
)
ZERO_WITNESS = CurveWitness(LAT.zero_class())
# the verdicts that read a model, and the functions that read a lattice
MODEL_CALLS = (
    forced_fixed_components,
    lambda m: nef_against_witnesses(m, LAT.zero_class()),
    lambda m: anticanonical_consequence_check(m, True),
    lambda m: classify_fixed_component(m, ZERO_WITNESS),
    lambda m: lemma_move_check(m, ZERO_WITNESS),
)
# objects with a lattice that are no model: nef, consequences, classify and lemma-move
# took them, or ended in a bare AttributeError on 'curves' or '_forced'
LATTICE_ONLY = (
    SimpleNamespace(lattice=LAT),
    SimpleNamespace(lattice=F3),
    SimpleNamespace(lattice=LAT, curves=()),
)
LATTICE_CALLS = (
    lambda lat: enumerate_negative_rational_classes(lat, -1, 1),
    lambda lat: basis_change_to_p2(lat, LAT.zero_class()),
)

# (name, error, strategy of the refused arguments, the call)
CASES = [
    ("class-coeffs", InputError, with_non_int, DivisorClass),
    # not iterable: a builtin TypeError that named nothing
    ("class-not-a-list", InputError, st.none() | st.booleans() | st.floats() | any_int,
     DivisorClass),
    ("class-scalar", InputError, not_int | with_non_int, lambda k: DivisorClass((1,)) * k),
    ("basis-index", NSLatticeError, below(0) | above(LAT.rank - 1), LAT.basis_class),
    # a float or bool index gave the zero class or E_1
    ("basis-index-type", InputError, not_int, LAT.basis_class),
    ("enumerate-self-int-type", InputError, not_int,
     lambda s: enumerate_negative_rational_classes(LAT, s, 1)),
    ("enumerate-self-int-range", NSLatticeError, above(-1),
     lambda s: enumerate_negative_rational_classes(LAT, s, 1)),
    ("enumerate-bound-type", InputError, not_int,
     lambda b: enumerate_negative_rational_classes(LAT, -1, b)),
    ("enumerate-bound-range", NSLatticeError, below(1),
     lambda b: enumerate_negative_rational_classes(LAT, -1, b)),
    # these failed with AttributeError on '_forced', 'lattice', 'family' or 'n'
    ("verdict-model", InputError,
     st.tuples(st.sampled_from(MODEL_CALLS),
               not_int | st.lists(any_int) | st.sampled_from(LATTICE_ONLY)),
     lambda t: t[0](t[1])),
    ("lattice-argument", InputError,
     st.tuples(st.sampled_from(LATTICE_CALLS), not_int | st.lists(any_int)), lambda t: t[0](t[1])),
    # C_5 was paired on F_3 as C_3, and Bl_1 P^2, whose n is None, took a class of any F_n
    ("class-of-another-n", InvalidParameterError,
     st.tuples(st.sampled_from((F3, blowup_p2_lattice(1))), st.sampled_from(CLASS_METHODS),
               st.integers(0) | huge).filter(lambda t: t[2] != t[0].n),
     lambda t: getattr(t[0], t[1])(*[t[0].zero_class()] * (t[1] == "intersect"),
                                   HirzebruchClass(t[2], 1, 0))),
    # a list for a class failed with AttributeError on .coeffs
    *[
        (f"{method}-class", InputError, scalar | st.lists(any_int, max_size=3),
         lambda d, method=method: getattr(LAT, method)(*[d] * (method == "intersect"), d))
        for method in CLASS_METHODS
    ],
    *[
        (f"{call.__name__}-type", InputError, one_non_int(), lambda args, call=call: call(*args))
        for call in HIRZEBRUCH_CALLS
    ],
    *[
        (f"{call.__name__}-n", NSLatticeError, hirzebruch_args(n=below(0)),
         lambda args, call=call: call(*args))
        for call in HIRZEBRUCH_CALLS
    ],
    # each computed n + 2 before any check
    ("anticanonical_class-type", InputError, not_int, anticanonical_class),
    ("anticanonical_fixed_locus-type", InputError, not_int, anticanonical_fixed_locus),
    ("fixed_mobile_decompose-not-effective", NSLatticeError,
     hirzebruch_args(a=below(0)) | hirzebruch_args(b=below(0)),
     lambda args: fixed_mobile_decompose(*args)),
    ("lattice-n-type", InputError, present, hirzebruch_lattice),
    ("lattice-r-type", InputError, present, blowup_p2_lattice),
    ("lattice-n-range", NSLatticeError, below(0), lambda n: blowup_hirzebruch_lattice(n, 1)),
    ("lattice-r-range", NSLatticeError, below(0) | above(10_000), blowup_p2_lattice),
    ("lattice_from_json-doc", NSLatticeError, scalar | st.lists(any_int), lattice_from_json),
    ("lattice_from_json-family", NSLatticeError, not_int,
     lambda f: lattice_from_json({"family": f, "r": 1})),
    ("lattice_from_json-r", NSLatticeError, not_int | below(0) | above(10_000),
     lambda r: lattice_from_json({"family": "blowup_p2", "r": r})),
    ("divisor_from_json", NSLatticeError,
     scalar | st.dictionaries(st.text(max_size=3), any_int, max_size=2)
     | with_non_int.map(list) | with_non_int.map(lambda c: {"coeffs": list(c)}),
     divisor_from_json),
    ("witness_from_json-doc", NSLatticeError, scalar | st.lists(any_int), witness_from_json),
    ("witness_from_json-coeffs", NSLatticeError,
     scalar | st.dictionaries(st.text(max_size=3), any_int) | with_non_int.map(list),
     lambda c: witness_from_json({"coeffs": c})),
    ("witness_from_json-prime", NSLatticeError,
     present.filter(lambda p: type(p) is not bool) | any_int,
     lambda p: witness_from_json({"coeffs": [1, 0], "prime": p})),
    # a list failed later, on .coeffs, and "no" was read as prime
    ("CurveWitness-class", InputError, not_int | st.lists(any_int), CurveWitness),
    ("CurveWitness-prime", InputError, not_int.filter(lambda p: type(p) is not bool) | any_int,
     lambda p: CurveWitness(DivisorClass((1, 0)), p)),
    # any truthy value read as "witness list asserted complete"
    ("consequence_check-witness_complete", InputError,
     not_int.filter(lambda w: type(w) is not bool) | any_int,
     lambda w: anticanonical_consequence_check(F1_WITH_F, w)),
    # a lattice of no type was accepted, curves that hold no witnesses failed on .cls,
    # and "" and {} were read as no witnesses
    ("SurfaceModel-lattice", InputError, not_int | st.lists(any_int), lambda lat: SurfaceModel(lat, ())),
    ("SurfaceModel-curves", InputError,
     st.none() | st.booleans() | st.floats() | any_int | st.text()
     | st.dictionaries(st.just(ZERO_WITNESS), st.booleans()) | st.lists(not_witness, min_size=1),
     lambda c: SurfaceModel(LAT, c)),
    # a class for a witness failed on .asserted_prime
    ("classify_fixed_component-witness", InputError, not_witness,
     lambda w: classify_fixed_component(SurfaceModel(LAT), w)),
    ("lemma_move_check-witness", InputError, not_witness,
     lambda w: lemma_move_check(SurfaceModel(LAT), w)),
    ("model_from_json-doc", NSLatticeError, scalar | st.lists(any_int), model_from_json),
    ("model_from_json-curves", NSLatticeError,
     scalar.filter(lambda c: c is not None) | st.dictionaries(st.text(max_size=3), any_int),
     lambda c: model_from_json({"lattice": {"family": "hirzebruch", "n": 1}, "curves": c})),
    ("model_from_json-witness", NSLatticeError, scalar | with_non_int.map(list),
     lambda w: model_from_json({"lattice": {"family": "hirzebruch", "n": 1}, "curves": [w]})),
    ("config-type", NSLatticeError,
     st.tuples(st.sampled_from([f.name for f in fields(SelfcheckConfig)]), not_int),
     lambda kv: SelfcheckConfig(**dict([kv]))),
    ("config-range", NSLatticeError,
     st.tuples(st.sampled_from(CONFIG_BOUNDED), below(0))
     | st.sampled_from(sorted(CONFIG_MOST)).flatmap(
         lambda k: st.tuples(st.just(k), above(CONFIG_MOST[k]))),
     lambda kv: SelfcheckConfig(**dict([kv]))),
    ("config_from_json", NSLatticeError,
     scalar | st.lists(any_int)
     | st.tuples(st.sampled_from(CONFIG_BOUNDED), present | below(0))
     .map(lambda kv: dict([kv])),
     SelfcheckConfig.from_json_dict),
    # an unknown key was echoed whole
    ("config_from_json-unknown-key", InputError,
     st.text(max_size=3).map(lambda k: {"x" * 5000 + k: 1}), SelfcheckConfig.from_json_dict),
    # a string failed with AttributeError, and a falsy value ran the default config
    ("run_selfcheck-cfg", InputError, present, run_selfcheck),
]


@pytest.mark.parametrize("error,values,call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@given(data=st.data())
def test_refused_with_the_documented_error_and_a_bounded_message(error, values, call, data):
    value = data.draw(values)
    with pytest.raises(error) as info:
        call(value)
    assert len(str(info.value)) < MAX_MESSAGE


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: SurfaceModel("x", ()), InputError, "lattice must be a SurfaceLattice, got 'x'"),
        (lambda: SurfaceModel(LAT, None), InputError, "missing required input curves"),
        (lambda: SurfaceModel(LAT, [DivisorClass((0, 1, 0))]), InputError,
         "curves must be a list of CurveWitness values, got [DivisorClass(coeffs=(0, 1, 0))]"),
        (lambda: classify_fixed_component(SurfaceModel(LAT), DivisorClass((0, 1, 0))), InputError,
         "witness must be a CurveWitness, got DivisorClass(coeffs=(0, 1, 0))"),
        (lambda: SurfaceModel(LAT, ""), InputError,
         "curves must be a list of CurveWitness values, got ''"),
        (lambda: SurfaceModel(LAT, {}), InputError,
         "curves must be a list of CurveWitness values, got {}"),
        (lambda: forced_fixed_components("x"), InputError, "model must be a SurfaceModel, got 'x'"),
        (lambda: nef_against_witnesses(LAT, LAT.zero_class()), InputError,
         "model must be a SurfaceModel, got SurfaceLattice(family=<Family.BLOWUP_P2: 'blowup_p2'>, "
         "n=None, r=2, rank=3, canonical=DivisorClass(…"),
        (lambda: anticanonical_consequence_check(None, True), InputError,
         "missing required input model"),
        (lambda: classify_fixed_component([], ZERO_WITNESS), InputError,
         "model must be a SurfaceModel, got []"),
        (lambda: lemma_move_check(1, ZERO_WITNESS), InputError,
         "model must be a SurfaceModel, got 1"),
        (lambda: enumerate_negative_rational_classes("blowup_p2", -1, 1), InputError,
         "lattice must be a SurfaceLattice, got 'blowup_p2'"),
        (lambda: basis_change_to_p2({"family": "hirzebruch", "n": 1}, DivisorClass((1, 0))),
         InputError, "lattice must be a SurfaceLattice, got {'family': 'hirzebruch', 'n': 1}"),
        (lambda: F3.self_intersection(HirzebruchClass(5, 1, 0)), InvalidParameterError,
         "class with n = 5 on a lattice with n = 3"),
        (lambda: blowup_p2_lattice(1).euler_characteristic(HirzebruchClass(1, 0, 1)),
         InvalidParameterError, "class with n = 1 on a lattice with n = None"),
        (lambda: SurfaceModel(F3, [CurveWitness(HirzebruchClass(5, 0, 1))]), InvalidParameterError,
         "class with n = 5 on a lattice with n = 3"),
        (lambda: basis_change_to_p2(hirzebruch_lattice(1), HirzebruchClass(3, 1, 0)),
         InvalidParameterError, "class with n = 3 on a lattice with n = 1"),
        # "x" failed with AttributeError; {}, 0 and "" ran the default config
        (lambda: run_selfcheck("x"), InputError, "cfg must be a SelfcheckConfig, got 'x'"),
        (lambda: run_selfcheck({}), InputError, "cfg must be a SelfcheckConfig, got {}"),
        (lambda: run_selfcheck(0), InputError, "cfg must be a SelfcheckConfig, got 0"),
        (lambda: run_selfcheck(""), InputError, "cfg must be a SelfcheckConfig, got ''"),
    ],
    ids=["lattice", "curves-none", "curves-class", "witness-class", "curves-empty-string",
         "curves-empty-dict", "forced-model", "nef-model", "consequence-model", "classify-model",
         "lemma-model", "enumerate-lattice", "basis-change-lattice", "pairing-another-n",
         "chi-on-the-plane", "witness-another-n", "basis-change-another-n", "selfcheck-string",
         "selfcheck-empty-dict", "selfcheck-zero", "selfcheck-empty-string"],
)
def test_refusal_names_the_shape_or_the_parameter(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", MODEL_CALLS)
@pytest.mark.parametrize("model", LATTICE_ONLY)
def test_a_lattice_alone_is_no_model(call, model):
    with pytest.raises(InputError) as info:
        call(model)
    assert str(info.value).startswith("model must be a SurfaceModel, got namespace(lattice=")


def test_input_error_is_a_domain_error_and_a_type_error():
    assert issubclass(InputError, NSLatticeError) and issubclass(InputError, TypeError)


default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default limit of 4,300 digits on integer string conversion",
)


@default_digit_limit
@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: DivisorClass((1.5, 10**5000)), TypeError,
         "coeffs must be a list of integers, got a tuple holding an integer past 4,300 digits"),
        (lambda: DivisorClass((1,)) * (1.5, 10**5000), TypeError,
         "a class's multiplier must be an integer, got a tuple holding an integer past 4,300 digits"),
        (lambda: LAT.basis_class(10**5000), NSLatticeError,
         "basis index an integer past 4,300 digits is out of range for rank 3"),
        (lambda: enumerate_negative_rational_classes(LAT, 10**5000, 1), NSLatticeError,
         "self-intersection must be <= -1, got an integer past 4,300 digits"),
        (lambda: enumerate_negative_rational_classes(LAT, -1, -(10**5000)), NSLatticeError,
         "degree bound must be >= 1, got an integer past 4,300 digits"),
        (lambda: is_effective(-(10**5000), 0, 0), NSLatticeError,
         "Hirzebruch parameter n must be >= 0, got an integer past 4,300 digits"),
        (lambda: HirzebruchClass(1, 10**5000, 1.5), TypeError, "b must be an integer, got 1.5"),
        (lambda: fixed_mobile_decompose(1, -(10**5000), 0), NSLatticeError,
         "an integer past 4,300 digits*C1 + 0*F is not effective; "
         "its complete linear system is empty"),
        (lambda: SelfcheckConfig(family_r_max=10**5000), NSLatticeError,
         "selfcheck config family_r_max must be <= 10,000, got an integer past 4,300 digits"),
        (lambda: SelfcheckConfig(monoid_copies=-(10**5000)), NSLatticeError,
         "selfcheck config monoid_copies must be >= 8 (monoid_coeff_bound), "
         "got an integer past 4,300 digits"),
        (lambda: SelfcheckConfig(enum_r_max=10**5000), NSLatticeError,
         "selfcheck config enum_r_max must be <= 8, got an integer past 4,300 digits"),
    ],
)
def test_value_past_the_digit_limit_is_named_by_its_size(call, error, message):
    # repr() of such an integer raises ValueError, which escaped these refusals
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert isinstance(info.value, NSLatticeError)


def nested(depth):
    """A list holding a list, ``depth`` levels down: past the recursion limit of repr()."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda deep: DivisorClass([1, deep]),
         "coeffs must be a list of integers, got a tuple nested too deeply to show"),
        (lambda deep: divisor_from_json({"coeffs": deep}),
         "coeffs must be a list of integers, got a list nested too deeply to show"),
        (lambda deep: hirzebruch_lattice(deep), "n must be an integer, got a list nested too deeply to show"),
    ],
    ids=["class", "divisor_from_json", "lattice-n"],
)
def test_value_nested_too_deeply_is_named_by_its_type(call, message):
    # repr() of such a value raises RecursionError, which escaped these refusals;
    # the CLI's JSON decoder refuses such nesting first, the Python API does not
    with pytest.raises(InputError) as info:
        call(nested(10**5))
    assert str(info.value) == message


@default_digit_limit
def test_basis_labels_past_the_digit_limit_name_c_n():
    # formatting C<n> raised ValueError, as in nef_decompose below
    assert hirzebruch_lattice(10**5000).basis_labels == ("C_n", "F")
    assert blowup_hirzebruch_lattice(4, 1).basis_labels == ("C4", "F", "E1")


@default_digit_limit
def test_nef_verdict_past_the_digit_limit_names_its_generator_c_n():
    # formatting C<n> raised ValueError; a verdict is not a refusal
    assert nef_decompose(10**5000, 1, 0) == NotNef("C_n", -(10**5000))
    assert nef_decompose(4, 1, 0) == NotNef("C4", -4)
