"""Every constructor, reader and verdict that takes outside values refuses a
value it must refuse with the error its API documents and a bounded message:
an NSLatticeError, or a TypeError where the API documents one."""

import sys
from dataclasses import fields
from operator import neg

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nslattice import (
    DivisorClass,
    HirzebruchClass,
    NSLatticeError,
    SelfcheckConfig,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    determinant,
    divisor_from_json,
    enumerate_negative_rational_classes,
    fixed_mobile_decompose,
    hirzebruch_lattice,
    is_effective,
    lattice_from_json,
    model_from_json,
    nef_decompose,
    signature,
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
# the fields every config refuses below 0, and the two with a largest value
CONFIG_BOUNDED = [f.name for f in fields(SelfcheckConfig) if f.name != "seed"]
CONFIG_MOST = {"family_r_max": 10_000, "enum_r_max": 8}
LAT = blowup_p2_lattice(2)

# (name, error, strategy of the refused arguments, the call)
CASES = [
    ("class-coeffs", TypeError, with_non_int, DivisorClass),
    ("class-scalar", TypeError, not_int | with_non_int, lambda k: DivisorClass((1,)) * k),
    ("basis-index", NSLatticeError, below(0) | above(LAT.rank - 1), LAT.basis_class),
    ("enumerate-self-int-type", TypeError, not_int,
     lambda s: enumerate_negative_rational_classes(LAT, s, 1)),
    ("enumerate-self-int-range", NSLatticeError, above(-1),
     lambda s: enumerate_negative_rational_classes(LAT, s, 1)),
    ("enumerate-bound-type", TypeError, not_int,
     lambda b: enumerate_negative_rational_classes(LAT, -1, b)),
    ("enumerate-bound-range", NSLatticeError, below(1),
     lambda b: enumerate_negative_rational_classes(LAT, -1, b)),
    ("determinant", TypeError, with_non_int, lambda row: determinant([row])),
    ("signature", TypeError, with_non_int, lambda row: signature([row])),
    *[
        (f"{call.__name__}-type", TypeError, one_non_int(), lambda args, call=call: call(*args))
        for call in HIRZEBRUCH_CALLS
    ],
    *[
        (f"{call.__name__}-n", NSLatticeError, hirzebruch_args(n=below(0)),
         lambda args, call=call: call(*args))
        for call in HIRZEBRUCH_CALLS
    ],
    ("fixed_mobile_decompose-not-effective", NSLatticeError,
     hirzebruch_args(a=below(0)) | hirzebruch_args(b=below(0)),
     lambda args: fixed_mobile_decompose(*args)),
    ("lattice-n-type", TypeError, present, hirzebruch_lattice),
    ("lattice-r-type", TypeError, present, blowup_p2_lattice),
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
]


@pytest.mark.parametrize("error,values,call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@given(data=st.data())
def test_refused_with_the_documented_error_and_a_bounded_message(error, values, call, data):
    value = data.draw(values)
    with pytest.raises(error) as info:
        call(value)
    assert len(str(info.value)) < MAX_MESSAGE


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default limit of 4,300 digits on integer string conversion",
)
@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: DivisorClass((1.5, 10**5000)), TypeError,
         "coefficients must be integers, got a tuple holding an integer past 4,300 digits"),
        (lambda: DivisorClass((1,)) * (1.5, 10**5000), TypeError,
         "a class is multiplied by an integer, got a tuple holding an integer past 4,300 digits"),
        (lambda: LAT.basis_class(10**5000), NSLatticeError,
         "basis index an integer past 4,300 digits is out of range for rank 3"),
        (lambda: enumerate_negative_rational_classes(LAT, 10**5000, 1), NSLatticeError,
         "self-intersection must be <= -1, got an integer past 4,300 digits"),
        (lambda: enumerate_negative_rational_classes(LAT, -1, -(10**5000)), NSLatticeError,
         "degree bound must be >= 1, got an integer past 4,300 digits"),
        (lambda: determinant([[1.5, 10**5000]]), TypeError,
         "matrix entries must be integers, got a list holding an integer past 4,300 digits"),
        (lambda: is_effective(-(10**5000), 0, 0), NSLatticeError,
         "Hirzebruch parameter n must be >= 0, got an integer past 4,300 digits"),
        (lambda: HirzebruchClass(1, 10**5000, 1.5), TypeError,
         "n, a and b must be integers, got a tuple holding an integer past 4,300 digits"),
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
