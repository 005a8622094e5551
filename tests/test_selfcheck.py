import dataclasses
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nslattice import (
    GENUS_ONE,
    THEOREM_VIOLATION,
    FixedComponentKind,
    InputError,
    NSLatticeError,
    SelfcheckConfig,
    SurfaceLattice,
    blowup_p2_lattice,
    enumerate_negative_rational_classes,
    run_selfcheck,
)
from nslattice import selfcheck
from nslattice.selfcheck import ALL_CHECKS

QUICK = SelfcheckConfig(
    anticanonical_n_max=8,
    uniqueness_n_max=4,
    uniqueness_a_max=4,
    monoid_n_max=3,
    monoid_coeff_bound=5,
    monoid_copies=10,
    random_classes=300,
    family_n_max=5,
    family_r_max=5,
    isometry_random_classes=100,
    enum_r_max=5,
    enum_stability_bound=9,
    seed=11,
)


def test_all_checks_pass_quick_config():
    results = run_selfcheck(QUICK)
    assert len(results) == len(ALL_CHECKS)
    assert [r.name for r in results] == [
        "monoid_bruteforce_equivalence",
        "monoid_minimal_generation",
        "fixed_mobile_uniqueness",
        "anticanonical_fixed_locus_sweep",
        "adjunction_parity",
        "lattice_invariants",
        "canonical_convention",
        "basis_change_isometries",
        "minus_one_enumeration_stability",
        "classifier_theorem_cases",
        "negative_curve_adjunction",
    ]
    failed = [r for r in results if not r.passed]
    assert failed == [], failed


def test_no_config_runs_the_default(monkeypatch):
    # recorders in place of the checks, so that the default config is not run
    seen = []
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (seen.append, seen.append))
    assert run_selfcheck() == [None, None]
    assert seen == [SelfcheckConfig(), SelfcheckConfig()]


def test_coeff_bound_bounds_the_parity_and_isometry_draws_only(monkeypatch):
    # random_coeff_bound is the box [-b, b] of adjunction_parity and
    # basis_change_isometries; negative_curve_adjunction draws from [-4, 4]
    # whatever it is.  Every random class of the three is built by _exact_class
    cfg = SelfcheckConfig(random_coeff_bound=0, random_classes=50)
    drawn, exact = [], selfcheck._exact_class
    monkeypatch.setattr(selfcheck, "_exact_class", lambda c: drawn.append(c) or exact(c))
    for check, count in (
        (selfcheck.check_adjunction_parity, 3 * 50),
        (selfcheck.check_basis_change_isometries, 2 * 2 * cfg.isometry_random_classes),
    ):
        drawn.clear()
        assert check(cfg).passed
        assert len(drawn) == count and not any(map(any, drawn))
    drawn.clear()
    assert selfcheck.check_negative_curve_adjunction(cfg).passed
    assert max(abs(x) for c in drawn for x in c) == 4


def test_results_are_deterministic():
    first = run_selfcheck(QUICK)
    second = run_selfcheck(QUICK)
    assert first == second


def test_threads_see_the_serial_results():
    # the package promises unrestricted concurrent use: four threads, started
    # together, each run one enumeration and the quick selfcheck
    cells = [(7, -1), (8, -2), (9, -1), (9, -2)]
    start = threading.Barrier(len(cells))

    def work(cell, wait=False):
        if wait:
            start.wait(timeout=60)
        r, self_int = cell
        return (
            enumerate_negative_rational_classes(blowup_p2_lattice(r), self_int, 6),
            run_selfcheck(QUICK),
        )

    serial = [work(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=len(cells)) as pool:
        threaded = list(pool.map(work, cells, [True] * len(cells)))
    assert threaded == serial


def test_config_round_trip():
    cfg = SelfcheckConfig.from_json_dict(QUICK.to_json_dict())
    assert cfg == QUICK


def test_unknown_key_rejected():
    with pytest.raises(NSLatticeError):
        SelfcheckConfig.from_json_dict({"no_such_knob": 1})


def test_default_config_matches_acceptance_bounds():
    cfg = SelfcheckConfig()
    assert cfg.anticanonical_n_max == 50
    assert cfg.uniqueness_n_max == 10 and cfg.uniqueness_a_max == 10
    assert cfg.monoid_n_max == 6 and cfg.monoid_coeff_bound == 8 and cfg.monoid_copies == 16
    assert cfg.random_classes == 10_000
    assert cfg.family_n_max == 20 and cfg.family_r_max == 12
    assert cfg.isometry_random_classes == 1_000
    assert cfg.enum_r_max == 8
    assert cfg.enum_degree_bound == 7 and cfg.enum_stability_bound == 12


def _drop_last_at_the_raised_bound(f):
    # the stability run at the higher degree bound loses a class
    return lambda lat, s, bound: f(lat, s, bound)[: -1 if bound > QUICK.enum_degree_bound else None]


# each check with wrong answers of the names it calls: (object, name, wrapper,
# the opening words of the failures that wrong answer must reach)
WRONG = {
    "monoid_bruteforce_equivalence": [
        (selfcheck, "is_effective", lambda f: lambda n, a, b: True, ["effective mismatch"]),
        (selfcheck, "nef_decompose", lambda f: lambda n, a, b: None, ["nef mismatch"]),
        (selfcheck, "is_effective", lambda f: lambda n, a, b: False, ["nef class not effective"]),
    ],
    "monoid_minimal_generation": [
        (selfcheck, "effective_generators", lambda f: lambda n: (f(n)[0], f(n)[0]),
         ["effective generators dependent"]),
    ],
    "fixed_mobile_uniqueness": [
        (selfcheck, "fixed_mobile_decompose", lambda f: lambda n, a, b: SimpleNamespace(j=0),
         ["closed form disagrees"]),
    ],
    "anticanonical_fixed_locus_sweep": [
        (selfcheck, "anticanonical_fixed_locus", lambda f: lambda n: f(n + 1),
         ["decomposition does not resum", "unexpected fixed part", "mobile part wrong"]),
        (selfcheck, "anticanonical_fixed_locus", lambda f: lambda n: f(min(n, 2)),
         ["fixed part is not C_n"]),
    ],
    "adjunction_parity": [
        (SurfaceLattice, "canonical_pairing", lambda f: lambda lat, d: f(lat, d) + 1,
         ["odd adjunction"]),
    ],
    "lattice_invariants": [
        (selfcheck, "_inertia", lambda f: lambda gram: (*f(gram)[:3], 2),
         ["Gram determinant not unimodular"]),
        (selfcheck, "_inertia", lambda f: lambda gram: (1, 0, 0, f(gram)[3]),
         ["signature not (1, rank-1)"]),
        (SurfaceLattice, "self_intersection", lambda f: lambda lat, d: f(lat, d) + 1, ["K.K = "]),
    ],
    "canonical_convention": [
        (SurfaceLattice, "arithmetic_genus", lambda f: lambda lat, d: f(lat, d) + 1, ["p_a("]),
    ],
    "basis_change_isometries": [
        (selfcheck, "basis_change_to_p2", lambda f: lambda lat, d: f(lat, d) * 2,
         ["canonical class not preserved", "basis pairing broken", "random pairing broken"]),
    ],
    "minus_one_enumeration_stability": [
        (selfcheck, "enumerate_negative_rational_classes",
         lambda f: lambda lat, s, bound: f(lat, s, bound)[:-1], ["count at r="]),
        (selfcheck, "enumerate_negative_rational_classes", _drop_last_at_the_raised_bound,
         ["count changed"]),
        (selfcheck, "enumerate_negative_rational_classes",
         lambda f: lambda lat, s, bound: [lat.zero_class(), *f(lat, s, bound)], ["bad class"]),
        (SurfaceLattice, "canonical_pairing", lambda f: lambda lat, d: f(lat, d) + 1,
         ["adjunction broken"]),
    ],
    "classifier_theorem_cases": [
        (selfcheck, "forced_fixed_components", lambda f: lambda model: f(model)[:-1],
         ["forced fixed components wrong"]),
        (selfcheck, "forced_fixed_components", lambda f: lambda model: list(model.curves),
         ["unexpected forced fixed component"]),
        (selfcheck, "classify_fixed_component",
         lambda f: lambda model, w: FixedComponentKind(THEOREM_VIOLATION, reason="wrong"),
         ["anticanonical class on the 9-fold blowup misclassified", "C_n misclassified"]),
        (selfcheck, "classify_fixed_component",
         lambda f: lambda model, w: FixedComponentKind(GENUS_ONE, self_int=0),
         ["synthetic genus-one class accepted"]),
    ],
    "negative_curve_adjunction": [
        (SurfaceLattice, "canonical_pairing", lambda f: lambda lat, d: f(lat, d) + 1,
         ["adjunction identity broken", "K.D = "]),
        # no class qualifies, so the sampler stops at its cap of 500 draws per class:
        # every head's genus is 10**6, which no tail (at most 10 per coordinate)
        # brings to 0, so the head screen passes none
        (SurfaceLattice, "_genus", lambda f: lambda lat, c: 10**6, ["only 0 qualifying"]),
        # the screening kernel is off by one: the public pairings it hands on disagree
        (SurfaceLattice, "_genus", lambda f: lambda lat, c: f(lat, c) - 1,
         ["adjunction identity broken"]),
    ],
}


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__)
def test_every_check_reports_a_wrong_answer(monkeypatch, check):
    # an oracle that cannot fail proves nothing: every wrong answer fails the
    # check and reaches each failure line named beside it
    name = check(QUICK).name
    result = selfcheck._result
    failures = []

    def spy(name, found, detail):
        failures.extend(found)
        return result(name, found, detail)

    for owner, attr, wrong, messages in WRONG[name]:
        failures.clear()
        with monkeypatch.context() as patch:
            patch.setattr(selfcheck, "_result", spy)
            patch.setattr(owner, attr, wrong(getattr(owner, attr)))
            got = check(QUICK)
        assert got.name == name and got.passed is False
        assert re.match(r"[1-9][0-9]* failures; first: ", got.detail), got.detail
        for message in messages:
            assert any(f.startswith(message) for f in failures), (message, failures[:3])


# configs the checks would get wrong, crash on or work long on: the key each must name
UNCHECKABLE = {
    "monoid-copies": ({"monoid_copies": 1}, "monoid_copies"),
    "stability-bound": ({"enum_stability_bound": 5}, "enum_stability_bound"),
    "coeff-bound": ({"random_coeff_bound": -1}, "random_coeff_bound"),
    "empty-pool": ({"family_n_max": -1, "family_r_max": -1}, "family_n_max"),
    "float-count": ({"random_classes": 2.5}, "random_classes"),
    "string-r": ({"enum_r_max": "x"}, "enum_r_max"),
    "enum-budget": ({"enum_r_max": 11}, "enum_r_max"),
    "blowup-bound": ({"family_n_max": 0, "family_r_max": 20_000}, "family_r_max"),
    "unknown-key": ({"random_clases": 50}, "unknown selfcheck config keys: \\['random_clases'\\]"),
}


@pytest.mark.parametrize("kwargs,key", UNCHECKABLE.values(), ids=UNCHECKABLE.keys())
def test_constructor_refuses_what_the_json_reader_refuses(kwargs, key):
    with pytest.raises(InputError, match=key):
        SelfcheckConfig(**kwargs)
    with pytest.raises(InputError, match=key):
        SelfcheckConfig.from_json_dict(kwargs)


def test_replace_is_checked_too():
    with pytest.raises(InputError, match="enum_r_max"):
        dataclasses.replace(SelfcheckConfig(), enum_r_max=9)


KEYS = [f.name for f in dataclasses.fields(SelfcheckConfig)]
VALUES = st.one_of(st.integers(-3, 20), st.sampled_from(["1", 1.5, True, None]))


def _outcome(build):
    try:
        return build()
    except InputError as exc:
        # the key the message names first
        return min((str(exc).find(k), k) for k in KEYS if k in str(exc))[1]


@given(st.fixed_dictionaries({}, optional=dict.fromkeys(KEYS, VALUES)))
def test_json_reader_and_constructor_agree(doc):
    # equal configs, or InputError naming the same key; never another exception
    from_json = _outcome(lambda: SelfcheckConfig.from_json_dict(doc))
    built = _outcome(lambda: SelfcheckConfig(**{k: v for k, v in doc.items() if v is not None}))
    assert from_json == built
