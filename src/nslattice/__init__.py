"""Exact-integer divisor-class calculus on the lattices of rational surfaces.

The package models the based intersection lattices of Hirzebruch surfaces and
of blowups of the plane or of a Hirzebruch surface, and computes with divisor
classes on them: pairings, genera, Riemann-Roch bounds, effective and nef
monoid membership, fixed/mobile decompositions of complete linear systems,
negative-curve enumeration, and the classification of fixed components of
anticanonical systems.
"""

from .errors import (
    DimensionError, FamilyError, InputError, InvalidParameterError, LatticeCorruptionError,
    NotEffectiveError, NSLatticeError, PreconditionError,
)
from .lattice import (
    DivisorClass, Family, H0BoundAssumptionWarning, SurfaceLattice, basis_change_blf0_to_p2,
    basis_change_f1_to_p2, blowup_hirzebruch_lattice, blowup_p2_lattice, determinant,
    divisor_from_json, enumerate_negative_rational_classes, hirzebruch_lattice,
    lattice_from_json, make_lattice, signature,
)

__version__ = "0.1.0"

# PEP 562: these modules are imported on first use, so that importing the
# package, and so each CLI call, builds only what it runs.  The first lookup
# binds the module and all its names here at once, so later lookups are plain
# attribute reads and every name comes from the same copy of its module.
_LAZY = {
    "hirzebruch": (
        "EffectiveWitness", "FixedMobileDecomposition", "HirzebruchClass", "NefDecomposition",
        "NotNef", "anticanonical_class", "anticanonical_fixed_locus", "effective_generators",
        "fixed_mobile_decompose", "is_effective", "nef_decompose", "nef_generators",
    ),
    "blowup": (
        "GENUS_ONE", "NEGATIVE_RATIONAL", "THEOREM_VIOLATION", "CurveWitness",
        "FixedComponentKind", "NefVerdict", "Report", "SurfaceModel",
        "anticanonical_consequence_check", "classify_fixed_component", "forced_fixed_components",
        "lemma_move_check", "model_from_json", "nef_against_witnesses", "witness_from_json",
    ),
    "selfcheck": ("CheckResult", "SelfcheckConfig", "run_selfcheck"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mod = importlib.import_module(f"{__name__}.{module}")
    namespace = globals()
    namespace.update({n: getattr(mod, n) for n in _LAZY[module]}, **{module: mod})
    return namespace[name]


__all__ = [
    "CheckResult",
    "CurveWitness",
    "DimensionError",
    "DivisorClass",
    "EffectiveWitness",
    "Family",
    "FamilyError",
    "FixedComponentKind",
    "FixedMobileDecomposition",
    "GENUS_ONE",
    "H0BoundAssumptionWarning",
    "HirzebruchClass",
    "InputError",
    "InvalidParameterError",
    "LatticeCorruptionError",
    "NEGATIVE_RATIONAL",
    "NSLatticeError",
    "NefDecomposition",
    "NefVerdict",
    "NotEffectiveError",
    "NotNef",
    "PreconditionError",
    "Report",
    "SelfcheckConfig",
    "SurfaceLattice",
    "SurfaceModel",
    "THEOREM_VIOLATION",
    "anticanonical_class",
    "anticanonical_consequence_check",
    "anticanonical_fixed_locus",
    "basis_change_blf0_to_p2",
    "basis_change_f1_to_p2",
    "blowup_hirzebruch_lattice",
    "blowup_p2_lattice",
    "classify_fixed_component",
    "determinant",
    "divisor_from_json",
    "effective_generators",
    "enumerate_negative_rational_classes",
    "fixed_mobile_decompose",
    "forced_fixed_components",
    "hirzebruch_lattice",
    "is_effective",
    "lattice_from_json",
    "lemma_move_check",
    "make_lattice",
    "model_from_json",
    "nef_against_witnesses",
    "nef_decompose",
    "nef_generators",
    "run_selfcheck",
    "signature",
    "witness_from_json",
]
