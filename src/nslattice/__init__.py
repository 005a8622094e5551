"""Exact-integer divisor-class calculus on the lattices of rational surfaces.

The package models the based intersection lattices of Hirzebruch surfaces and
of blowups of the plane or of a Hirzebruch surface, and computes with divisor
classes on them: pairings, genera, Riemann-Roch bounds, effective and nef
monoid membership, fixed/mobile decompositions of complete linear systems,
negative-curve enumeration, and the classification of fixed components of
anticanonical systems.
"""

__version__ = "0.1.0"

# every public name, under the module that defines it.  errors and values hold
# the exceptions, classes and families every module shares and are bound at
# import; the modules of _LAZY are imported on first use (PEP 562), so that
# importing the package, and so each CLI call, builds only what it runs.
# Binding a module binds all its names here at once, so later lookups are plain
# attribute reads and every name comes from the same copy of its module.  A lazy
# module can be loaded twice, when a caller drops it from sys.modules, so each
# identity test across modules (type(d) is DivisorClass, family is
# Family.BLOWUP_P2) reads an eager name.
_EAGER = {
    "errors": (
        "DimensionError", "FamilyError", "InputError", "InvalidParameterError",
        "NotEffectiveError", "NSLatticeError", "PreconditionError",
    ),
    "values": ("DivisorClass", "Family", "divisor_from_json"),
}
_LAZY = {
    "lattice": (
        "SurfaceLattice", "basis_change_blf0_to_p2", "basis_change_f1_to_p2", "basis_change_to_p2",
        "blowup_hirzebruch_lattice", "blowup_p2_lattice", "hirzebruch_lattice",
        "lattice_from_json", "make_lattice",
    ),
    "enumeration": ("enumerate_negative_rational_classes",),
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
_NAMES = {**_EAGER, **_LAZY}
__all__ = sorted(name for names in _NAMES.values() for name in names)


def _bind(module: str) -> None:
    import importlib

    mod = importlib.import_module(f"{__name__}.{module}")
    globals().update({n: getattr(mod, n) for n in _NAMES[module]}, **{module: mod})


for _module in _EAGER:
    _bind(_module)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]
