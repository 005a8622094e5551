"""The benchmark's workloads: seeded inputs, the timed calls, and their gates.

Each workload is built from ``(lib, seed, workdir, tiny)``: ``lib`` is the
imported ``nslattice`` package, and the constructor generates a fixed pool of
``size`` inputs (its cost is the set-up time).  ``request(k, tracer)`` makes
the timed calls on input ``k`` and returns an ``Outcome``; ``check(k,
result)`` returns ``None`` when the result is right and a message when it is
not.  ``tiny`` shrinks the inputs so that the self-test runs every workload in
seconds.

The seed draws the coefficients of the inputs, while the mix of families,
ranks and witness counts is laid out by input index, so that the cost of a
pool barely depends on the seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle

FAMILIES = (oracle.HIRZEBRUCH, oracle.BLOWUP_P2, oracle.BLOWUP_HIRZEBRUCH)


@dataclass
class Outcome:
    latency_s: float  # the wall time a user of the layer waits for
    units: int  # work units done, for throughput
    result: object
    ref_latency_s: float | None = None  # paired reference request, if any


# -- selfcheck_default -------------------------------------------------------

SELFCHECK_NAMES = (
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
)

TINY_SELFCHECK = dict(
    anticanonical_n_max=6,
    uniqueness_n_max=3,
    uniqueness_a_max=3,
    monoid_n_max=2,
    monoid_coeff_bound=3,
    monoid_copies=6,
    random_classes=40,
    family_n_max=3,
    family_r_max=3,
    isometry_random_classes=20,
    enum_r_max=6,
    enum_stability_bound=8,
)


class SelfcheckDefault:
    """``run_selfcheck(SelfcheckConfig(seed=seed))``, as ``nslattice selfcheck`` runs it."""

    unit = "selfcheck runs"
    size = 1
    min_passes = 3
    ticked = True  # a request takes seconds; time the reference during it

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool = False):
        self.lib = lib
        self.cfg = lib.SelfcheckConfig(seed=seed, **(TINY_SELFCHECK if tiny else {}))

    def request(self, i, tracer) -> Outcome:
        t0 = perf_counter()
        with tracer.span("selfcheck.run_selfcheck"):
            results = self.lib.run_selfcheck(self.cfg)
        return Outcome(perf_counter() - t0, 1, results)

    def check(self, i, results) -> str | None:
        names = tuple(res.name for res in results)
        if names != SELFCHECK_NAMES:
            return f"selfcheck ran {names}, expected the 11 checks {SELFCHECK_NAMES}"
        failed = [f"{res.name}: {res.detail}" for res in results if res.passed is not True]
        return f"selfcheck checks failed: {failed}" if failed else None


# -- enumerate_sweep ---------------------------------------------------------

# (-1) and (-2) counts at degree bound 7 for r <= 9, and at bound 5 for
# r = 10 as the library reports them at the commit that added this benchmark
ENUM_COUNTS = {
    -1: (1, 3, 6, 10, 16, 27, 56, 240, 4788, 10112),
    -2: (0, 2, 7, 16, 30, 51, 84, 148, 636, 3310),
}


def degree_bound(r: int) -> int:
    return 7 if r <= 9 else 5


def verify_classes(r: int, self_int: int, bound: int, coeffs_list) -> str | None:
    """Every class has the size, self-intersection, genus and bounds asked
    for, and the list is strictly increasing (sorted, no duplicates)."""
    prev = None
    for coeffs in coeffs_list:
        if len(coeffs) != r + 1:
            return f"class {coeffs} has rank {len(coeffs)}, expected {r + 1}"
        d = coeffs[0]
        if coeffs[0] * coeffs[0] - sum(e * e for e in coeffs[1:]) != self_int:
            return f"class {coeffs} does not have self-intersection {self_int}"
        if oracle.plane_genus(coeffs) != 0:
            return f"class {coeffs} does not have arithmetic genus 0"
        if not 0 <= d <= bound or any(abs(e) > bound for e in coeffs[1:]):
            return f"class {coeffs} is outside the degree bound {bound}"
        if prev is not None and not prev < coeffs:
            return f"classes {prev} and {coeffs} are out of order or repeated"
        prev = coeffs
    return None


class EnumerateSweep:
    """``enumerate_negative_rational_classes`` on each cell of self_int x r,
    visited in seeded order; one request enumerates one cell."""

    unit = "classes"
    min_passes = 3

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool = False):
        self.lib = lib
        cells = [(s, r) for s in (-1, -2) for r in range(1, 7 if tiny else 11)]
        random.Random(seed).shuffle(cells)
        self.cells = [(s, r, degree_bound(r), lib.blowup_p2_lattice(r)) for s, r in cells]
        self.size = len(self.cells)

    def request(self, k, tracer) -> Outcome:
        s, _, bound, lat = self.cells[k]
        t0 = perf_counter()
        with tracer.span("lattice.enumerate_negative_rational_classes"):
            found = self.lib.enumerate_negative_rational_classes(lat, s, bound)
        return Outcome(perf_counter() - t0, len(found), found)

    def check(self, k, classes) -> str | None:
        s, r, bound, _ = self.cells[k]
        return check_enumeration(r, s, bound, classes)


def check_enumeration(r: int, self_int: int, bound: int, classes) -> str | None:
    """The gate on one cell at its degree bound: the recorded count, and
    every class re-verified."""
    expected = ENUM_COUNTS[self_int][r - 1]
    if bound != degree_bound(r):
        raise ValueError(f"no count recorded for r={r} at degree bound {bound}")
    if len(classes) != expected:
        return f"r={r}, self_int={self_int}: {len(classes)} classes, expected {expected}"
    problem = verify_classes(r, self_int, bound, [c.coeffs for c in classes])
    return f"r={r}, self_int={self_int}: {problem}" if problem else None


# -- api_build and api_query ---------------------------------------------------


def random_model(
    rng: random.Random, k: int, max_rank: int, max_witnesses: int
) -> oracle.Model:
    """Model ``k`` of a pool: the family, rank (<= max_rank) and witness
    count (<= max_witnesses) follow from ``k``, the coefficients from ``rng``.

    Witnesses asserted prime have p_a >= 0, so every model is valid input.
    """
    family, slot = FAMILIES[k % 3], k // 3
    n = None if family == oracle.BLOWUP_P2 else rng.randint(0, 12)
    r = {
        oracle.HIRZEBRUCH: None,
        oracle.BLOWUP_P2: slot % max_rank,
        oracle.BLOWUP_HIRZEBRUCH: slot % (max_rank - 1),
    }[family]
    size = oracle.rank(family, r)
    curves = []
    for _ in range((5 * slot + k) % (max_witnesses + 1)):
        x = tuple(rng.randint(-2, 3) for _ in range(size))
        if rng.random() < 0.3:
            basis = rng.randrange(size)
            x = tuple(int(j == basis) for j in range(size))
        curves.append((x, oracle.genus(family, n, r, x) >= 0))
    return oracle.Model(family, n, r, curves)


class ApiBuild:
    """``model_from_json`` on fresh seeded documents: rank <= 14, 0-16 witnesses."""

    unit = "models"
    min_passes = 2

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool = False):
        self.lib = lib
        self.size = 16 if tiny else 512
        rng = random.Random(seed)
        self.models = [random_model(rng, k, 14, 16) for k in range(self.size)]
        self.docs = [m.doc() for m in self.models]

    def request(self, k, tracer) -> Outcome:
        doc = self.docs[k]
        t0 = perf_counter()
        with tracer.span("blowup.model_from_json"):
            model = self.lib.model_from_json(doc)
        return Outcome(perf_counter() - t0, 1, model)

    def check(self, k, model) -> str | None:
        want = self.models[k]
        lat = model.lattice
        got = (lat.family.value, lat.n, lat.r, lat.rank, lat.canonical.coeffs, lat.gram)
        expected = (
            want.family,
            want.n,
            want.r,
            want.rank,
            want.k,
            oracle.gram(want.family, want.n, want.r),
        )
        if got != expected:
            return f"lattice {got} != {expected}"
        curves = [(w.cls.coeffs, w.asserted_prime) for w in model.curves]
        if curves != want.curves:
            return f"witnesses {curves} != {want.curves}"
        genera = [lat.arithmetic_genus(w.cls) for w in model.curves]
        if genera != [want.genus(c) for c, _ in want.curves]:
            return f"witness genera {genera} disagree with the oracle"
        return None


QUERY_OPS = 11


class ApiQuery:
    """The witness, classifier, monoid and basis-change queries against a
    pool of models built in set-up; one request makes all 11 calls."""

    unit = "queries"
    min_passes = 2

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool = False):
        self.lib = lib
        self.size = 16 if tiny else 4096
        rng = random.Random(seed)
        self.models = []
        for k in range(4 if tiny else 512):
            # ranks up to 14 include K.K < 0 and rank > 10, so every verdict
            # of anticanonical_consequence_check occurs in the pool
            m = random_model(rng, k, 14, 12)
            # a basis curve has p_a = 0, so every model has a prime witness
            m.curves.append((tuple(int(j == m.rank - 1) for j in range(m.rank)), True))
            self.models.append((m, lib.model_from_json(m.doc())))
        self.f1 = lib.hirzebruch_lattice(1)
        self.blf0 = lib.blowup_hirzebruch_lattice(0, 1)
        self.inputs = [self._draw(rng, k % len(self.models)) for k in range(self.size)]

    def _draw(self, rng: random.Random, k: int) -> dict:
        m, model = self.models[k]
        primes = [w for w in model.curves if w.asserted_prime]
        n = rng.randint(0, 12)
        return dict(
            k=k,
            d=self.lib.DivisorClass(tuple(rng.randint(-4, 6) for _ in range(m.rank))),
            witness=rng.choice(primes),
            moving=self.lib.CurveWitness(
                self.lib.DivisorClass(tuple(rng.randint(-2, 5) for _ in range(m.rank)))
            ),
            complete=rng.random() < 0.5,
            nab=(n, rng.randint(0, 12), rng.randint(0, 40)),
            signed=(n, rng.randint(-4, 12), rng.randint(-8, 40)),
            ac_n=rng.randint(0, 50),
            f1=self.lib.DivisorClass((rng.randint(-9, 9), rng.randint(-9, 9))),
            blf0=self.lib.DivisorClass(tuple(rng.randint(-9, 9) for _ in range(3))),
        )

    def request(self, k, tracer) -> Outcome:
        lib, q = self.lib, self.inputs[k]
        model = self.models[q["k"]][1]
        span = tracer.span
        t0 = perf_counter()
        with span("blowup.nef_against_witnesses"):
            nef = lib.nef_against_witnesses(model, q["d"])
        with span("blowup.forced_fixed_components"):
            forced = lib.forced_fixed_components(model)
        with span("blowup.classify_fixed_component"):
            kind = lib.classify_fixed_component(model, q["witness"])
        with span("blowup.anticanonical_consequence_check"):
            report = lib.anticanonical_consequence_check(model, q["complete"])
        with span("blowup.lemma_move_check"):
            lemma = lib.lemma_move_check(model, q["moving"])
        with span("hirzebruch.fixed_mobile_decompose"):
            fixed_mobile = lib.fixed_mobile_decompose(*q["nab"])
        with span("hirzebruch.nef_decompose"):
            nef_dec = lib.nef_decompose(*q["signed"])
        with span("hirzebruch.is_effective"):
            effective = lib.is_effective(*q["signed"])
        with span("hirzebruch.anticanonical_fixed_locus"):
            ac_locus = lib.anticanonical_fixed_locus(q["ac_n"])
        with span("lattice.basis_change_f1_to_p2"):
            f1 = lib.basis_change_f1_to_p2(self.f1, q["f1"])
        with span("lattice.basis_change_blf0_to_p2"):
            blf0 = lib.basis_change_blf0_to_p2(self.blf0, q["blf0"])
        latency = perf_counter() - t0
        result = (nef, forced, kind, report, lemma, fixed_mobile, nef_dec, effective,
                  ac_locus, f1, blf0)
        return Outcome(latency, QUERY_OPS, result)

    def check(self, k, result) -> str | None:
        q = self.inputs[k]
        m = self.models[q["k"]][0]
        nef, forced, kind, report, lemma, fixed_mobile, nef_dec, effective, ac_locus, f1, blf0 = result
        n, a, b = q["nab"]
        sn, sa, sb = q["signed"]
        j, ac_j = oracle.fixed_multiple(n, a, b), oracle.fixed_multiple(q["ac_n"], 2, q["ac_n"] + 2)
        kind_doc = kind.to_json_dict()
        kind_doc.pop("reason", None)
        if getattr(nef_dec, "violator", None) is not None:
            nef_dec = ("not", nef_dec.violator, nef_dec.pairing)
        else:
            nef_dec = ("nef", nef_dec.s, nef_dec.t)
        pairs = (
            ("nef_against_witnesses", nef.to_json_dict(),
             oracle.nef_against_witnesses(m, q["d"].coeffs)),
            ("forced_fixed_components", [list(w.cls.coeffs) for w in forced],
             oracle.forced_fixed_components(m)),
            ("classify_fixed_component", kind_doc,
             oracle.classify_fixed_component(m, q["witness"].cls.coeffs)),
            ("anticanonical_consequence_check", (report.verdict, len(report.violators)),
             oracle.anticanonical_consequence_check(m)),
            ("lemma_move_check", lemma.verdict,
             oracle.lemma_move_check(m, q["moving"].cls.coeffs)),
            ("fixed_mobile_decompose",
             (fixed_mobile.j, fixed_mobile.fixed.to_json_dict(), fixed_mobile.mobile.to_json_dict()),
             (j, {"n": n, "a": j, "b": 0}, {"n": n, "a": a - j, "b": b})),
            ("nef_decompose", nef_dec, oracle.nef_decompose(sn, sa, sb)),
            ("is_effective", (effective.effective, effective.multiplicities),
             oracle.is_effective(sn, sa, sb)),
            ("anticanonical_fixed_locus", (ac_locus.j, ac_locus.mobile.a, ac_locus.mobile.b),
             (ac_j, 2 - ac_j, q["ac_n"] + 2)),
            ("basis_change_f1_to_p2", f1.coeffs, oracle.basis_change_f1_to_p2(q["f1"].coeffs)),
            ("basis_change_blf0_to_p2", blf0.coeffs,
             oracle.basis_change_blf0_to_p2(q["blf0"].coeffs)),
        )
        for name, got, expected in pairs:
            if got != expected:
                return f"{name}: {got!r} != oracle {expected!r}"
        return None


# -- cli_oneshot -------------------------------------------------------------


class Child:
    """Runs the interpreter in a child process with the library on its path."""

    def __init__(self, lib):
        src = Path(lib.__file__).resolve().parent.parent
        self.cwd = src.parent
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")

    def run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=self.cwd,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return perf_counter() - t0, proc


def _vec(values) -> str:
    return ",".join(str(v) for v in values)


def _lattice_args(rng: random.Random) -> tuple[list[str], int]:
    family = rng.choice(FAMILIES)
    if family == oracle.HIRZEBRUCH:
        return ["--family", family, "--n", str(rng.randint(0, 9))], 2
    if family == oracle.BLOWUP_P2:
        r = rng.randint(0, 9)
        return ["--family", family, "--r", str(r)], r + 1
    n, r = rng.randint(0, 9), rng.randint(0, 8)
    return ["--family", family, "--n", str(n), "--r", str(r)], r + 2


CLI_COMMANDS = (
    ("intersect",), ("genus",), ("chi",), ("h0-bound",), ("basis-change",), ("enumerate",),
    ("hirzebruch", "effective"), ("hirzebruch", "nef"), ("hirzebruch", "fixed-mobile"),
    ("hirzebruch", "anticanonical"),
    ("blowup", "nef-test"), ("blowup", "forced-fixed"), ("blowup", "classify"),
    ("blowup", "consequences"), ("blowup", "lemma-move"),
)


def random_cli_argv(
    rng: random.Random, command: tuple[str, ...], model_paths: list[tuple[Path, int]]
) -> list[str]:
    """A seeded invocation of ``command``, a subcommand other than ``selfcheck``."""
    kind = command[0]
    if kind == "intersect":
        args, size = _lattice_args(rng)
        d1 = [rng.randint(-5, 5) for _ in range(size)]
        d2 = [rng.randint(-5, 5) for _ in range(size)]
        return ["intersect", *args, f"--d1={_vec(d1)}", f"--d2={_vec(d2)}"]
    if kind in ("genus", "chi", "h0-bound"):
        args, size = _lattice_args(rng)
        return [kind, *args, f"--d={_vec(rng.randint(-5, 5) for _ in range(size))}"]
    if kind == "basis-change":
        if rng.random() < 0.5:
            return ["basis-change", "--family", "hirzebruch", "--n", "1",
                    f"--d={_vec(rng.randint(-9, 9) for _ in range(2))}"]
        return ["basis-change", "--family", "blowup_hirzebruch", "--n", "0", "--r", "1",
                f"--d={_vec(rng.randint(-9, 9) for _ in range(3))}"]
    if kind == "enumerate":
        return ["enumerate", "--r", str(rng.randint(1, 8)),
                f"--self-int={rng.choice((-1, -2))}", "--degree-bound", str(rng.randint(1, 7))]
    op = command[1]
    if kind == "hirzebruch":
        args = ["hirzebruch", op, "--n", str(rng.randint(0, 12))]
        if op == "fixed-mobile":
            args += ["--a", str(rng.randint(0, 12)), "--b", str(rng.randint(0, 40))]
        elif op != "anticanonical":
            args += [f"--a={rng.randint(-4, 12)}", f"--b={rng.randint(-8, 40)}"]
        return args
    path, size = rng.choice(model_paths)
    args = ["blowup", op, "--json", str(path)]
    if op == "classify":
        # classify needs a class with p_a >= 0 to be a valid prime witness
        args.append(f"--d={_vec(int(j == size - 1) for j in range(size))}")
    elif op in ("nef-test", "lemma-move"):
        args.append(f"--d={_vec(rng.randint(-3, 5) for _ in range(size))}")
    return args


def _flags(argv: list[str]) -> dict[str, str]:
    flags, rest = {}, iter(argv)
    for arg in rest:
        if arg.startswith("--"):
            key, eq, value = arg[2:].partition("=")
            flags[key] = value if eq else next(rest)
    return flags


def expected_document(lib, argv: list[str]) -> dict:
    """The JSON document ``nslattice <argv>`` should print, computed by
    calling the library in process; argv is one that random_cli_argv made."""
    f = _flags(argv)

    def vec(key):
        return lib.DivisorClass(tuple(int(x) for x in f[key].split(",")))

    command = argv[0]
    if command in ("intersect", "genus", "chi", "h0-bound", "basis-change"):
        n, r = (int(f[key]) if key in f else None for key in ("n", "r"))
        lat = lib.make_lattice(f["family"], n=n, r=r)
        if command == "intersect":
            return {"value": lat.intersect(vec("d1"), vec("d2"))}
        if command == "basis-change":
            if lat.family.value == oracle.HIRZEBRUCH:
                name, target, out = "f1_to_p2", 1, lib.basis_change_f1_to_p2(lat, vec("d"))
            else:
                name, target, out = "blf0_to_p2", 2, lib.basis_change_blf0_to_p2(lat, vec("d"))
            return {"map": name, "target": {"family": oracle.BLOWUP_P2, "r": target},
                    "coeffs": list(out.coeffs)}
        value = {"genus": lat.arithmetic_genus, "chi": lat.euler_characteristic,
                 "h0-bound": lat.h0_lower_bound}[command](vec("d"))
        return {"value": value}
    if command == "enumerate":
        r, s, bound = int(f["r"]), int(f["self-int"]), int(f["degree-bound"])
        found = lib.enumerate_negative_rational_classes(lib.blowup_p2_lattice(r), s, bound)
        return {"r": r, "self_int": s, "degree_bound": bound, "count": len(found),
                "classes": [c.to_json_dict() for c in found]}
    op = argv[1]
    if command == "hirzebruch":
        n = int(f["n"])
        if op == "anticanonical":
            ac, dec = lib.anticanonical_class(n), lib.anticanonical_fixed_locus(n)
            return {"n": n, "class": {"a": ac.a, "b": ac.b}, "j": dec.j,
                    "fixed": {"a": dec.fixed.a, "b": dec.fixed.b},
                    "mobile": {"a": dec.mobile.a, "b": dec.mobile.b}}
        a, b = int(f["a"]), int(f["b"])
        if op == "effective":
            w = lib.is_effective(n, a, b)
            return {"n": n, "a": a, "b": b, "effective": w.effective,
                    "multiplicities": list(w.multiplicities) if w.effective else None}
        if op == "nef":
            v = lib.nef_decompose(n, a, b)
            if isinstance(v, lib.NefDecomposition):
                return {"n": n, "a": a, "b": b, "nef": True, "s": v.s, "t": v.t}
            return {"n": n, "a": a, "b": b, "nef": False, "violator": v.violator,
                    "pairing": v.pairing}
        dec = lib.fixed_mobile_decompose(n, a, b)
        return {"n": n, "j": dec.j, "fixed": {"a": dec.fixed.a, "b": dec.fixed.b},
                "mobile": {"a": dec.mobile.a, "b": dec.mobile.b}}
    payload = json.loads(Path(f["json"]).read_text())
    model = lib.model_from_json(payload)
    if op == "forced-fixed":
        return {"forced_fixed_components":
                [w.to_json_dict() for w in lib.forced_fixed_components(model)]}
    if op == "consequences":
        return lib.anticanonical_consequence_check(model, payload["witness_complete"]).to_json_dict()
    verdict = {
        "nef-test": lambda: lib.nef_against_witnesses(model, vec("d")),
        "classify": lambda: lib.classify_fixed_component(model, lib.CurveWitness(vec("d"))),
        "lemma-move": lambda: lib.lemma_move_check(model, lib.CurveWitness(vec("d"))),
    }[op]()
    return verdict.to_json_dict()


# pool indices of the models the blowup subcommands read: F_n, P^2, Bl_0 F_n and
# Bl_5 P^2 (K.K >= 0), then Bl_10 P^2 and Bl_12 F_n (K.K < 0)
CLI_MODELS = (0, 1, 2, 16, 31, 38)


class CliOneshot:
    """``python -m nslattice <cmd>``, one seeded invocation of every subcommand
    but ``selfcheck``, one child at a time, each paired with a bare
    ``python -c pass`` run; which of the pair runs first alternates."""

    unit = "invocations"
    min_passes = 2
    paired = True  # Outcome.ref_latency_s is the bare interpreter's time

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool = False):
        self.lib, self.child = lib, Child(lib)
        rng = random.Random(seed)
        model_paths = []
        for k in CLI_MODELS:
            m = random_model(rng, k, 14, 10)
            path = workdir / f"model{k}.json"
            path.write_text(json.dumps({**m.doc(), "witness_complete": rng.random() < 0.5}))
            model_paths.append((path, m.rank))
        self.commands = CLI_COMMANDS[::4] if tiny else CLI_COMMANDS
        self.argvs = [random_cli_argv(rng, c, model_paths) for c in self.commands]
        self.size = len(self.argvs)
        self.calls = 0

    def request(self, k, tracer) -> Outcome:
        argv = self.argvs[k]

        def bare() -> float:
            with tracer.span("python.bare"):
                latency, proc = self.child.run(["-c", "pass"])
            if proc.returncode != 0:
                raise RuntimeError(f"bare interpreter exited {proc.returncode}: {proc.stderr}")
            return latency

        self.calls += 1
        ref = bare() if self.calls % 2 else None
        with tracer.span("cli." + ".".join(self.commands[k])):
            latency, proc = self.child.run(["-m", "nslattice", *argv])
        if ref is None:
            ref = bare()
        return Outcome(latency, 1, (proc.returncode, proc.stdout, proc.stderr), ref)

    def check(self, k, result) -> str | None:
        argv = self.argvs[k]
        code, stdout, stderr = result
        command = f"`nslattice {' '.join(argv)}`"
        if code != 0:
            return f"{command} exited {code}: {stderr.strip()}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{command} printed {stdout!r}, not one JSON document"
        want = expected_document(self.lib, argv)
        if got != want:
            return f"{command} printed {got}; the library gives {want}"
        return None


WORKLOADS = {
    "selfcheck_default": SelfcheckDefault,
    "enumerate_sweep": EnumerateSweep,
    "api_build": ApiBuild,
    "api_query": ApiQuery,
    "cli_oneshot": CliOneshot,
}
