"""Per-layer probes: each times the benchmark's call into one public function
of one nslattice layer, on fixed inputs, so that the numbers of two commits
compare call for call.  Every probe reports the median of several repeats.

The probes whose results can be checked are: the enumerations (by the
enumerate_sweep gate), the selfcheck checks (each must pass) and the
in-process CLI calls (each must exit 0).  A probe that fails appends a message
to ``problems`` and the run counts it as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import timeit
from pathlib import Path
from time import perf_counter

import workloads

REPEATS = 5
TARGET_S = 0.01  # wall time of one repeat of a sub-millisecond probe


def per_call_s(stmt: str, ns: dict) -> float:
    """Median seconds per call of ``stmt`` (the probe loop's cost included)."""
    timer = timeit.Timer(stmt, globals=ns)
    once = timer.timeit(10) / 10
    number = max(1, int(TARGET_S / max(once, 1e-9)))
    return statistics.median(timer.repeat(REPEATS, number)) / number


def _models(lib):
    """Bl_9 P^2 with witnesses: the exceptional curves, lines and -K."""
    lat = lib.blowup_p2_lattice(9)
    exceptional = [lat.basis_class(i).coeffs for i in range(1, 10)]
    lines = [(1,) + tuple(-int(k in (i, i + 1)) for k in range(1, 10)) for i in range(1, 9)]
    minus_k = tuple(-c for c in lat.canonical.coeffs)

    def doc(coeffs):
        return {"lattice": {"family": "blowup_p2", "r": 9},
                "curves": [{"coeffs": list(c), "prime": True} for c in coeffs]}

    return {
        "w0": doc([]),
        "w8": doc(exceptional[:8]),
        "w16": doc(exceptional[:8] + lines),
        "w10": doc(exceptional + [minus_k]),
    }


def lattice_probes(lib) -> dict:
    lats = {
        "r2": lib.hirzebruch_lattice(3),
        "r10": lib.blowup_p2_lattice(9),
        "r14": lib.blowup_hirzebruch_lattice(2, 12),
    }
    out = {}
    ns = {"DivisorClass": lib.DivisorClass, "t": (5, -2, -2, -1, -1, -1, -1, 0, 0, 1)}
    out["lattice.DivisorClass_ns"] = per_call_s("DivisorClass(t)", ns) * 1e9
    for tag, lat in lats.items():
        d = lib.DivisorClass(tuple((3, -1, 2, -2)[i % 4] for i in range(lat.rank)))
        ns = {"lat": lat, "d": d, "e": lib.DivisorClass(tuple(range(lat.rank)))}
        out[f"lattice.intersect_ns.{tag}"] = per_call_s("lat.intersect(d, e)", ns) * 1e9
        out[f"lattice.arithmetic_genus_ns.{tag}"] = per_call_s("lat.arithmetic_genus(d)", ns) * 1e9
        if tag == "r10":
            out["lattice.euler_characteristic_ns.r10"] = (
                per_call_s("lat.euler_characteristic(d)", ns) * 1e9
            )
            out["lattice.h0_lower_bound_ns.r10"] = per_call_s("lat.h0_lower_bound(d)", ns) * 1e9
    for tag, stmt in (
        ("hirzebruch", "make_lattice('hirzebruch', n=5)"),
        ("blowup_p2_r9", "make_lattice('blowup_p2', r=9)"),
        ("blowup_hirzebruch_r12", "make_lattice('blowup_hirzebruch', n=2, r=12)"),
    ):
        ns = {"make_lattice": lib.make_lattice}
        out[f"lattice.make_lattice_us.{tag}"] = per_call_s(stmt, ns) * 1e6
    return out


ENUM_CASES = (("r8_s-1_b7", 8, -1, 7), ("r9_s-1_b7", 9, -1, 7), ("r10_s-1_b5", 10, -1, 5),
              ("r9_s-2_b7", 9, -2, 7), ("r10_s-2_b5", 10, -2, 5))


def enumerate_probes(lib, problems: list[str]) -> dict:
    out, classes = {}, 0
    for tag, r, s, bound in ENUM_CASES:
        lat = lib.blowup_p2_lattice(r)
        times = []
        for _ in range(3):
            t0 = perf_counter()
            found = lib.enumerate_negative_rational_classes(lat, s, bound)
            times.append(perf_counter() - t0)
            problem = workloads.check_enumeration(r, s, bound, found)
            if problem:
                problems.append(f"enumerate probe {tag}: {problem}")
        out[f"lattice.enumerate_ms.{tag}"] = statistics.median(times) * 1e3
        classes += len(found)
    out["lattice.enumerate.classes"] = classes
    return out


def hirzebruch_probes(lib) -> dict:
    ns = {name: getattr(lib, name) for name in
          ("is_effective", "nef_decompose", "fixed_mobile_decompose", "anticanonical_fixed_locus")}
    return {
        "hirzebruch.is_effective_ns": per_call_s("is_effective(3, 2, 5)", ns) * 1e9,
        "hirzebruch.nef_decompose_ns": per_call_s("nef_decompose(3, 2, 7)", ns) * 1e9,
        "hirzebruch.fixed_mobile_decompose_ns": (
            per_call_s("fixed_mobile_decompose(3, 2, 4)", ns) * 1e9
        ),
        "hirzebruch.anticanonical_fixed_locus_ns": (
            per_call_s("anticanonical_fixed_locus(10)", ns) * 1e9
        ),
    }


def blowup_probes(lib) -> dict:
    docs = _models(lib)
    out = {}
    for tag in ("w0", "w8", "w16"):
        ns = {"model_from_json": lib.model_from_json, "doc": docs[tag]}
        out[f"blowup.model_from_json_us.{tag}"] = per_call_s("model_from_json(doc)", ns) * 1e6
    model = lib.model_from_json(docs["w10"])
    ns = {
        "lib": lib,
        "model": model,
        "d": lib.DivisorClass((3, -1, -1, -1, -1, -1, -1, -1, 0, 0)),
        "w": model.curves[0],
        "h": lib.CurveWitness(lib.blowup_p2_lattice(9).basis_class(0)),
    }
    for name, stmt in (
        ("nef_against_witnesses", "lib.nef_against_witnesses(model, d)"),
        ("forced_fixed_components", "lib.forced_fixed_components(model)"),
        ("classify_fixed_component", "lib.classify_fixed_component(model, w)"),
        ("anticanonical_consequence_check", "lib.anticanonical_consequence_check(model, False)"),
        ("lemma_move_check", "lib.lemma_move_check(model, h)"),
    ):
        out[f"blowup.{name}_us"] = per_call_s(stmt, ns) * 1e6
    return out


def selfcheck_probes(lib, seed: int, problems: list[str]) -> dict:
    """Each member of ALL_CHECKS on its own, on the default config."""
    cfg = lib.SelfcheckConfig(seed=seed)
    out = {}
    for check in lib.selfcheck.ALL_CHECKS:
        t0 = perf_counter()
        res = check(cfg)
        out[f"selfcheck.{res.name}_s"] = perf_counter() - t0
        if res.passed is not True:
            problems.append(f"selfcheck probe {res.name} failed: {res.detail}")
        elif res.name == "negative_curve_adjunction":
            # the detail of a passing check reads "<accepted> classes with ..."
            out["selfcheck.negative_curve_adjunction.accepted"] = int(res.detail.split()[0])
    return out


def run_in_process(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


CLI_PAIRS = 10

MAIN_ARGVS = {
    "intersect": ["intersect", "--family", "blowup_p2", "--r", "6", "--d1=3,-1,-1,-1,-1,-1,-1",
                  "--d2=1,-1,0,0,0,0,0"],
    "genus": ["genus", "--family", "blowup_hirzebruch", "--n", "2", "--r", "3", "--d=2,3,-1,-1,0"],
    "chi": ["chi", "--family", "hirzebruch", "--n", "4", "--d=2,5"],
    "h0-bound": ["h0-bound", "--family", "blowup_p2", "--r", "4", "--d=4,-1,-1,-2,0"],
    "basis-change": ["basis-change", "--family", "blowup_hirzebruch", "--n", "0", "--r", "1",
                     "--d=2,3,-1"],
    "enumerate": ["enumerate", "--r", "6", "--self-int=-1"],
    "hirzebruch.effective": ["hirzebruch", "effective", "--n", "3", "--a", "2", "--b", "5"],
    "hirzebruch.nef": ["hirzebruch", "nef", "--n", "3", "--a", "2", "--b", "5"],
    "hirzebruch.fixed-mobile": ["hirzebruch", "fixed-mobile", "--n", "3", "--a", "2", "--b", "5"],
    "hirzebruch.anticanonical": ["hirzebruch", "anticanonical", "--n", "10"],
    "blowup.nef-test": ["blowup", "nef-test", "--d=3,-1,-1,-1,-1,-1,-1,-1,0,0"],
    "blowup.forced-fixed": ["blowup", "forced-fixed"],
    "blowup.classify": ["blowup", "classify", "--d=0,1,0,0,0,0,0,0,0,0"],
    "blowup.consequences": ["blowup", "consequences"],
    "blowup.lemma-move": ["blowup", "lemma-move", "--d=1,0,0,0,0,0,0,0,0,0"],
}


def cli_probes(lib, workdir: Path, problems: list[str]) -> dict:
    import nslattice.cli as cli

    model_path = workdir / "probe_model.json"
    model_path.write_text(json.dumps(_models(lib)["w10"]))
    child = workloads.Child(lib)
    bare, imports = [], []
    for k in range(CLI_PAIRS):
        pair = (["-c", "pass"], ["-c", "import nslattice.cli"])
        times = {argv[1]: child.run(argv)[0] for argv in (pair if k % 2 else pair[::-1])}
        bare.append(times["pass"])
        imports.append(times["import nslattice.cli"] - times["pass"])
    out = {
        "cli.bare_python_ms": statistics.median(bare) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.build_parser_us": per_call_s("build_parser()", {"build_parser": cli.build_parser})
        * 1e6,
    }
    for tag, argv in MAIN_ARGVS.items():
        if argv[0] == "blowup":
            argv = argv + ["--json", str(model_path)]
        times = []
        for _ in range(REPEATS * 2):
            t0 = perf_counter()
            code, _ = run_in_process(cli, argv)
            times.append(perf_counter() - t0)
            if code != 0:
                problems.append(f"in-process `nslattice {' '.join(argv)}` exited {code}")
        out[f"cli.main_us.{tag}"] = statistics.median(times) * 1e6
    return out


def probe_all(lib, seed: int, workdir: Path, problems: list[str]) -> dict:
    out = {}
    out.update(lattice_probes(lib))
    out.update(enumerate_probes(lib, problems))
    out.update(hirzebruch_probes(lib))
    out.update(blowup_probes(lib))
    out.update(selfcheck_probes(lib, seed, problems))
    out.update(cli_probes(lib, workdir, problems))
    return out
