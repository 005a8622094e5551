"""Self-test of the benchmark: python3 perfbench/selftest.py

1. Runs every workload on tiny inputs, untraced and traced, for a few
   requests each, and requires every check to pass.
2. Feeds each workload's gate a deliberately wrong result and requires the
   gate to report it; does the same for the selfcheck probe of a traced run.
3. Requires the api_query pool to reach every reachable verdict of
   anticanonical_consequence_check, so that the oracle checks each branch.
4. Runs run.py from a directory holding only the benchmark and requires it to
   fail without printing a result.

Exits 0 when everything holds and 1 otherwise; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import layers
import oracle
import run
import workloads
from spans import NoTracer, Tracer

VERDICTS = {"consistent", "inconclusive",
            "witness set provably incomplete or surface not anticanonical-nef"}


def corruptions(name: str, lib, wl, result):
    """(description, wrong result) pairs for one workload's real result."""
    if name == "selfcheck_default":
        failed = dataclasses.replace(result[-1], passed=False)
        yield "a failing check", result[:-1] + [failed]
        yield "a missing check", result[:-1]
    elif name == "enumerate_sweep":
        yield "a dropped class", result[:-1]
        yield "a wrong class", [lib.DivisorClass((result[0].coeffs[0] + 1,) + result[0].coeffs[1:])] + result[1:]
        yield "two classes out of order", [result[1], result[0]] + result[2:]
    elif name == "api_build":
        other = lib.model_from_json(wl.docs[1])
        yield "another document's model", other
        yield "a dropped witness", dataclasses.replace(result, curves=result.curves[:-1] or (
            lib.CurveWitness(result.lattice.zero_class()),))
    elif name == "api_query":
        f1 = result[9]
        yield "a wrong basis change", result[:9] + (lib.DivisorClass((f1.coeffs[0] + 1, f1.coeffs[1])),) + result[10:]
        wrong_j = dataclasses.replace(result[5], j=result[5].j + 1)
        yield "a wrong fixed multiple", result[:5] + (wrong_j,) + result[6:]
        yield "a wrong verdict", result[:4] + (dataclasses.replace(result[4], verdict="?"),) + result[5:]
    elif name == "cli_oneshot":
        code, stdout, stderr = result
        doc = json.loads(stdout)
        yield "a wrong exit code", (code + 1, stdout, stderr)
        yield "a wrong document", (code, json.dumps({**doc, "extra": 1}), stderr)
        yield "no output", (code, "", stderr)


def failing_selfcheck_probe(lib) -> list[str]:
    """The problems the selfcheck probe reports when a check fails."""
    res = lib.selfcheck.ALL_CHECKS[-1](lib.SelfcheckConfig(**workloads.TINY_SELFCHECK))
    failed = dataclasses.replace(res, passed=False, detail="1 failures; first: planted")
    stub = SimpleNamespace(
        SelfcheckConfig=lambda seed: None,
        selfcheck=SimpleNamespace(ALL_CHECKS=[lambda cfg: failed]),
    )
    problems: list[str] = []
    out = layers.selfcheck_probes(stub, 1, problems)
    return problems if "selfcheck.negative_curve_adjunction.accepted" not in out else []


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    problems = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, make in workloads.WORKLOADS.items():
            lib = run.import_library()
            wl = make(lib, 1, Path(tmp), tiny=True)
            for tracer in (NoTracer(), Tracer()):
                loop = run.drive(wl, 0.0, tracer, 1)
                if loop.failed or not loop.attempted:
                    problems.append(f"{name}: {loop.failed}/{loop.attempted} tiny requests failed")
            k = max(range(wl.size), key=lambda j: wl.request(j, NoTracer()).units)
            result = wl.request(k, NoTracer()).result
            for what, wrong in corruptions(name, lib, wl, result):
                if not wl.check(k, wrong):
                    problems.append(f"{name}: the gate accepted {what}")
            print(f"{name}: {loop.attempted} requests checked; gates tested", flush=True)

        lib = run.import_library()
        if not failing_selfcheck_probe(lib):
            problems.append("the selfcheck probe accepted a failing check")
        pool = workloads.ApiQuery(lib, 1, Path(tmp)).models
        verdicts = {oracle.anticanonical_consequence_check(m)[0] for m, _ in pool}
        if verdicts != VERDICTS:
            problems.append(f"the api_query pool reaches the verdicts {verdicts}, not {VERDICTS}")
        print("probe gate tested; api_query verdicts:", sorted(verdicts), flush=True)

        bare = Path(tmp) / "bare"
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "api_build", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"run.py without the library exited {proc.returncode} "
                            f"and printed {proc.stdout!r}")
        else:
            print("without the library: exit", proc.returncode, "and no result")

    for p in problems:
        print("SELFTEST FAILURE:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
