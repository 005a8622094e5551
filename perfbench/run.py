"""nslattice benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``.  The run sets the workload up (importing the library afresh), then
drives it in a closed loop with one client for ``--seconds`` and checks every
result.  With ``--trace 0`` it reports the end-to-end metrics, timing further
set-ups spread across the loop for ``setup_s``; with ``--trace 1`` it runs the
loop untraced and traced for half the time each, probes every layer, and
reports the per-layer metrics, including the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics; a failed check makes the exit code 1.  Spans and the result, with an environment stamp, are written
under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import layers
import workloads
from spans import LAYERS, NoTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260808  # SelfcheckConfig's default seed
SETUPS = 7
SETUP_BRACKET_S = 0.1
REFERENCE_S = 0.0004  # about one reference run on the machine the bounds were set on
MAX_REPORTED_FAILURES = 5
TICK_S = 0.02
MIN_TICKS = 25

_K = (-3,) + (1,) * 9


def reference() -> int:
    """A fixed pure-Python computation shaped like the library's own work:
    build 150 small integer tuples and pair each with itself and with K.

    This machine's speed drifts by up to 1.7x over seconds as other tenants
    load the host.  Each request is therefore compared with this reference,
    timed beside it or during it (see ``Loop``), and the bounded end-to-end
    figures are costs in units of the reference.  It does not touch
    nslattice, so no change to the library can move it.
    """
    classes = [tuple((i * j) % 7 - 3 for j in range(10)) for i in range(150)]
    total = 0
    for c in classes:
        total += c[0] * c[0] - sum(e * e for e in c[1:]) + sum(a * b for a, b in zip(_K, c))
    return total


def _library_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "nslattice" or n.startswith("nslattice.")}


def import_library():
    """Import nslattice from the checkout's src/, dropping any earlier import
    so that each set-up pays the full import cost."""
    for name in _library_modules():
        del sys.modules[name]
    return importlib.import_module("nslattice")


class SetUps:
    """Times SETUPS set-ups of one workload, each importing the library
    afresh and generating the inputs.

    The first gives the workload the run drives.  The others are spread over
    the loop (``between_requests``) and discarded, with the modules of the
    first import put back, so that a slow phase of the machine cannot hold all
    of them.  As with requests, each set-up's time is divided by the mean
    reference time in bursts of SETUP_BRACKET_S just before and after it;
    ``setup_s`` is the least of these ratios, in seconds at REFERENCE_S per
    reference run.  The raw wall times are kept in ``times``.
    """

    def __init__(self, make, seed: int, workdir: Path, seconds: float):
        self.make, self.seed, self.workdir = make, seed, workdir
        self.interval = seconds / SETUPS
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.lib, self.workload = self._set_up()
        self.modules = _library_modules()
        self.next_at = perf_counter() + self.interval

    def _set_up(self):
        before = reference_burst(SETUP_BRACKET_S)
        t0 = perf_counter()
        lib = import_library()
        workload = self.make(lib, self.seed, self.workdir)
        elapsed = perf_counter() - t0
        after = reference_burst(SETUP_BRACKET_S)
        self.times.append(elapsed)
        self.scaled.append(elapsed / statistics.fmean(before + after) * REFERENCE_S)
        return lib, workload

    def _again(self) -> None:
        self._set_up()
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)

    def between_requests(self) -> None:
        if len(self.times) < SETUPS and perf_counter() >= self.next_at:
            self._again()
            self.next_at += self.interval

    def seconds(self) -> float:
        while len(self.times) < SETUPS:
            self._again()
        return min(self.scaled)


def git_state(root: Path) -> tuple[str, bool | None]:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)", None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})", None
    if head.returncode != 0 or status.returncode != 0:
        return "unknown (git failed)", None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment_stamp(root: Path) -> dict:
    commit, dirty = git_state(root)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
        "git_dirty": dirty,
        "dont_write_bytecode": bool(sys.dont_write_bytecode),
    }


def reference_burst(seconds: float) -> list[float]:
    """Run the reference back to back for about ``seconds`` (at least once)."""
    times = []
    stop = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        times.append(t1 - t0)
        if t1 >= stop:
            return times


class Ticks:
    """Runs the reference from a SIGALRM handler every TICK_S while a long
    request runs, so that the reference sees the same phase of the machine as
    the request; ``times`` holds each run's duration."""

    def __enter__(self):
        self.times = array("d")
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        self.times.append(perf_counter() - t0)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


class Loop:
    """What one closed-loop drive measured.

    Every request's time is divided by a reference time taken beside it, so
    that the machine's drift cancels.  A workload with long requests
    (``ticked``) runs the reference during each request (``Ticks``); the
    request's time, less the ticks', is compared with their mean.  Other
    in-process requests, and ticked ones that got fewer than MIN_TICKS ticks,
    are followed by a reference burst as long as the request, and compared
    with the mean reference run in the bursts just before and after them.  A
    cli_oneshot request carries its own reference, the paired bare
    interpreter, and its cost is what it takes beyond that start-up.  Each
    input's figure is the median over its repeats.
    """

    def __init__(self, workload):
        self.paired = getattr(workload, "paired", False)
        self.ticked = getattr(workload, "ticked", False)
        self.samples = array("d")
        self.best = [math.inf] * workload.size
        self.units = [0] * workload.size
        self.ratios = [array("d") for _ in range(workload.size)]
        self.attempted = 0
        self.failed = 0

    def record(self, k: int, latency_s: float, units: int, reference_s: float) -> None:
        self.samples.append(latency_s)
        self.best[k] = min(self.best[k], latency_s)
        self.units[k] = units
        self.ratios[k].append(latency_s / reference_s)

    def times_in_reference_units(self) -> list[tuple[float, int]]:
        return [(statistics.median(r), u) for r, u in zip(self.ratios, self.units) if r]

    def costs(self) -> list[float]:
        offset = 1.0 if self.paired else 0.0
        return [t - offset for t, _ in self.times_in_reference_units()]

    def throughput(self) -> float:
        times = self.times_in_reference_units()
        return sum(u for _, u in times) / sum(t for t, _ in times)

    def ops_per_s(self) -> float:
        seen = [(b, u) for b, u in zip(self.best, self.units) if b < math.inf]
        return sum(u for _, u in seen) / sum(b for b, _ in seen)


def drive(workload, seconds: float, tracer, seed: int, min_passes: int | None = None,
          between_requests=lambda: None) -> Loop:
    """Cycle through the workload's inputs in a fresh seeded order each pass,
    one request after another, until ``seconds`` have passed and every input
    has run ``min_passes`` times (by default the workload's own minimum);
    check each result.  ``between_requests`` runs, untimed, after each."""
    min_passes = workload.min_passes if min_passes is None else min_passes
    loop = Loop(workload)
    order_rng = random.Random(seed)
    before = reference_burst(0.0)
    start = perf_counter()
    i = 0
    while i < min_passes * workload.size or perf_counter() - start < seconds:
        if i % workload.size == 0:
            order = order_rng.sample(range(workload.size), workload.size)
        k = order[i % workload.size]
        tracer.request = i
        loop.attempted += 1
        ticks = array("d")
        try:
            with tracer.span("bench.request"):
                if loop.ticked:
                    with Ticks() as ticker:
                        out = workload.request(k, tracer)
                    ticks = ticker.times
                else:
                    out = workload.request(k, tracer)
                with tracer.span("bench.check"):
                    problem = workload.check(k, out.result)
        except Exception:  # a raising request is a failed operation; keep going
            problem = traceback.format_exc()
        else:
            latency = out.latency_s - sum(ticks)
            if loop.paired:
                loop.record(k, latency, out.units, out.ref_latency_s)
            elif len(ticks) >= MIN_TICKS:
                loop.record(k, latency, out.units, statistics.fmean(ticks))
            else:
                after = reference_burst(latency)
                loop.record(k, latency, out.units, statistics.fmean(before + after))
                before = after
        if problem:
            loop.failed += 1
            if loop.failed <= MAX_REPORTED_FAILURES:
                print(f"request {i} (input {k}) failed: {problem}", file=sys.stderr)
        between_requests()
        i += 1
    return loop


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop: Loop, setup_s: float, name: str) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "p50_cost": (quantile(loop.costs(), 50), "ref"),
        "throughput": (loop.throughput(), "1/ref"),
        "peak_rss_mb": (peak_rss_mb(children=name == "cli_oneshot"), "MB"),
    }


def wall_clock(loop: Loop) -> dict:
    """Wall-clock figures, unbounded, for reading alongside the costs."""
    best = [b for b in loop.best if b < math.inf]
    return {
        "best_p50_ms": quantile(best, 50) * 1e3,
        "best_p90_ms": quantile(best, 90) * 1e3,
        "ops_per_s": loop.ops_per_s(),
        "reference_ms": min(reference_burst(0.05)) * 1e3,
    }


def per_layer(untraced: Loop, traced: Loop, tracer: Tracer, probes: dict) -> dict:
    units = {"_ns": "ns", "_us": "us", "_ms": "ms", "_s": "s"}
    out = {}
    for key, value in probes.items():
        tag = key.split(".")[1]
        unit = next((u for suffix, u in units.items() if tag.endswith(suffix)), "count")
        out[key] = (value, unit)
    requests = max(1, traced.attempted)
    for layer in LAYERS:
        out[f"trace.self_us_per_request.{layer}"] = (tracer.self_s[layer] / requests * 1e6, "us")
    out["trace.spans_per_request"] = (tracer.count / requests, "count")
    plain, spanned = quantile(untraced.costs(), 50), quantile(traced.costs(), 50)
    out["trace.untraced_p50_cost"] = (plain, "ref")
    out["trace.traced_p50_cost"] = (spanned, "ref")
    out["trace.overhead_pct"] = ((spanned / plain - 1) * 100, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nslattice" / "__init__.py").is_file():
        print(f"perfbench: no nslattice package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = environment_stamp(ROOT)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=outdir))
    try:
        setups = SetUps(workloads.WORKLOADS[args.workload], args.seed, workdir, args.seconds)
        lib, workload = setups.lib, setups.workload
        probe_problems: list[str] = []
        if args.trace:
            # one pass per half suffices to compare them, and keeps a traced
            # selfcheck_default run well inside the time a run may take
            untraced = drive(workload, args.seconds / 2, NoTracer(), args.seed, min_passes=1)
            tracer = Tracer()
            traced = drive(workload, args.seconds / 2, tracer, args.seed, min_passes=1)
            probes = layers.probe_all(lib, args.seed, workdir, probe_problems)
            metrics = per_layer(untraced, traced, tracer, probes)
            loops = (untraced, traced)
            tracer.write(outdir / f"spans_{args.workload}_{args.seed}.json")
            for problem in probe_problems[:MAX_REPORTED_FAILURES]:
                print(f"probe failed: {problem}", file=sys.stderr)
        else:
            loop = drive(workload, args.seconds, NoTracer(), args.seed,
                         between_requests=setups.between_requests)
            metrics = end_to_end(loop, setups.seconds(), args.workload)
            loops = (loop,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a traced run's probes count as one more operation
    attempted = sum(lp.attempted for lp in loops) + bool(args.trace)
    failed = sum(lp.failed for lp in loops) + bool(probe_problems)
    samples = sum(len(lp.samples) for lp in loops)
    raw = sorted(x for lp in loops for x in lp.samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    wall = {"raw_p50_ms": quantile(raw, 50) * 1e3, "raw_p90_ms": quantile(raw, 90) * 1e3,
            **wall_clock(loops[0]), "setup_min_s": min(setups.times)}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": samples, "inputs": workload.size,
              "unit_of_work": workload.unit, "setup_times_s": setups.times, "wall_clock": wall,
              "environment": env, **result}
    (outdir / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  {samples} requests over "
          f"{workload.size} inputs  failed {failed}/{attempted}  unit: {workload.unit}")
    print("  wall clock (unbounded): " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {unit}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
