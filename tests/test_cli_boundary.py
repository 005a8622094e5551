"""The request boundary: the bound on blown-up points, and main() fuzzed with
argv drawn from the rows of COMMANDS, their flags, unknown flags, garbage
tokens and --json payloads of the wrong JSON types."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nslattice import (
    InvalidParameterError,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    lattice_from_json,
    model_from_json,
)
from nslattice import cli, enumeration, lattice
from nslattice.selfcheck import SelfcheckConfig

SRC = Path(__file__).resolve().parents[1] / "src"
POINTS = 6
# no enumeration with r <= POINTS costs more than 538 units, the cost of
# (6, -3): a budget of 5,000 was never reached under low_bounds
BUDGET = 300
PAST_BUDGET = ["enumerate", "--r", str(POINTS), "--self-int=-3", "--degree-bound", "3"]


@pytest.fixture
def low_bounds(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_BLOWUP_POINTS", POINTS)
    monkeypatch.setattr(enumeration, "ENUMERATION_BUDGET", BUDGET)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_bound_leaves_room_for_rank_2001():
    assert lattice.MAX_BLOWUP_POINTS > 2001


def test_bound_through_the_api(low_bounds):
    assert blowup_p2_lattice(POINTS).rank == POINTS + 1
    assert blowup_hirzebruch_lattice(3, POINTS).rank == POINTS + 2
    for build in (
        lambda: blowup_p2_lattice(POINTS + 1),
        lambda: blowup_hirzebruch_lattice(3, POINTS + 1),
        lambda: lattice_from_json({"family": "blowup_p2", "r": POINTS + 1}),
        lambda: model_from_json({"lattice": {"family": "blowup_hirzebruch", "n": 0, "r": 10**9}}),
    ):
        with pytest.raises(InvalidParameterError, match="blown-up points"):
            build()


def test_bound_through_the_cli(low_bounds, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"lattice": {"family": "blowup_p2", "r": POINTS + 1}}))
    for argv in (
        ["genus", "--family", "blowup_p2", "--r", str(POINTS + 1), "--d", "1"],
        ["enumerate", "--r", str(POINTS + 1), "--self-int=-1", "--degree-bound", "1"],
        ["blowup", "forced-fixed", "--json", str(model)],
    ):
        code, out, err = run(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("nslattice: ") and err.count("\n") == 1
        assert "blown-up points" in err


def test_request_past_the_patched_budget_runs_under_the_real_one():
    code, out, err = run(PAST_BUDGET)
    assert (code, err) == (0, "") and json.loads(out)["count"] == 75


def test_patched_budget_refuses_through_either_parser(low_bounds, monkeypatch):
    refusal = (1, "", f"nslattice: enumeration exceeds its work budget of {BUDGET:,} search "
                      "nodes and coefficients; lower r or the degree bound\n")
    assert run_both(monkeypatch, PAST_BUDGET) == (refusal, refusal)


def test_huge_r_is_refused_before_the_lattice_is_built():
    # 10^8 points would take about 10 GB; the child may not map more than 1 GiB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["genus", "--family", "blowup_p2", "--r", "100000000", "--d", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "nslattice", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=cap,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("nslattice: ") and proc.stderr.count("\n") == 1


ROWS = [(path.split(), flags) for path, flags, _, _ in cli.COMMANDS]
RANK = {"hirzebruch": 2, "blowup_p2": 1, "blowup_hirzebruch": 2}

small = st.integers(-3, POINTS + 2)
# no -h or --h..., which print help and exit 0
garbage = st.text("-=,.:01xyz", max_size=5).filter(lambda t: not t.startswith(("-h", "--h")))
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
lattice_doc = st.sampled_from(
    [{"family": "hirzebruch", "n": n} for n in range(5)]
    + [{"family": "blowup_p2", "r": r} for r in range(POINTS + 1)]
    + [{"family": "blowup_hirzebruch", "n": n, "r": r} for n in range(4) for r in range(3)]
)
# the keys the commands read beyond their flags
MODEL_KEYS = ["lattice", "curves", "prime", "witness_complete"]
SELFCHECK_KEYS = [f.name for f in fields(SelfcheckConfig)]


@st.composite
def argvs(draw):
    """(argv, payload or None), either well formed or with one kind of defect:
    wrong argv tokens, or payload values of the wrong JSON type."""
    path, flags = draw(st.sampled_from(ROWS))
    defect = draw(st.sampled_from([None, "argv", "payload"]))
    lat = draw(lattice_doc)
    rank = RANK[lat["family"]] + lat.get("r", 0)
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    right = {"family": st.just(lat["family"]), "n": st.just(lat.get("n", 2)),
             "r": st.just(lat.get("r", 3)), **dict.fromkeys(("d", "d1", "d2"), vector)}
    extra = ["--pretty", "--strict"]
    groups, doc = [], {}
    if path == ["selfcheck"]:
        # always a full, tiny config, so the default 3-second run is never drawn;
        # each key from a range SelfcheckConfig accepts, so it reaches the checks
        least = dict.fromkeys(("enum_degree_bound", "enum_stability_bound"), 1)
        for key in SELFCHECK_KEYS:
            low = doc.get("monoid_coeff_bound", 0) if key == "monoid_copies" else least.get(key, 0)
            doc[key] = draw(st.integers(low, 2))
    elif path[0] == "blowup":
        curve = st.fixed_dictionaries({"coeffs": vector, "prime": st.booleans()})
        doc = {"lattice": lat, "curves": draw(st.lists(curve, max_size=3))}
    for flag in flags:
        if "family" in flags and flag in "nr" and flag not in lat:
            continue
        value = draw(right.get(flag, small))
        where = "flag" if defect is None else draw(st.sampled_from(["flag", "payload", "absent"]))
        if where == "payload":
            doc[flag.replace("-", "_")] = value
        elif where == "flag":
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            if defect == "argv":
                text = draw(st.just(text) | garbage)
                groups.append(draw(st.sampled_from([[f"--{flag}={text}"], [f"--{flag}", text]])))
            else:
                # "--d -1,2" reads -1,2 as an option; the README prescribes --d=-1,2
                groups.append([f"--{flag}={text}"])
    if defect == "argv":
        extra = st.sampled_from([*extra, "--bogus", "--a=1", "-z", "--json"]) | garbage
        groups += [[token] for token in draw(st.lists(extra, max_size=3))]
    else:
        groups += [[token] for token in draw(st.sets(st.sampled_from(extra)))]
    if defect == "payload":
        keys = st.sampled_from(SELFCHECK_KEYS if path == ["selfcheck"] else [*doc, *MODEL_KEYS])
        doc |= draw(st.dictionaries(keys, json_value, min_size=1, max_size=2))
        # {} would be the default selfcheck config
        doc = draw(st.just(doc) | json_value.filter(lambda v: v != {}))
    argv = path + [token for group in draw(st.permutations(groups)) for token in group]
    return argv, doc if doc or path == ["selfcheck"] or defect == "payload" else None


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_main_on_drawn_argv(low_bounds, case):
    argv, doc = case
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
    try:
        code, out, err = run(argv + ["--json", fh.name] if doc is not None else argv)
    finally:
        os.unlink(fh.name)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if out:
        printed = json.loads(out)
        assert code in ((1,) if printed.get("passed") is False else (0, 3))
        assert code != 3 or "--strict" in argv
    else:
        assert code in (1, 2) and err


# argv that name no leaf, and so build the whole tree, beside leaves asked for help
# or given a wrong token
HAND_PICKED = [
    [], ["--help"], ["-z"], ["intersectx"], ["blowup"], ["blowup", "--help"],
    ["blowup", "classifyx"], ["blowup classify"], ["hirzebruch"], ["hirzebruch", "-h"],
    ["intersect", "--help"], ["hirzebruch", "nef", "--help"], ["selfcheck", "--h"],
    ["genus", "--bogus"], ["blowup", "classify", "--bogus", "1"], ["enumerate", "--r"],
    ["hirzebruch", "nef", "extra"], ["intersect", "genus"], ["--pretty", "intersect"],
]


def run_both(monkeypatch, argv):
    """main(argv) with the parser of argv's path, then with the whole tree."""
    chained = run(argv)
    full = cli.build_parser
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", lambda argv=None: full())
        return chained, run(argv)


@pytest.mark.parametrize("argv", HAND_PICKED, ids=" ".join)
def test_leaf_chain_answers_as_the_whole_tree(low_bounds, monkeypatch, argv):
    chained, whole = run_both(monkeypatch, argv)
    assert chained == whole


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_leaf_chain_answers_as_the_whole_tree_on_drawn_argv(low_bounds, monkeypatch, case):
    argv, doc = case
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
    try:
        chained, whole = run_both(monkeypatch, argv + ["--json", fh.name] if doc is not None else argv)
    finally:
        os.unlink(fh.name)
    assert chained == whole


def test_a_leaf_builds_only_its_path():
    assert cli._rows(["intersect", "--d1=1"]) == tuple(r for r in cli.COMMANDS if r[0] == "intersect")
    paths = [row[0] for row in cli._rows(["blowup", "classify", "--d=1"])]
    assert paths == ["blowup", "blowup classify"]
    for argv in ([], ["blowup"], ["--help"], ["blowup classify"], ["intersectx"]):
        assert cli._rows(argv) is cli.COMMANDS
