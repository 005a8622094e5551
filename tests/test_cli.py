import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslattice import divisor_from_json, lattice_from_json, model_from_json
from nslattice.cli import _FLAGS, COMMANDS, main
from oracles import MINUS_ONE_COUNTS_BOUND_7

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODEL_BH51 = {
    "lattice": {"family": "blowup_hirzebruch", "n": 5, "r": 1},
    "curves": [
        {"coeffs": [1, 0, 0], "prime": True},
        {"coeffs": [0, 1, 0], "prime": True},
        {"coeffs": [0, 0, 1], "prime": True},
    ],
}

MODEL_B9 = {
    "lattice": {"family": "blowup_p2", "r": 9},
    "curves": [
        {"coeffs": [0] * i + [1] + [0] * (9 - i), "prime": True} for i in range(1, 10)
    ],
}

SMALL_SELFCHECK = {
    "anticanonical_n_max": 6,
    "uniqueness_n_max": 3,
    "uniqueness_a_max": 3,
    "monoid_n_max": 2,
    "monoid_coeff_bound": 4,
    "monoid_copies": 8,
    "random_classes": 200,
    "random_coeff_bound": 5,
    "family_n_max": 4,
    "family_r_max": 4,
    "isometry_random_classes": 50,
    "enum_r_max": 4,
    "enum_degree_bound": 7,
    "enum_stability_bound": 9,
    "seed": 7,
}

SELFCHECK_GOLDEN = (
    '{"passed": true, "checks": ['
    '{"name": "monoid_bruteforce_equivalence", "passed": true, "detail": "243 lattice points checked"}, '
    '{"name": "monoid_minimal_generation", "passed": true, "detail": "generator pairs independent for n <= 2"}, '
    '{"name": "fixed_mobile_uniqueness", "passed": true, "detail": "36 systems scanned"}, '
    '{"name": "anticanonical_fixed_locus_sweep", "passed": true, "detail": "n = 0..6 swept"}, '
    '{"name": "adjunction_parity", "passed": true, "detail": "600 random classes checked"}, '
    '{"name": "lattice_invariants", "passed": true, "detail": "35 lattices swept"}, '
    '{"name": "canonical_convention", "passed": true, "detail": "basis curves have arithmetic genus 0 under the chosen K"}, '
    '{"name": "basis_change_isometries", "passed": true, "detail": "basis pairs plus 50 random pairs per map"}, '
    '{"name": "minus_one_enumeration_stability", "passed": true, "detail": "r=1: 1, r=2: 3, r=3: 6, r=4: 10"}, '
    '{"name": "classifier_theorem_cases", "passed": true, "detail": "dichotomy swept for n = 0..6"}, '
    '{"name": "negative_curve_adjunction", "passed": true, "detail": "200 classes with p_a = 0 and K.D >= 1"}'
    "]}\n"
)


@pytest.fixture
def model_bh51(tmp_path):
    path = tmp_path / "model_bh51.json"
    path.write_text(json.dumps(MODEL_BH51))
    return str(path)


@pytest.fixture
def model_b9(tmp_path):
    path = tmp_path / "model_b9.json"
    path.write_text(json.dumps(MODEL_B9))
    return str(path)


GOLDEN = [
    (
        ["intersect", "--family", "hirzebruch", "--n", "2", "--d1", "1,0", "--d2", "1,0"],
        '{"value": -2}\n',
    ),
    (
        ["genus", "--family", "blowup_p2", "--r", "1", "--d=3,-1"],
        '{"value": 1}\n',
    ),
    (
        ["chi", "--family", "hirzebruch", "--n", "4", "--d", "2,6"],
        '{"value": 9}\n',
    ),
    (
        ["h0-bound", "--family", "hirzebruch", "--n", "3", "--d", "1,5"],
        '{"value": 9}\n',
    ),
    (
        ["basis-change", "--family", "hirzebruch", "--n", "1", "--d=-2,-3"],
        '{"map": "f1_to_p2", "target": {"family": "blowup_p2", "r": 1}, "coeffs": [-3, 1]}\n',
    ),
    (
        ["basis-change", "--family", "blowup_hirzebruch", "--n", "0", "--r", "1", "--d", "0,0,1"],
        '{"map": "blf0_to_p2", "target": {"family": "blowup_p2", "r": 2}, "coeffs": [1, -1, -1]}\n',
    ),
    (
        ["enumerate", "--r", "2", "--self-int=-1"],
        '{"r": 2, "self_int": -1, "degree_bound": 7, "count": 3, "classes": '
        '[{"coeffs": [0, 0, 1]}, {"coeffs": [0, 1, 0]}, {"coeffs": [1, -1, -1]}]}\n',
    ),
    (
        ["hirzebruch", "effective", "--n", "3", "--a", "2", "--b", "5"],
        '{"n": 3, "a": 2, "b": 5, "effective": true, "multiplicities": [2, 5]}\n',
    ),
    (
        ["hirzebruch", "effective", "--n", "3", "--a=-1", "--b", "5"],
        '{"n": 3, "a": -1, "b": 5, "effective": false, "multiplicities": null}\n',
    ),
    (
        ["hirzebruch", "nef", "--n", "2", "--a", "3", "--b", "7"],
        '{"n": 2, "a": 3, "b": 7, "nef": true, "s": 3, "t": 1}\n',
    ),
    (
        ["hirzebruch", "nef", "--n", "4", "--a", "1", "--b", "3"],
        '{"n": 4, "a": 1, "b": 3, "nef": false, "violator": "C4", "pairing": -1}\n',
    ),
    (
        ["hirzebruch", "fixed-mobile", "--n", "3", "--a", "2", "--b", "5"],
        '{"n": 3, "j": 1, "fixed": {"a": 1, "b": 0}, "mobile": {"a": 1, "b": 5}}\n',
    ),
    (
        ["hirzebruch", "anticanonical", "--n", "3"],
        '{"n": 3, "class": {"a": 2, "b": 5}, "j": 1, "fixed": {"a": 1, "b": 0}, '
        '"mobile": {"a": 1, "b": 5}}\n',
    ),
    (
        ["hirzebruch", "anticanonical", "--n", "2"],
        '{"n": 2, "class": {"a": 2, "b": 4}, "j": 0, "fixed": {"a": 0, "b": 0}, '
        '"mobile": {"a": 2, "b": 4}}\n',
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden_transcripts(capsys, argv, expected):
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_byte_identical_reruns(capsys, argv, expected):
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second == expected


class TestBlowupCommands:
    def test_nef_test_golden(self, capsys, model_bh51):
        code, out, _ = run_cli(
            capsys, ["blowup", "nef-test", "--json", model_bh51, "--d", "0,0,1"]
        )
        assert code == 0
        assert out == (
            '{"verdict": "violated-by", "violator": {"coeffs": [0, 0, 1], "prime": true}, '
            '"pairing": -1}\n'
        )

    def test_nef_test_relative(self, capsys, model_b9):
        code, out, _ = run_cli(
            capsys,
            ["blowup", "nef-test", "--json", model_b9, "--d=3,-1,-1,-1,-1,-1,-1,-1,-1,-1"],
        )
        assert code == 0
        assert out == '{"verdict": "nef-relative", "empty_evidence": false}\n'

    def test_forced_fixed_golden(self, capsys, model_bh51):
        code, out, _ = run_cli(capsys, ["blowup", "forced-fixed", "--json", model_bh51])
        assert code == 0
        assert out == '{"forced_fixed_components": [{"coeffs": [1, 0, 0], "prime": true}]}\n'

    def test_classify_golden(self, capsys, model_bh51):
        code, out, _ = run_cli(
            capsys, ["blowup", "classify", "--json", model_bh51, "--d", "1,0,0"]
        )
        assert code == 0
        assert out == '{"kind": "negative_rational", "n": 5}\n'

    def test_classify_genus_one(self, capsys, model_b9):
        code, out, _ = run_cli(
            capsys, ["blowup", "classify", "--json", model_b9, "--d=3,-1,-1,-1,-1,-1,-1,-1,-1,-1"]
        )
        assert code == 0
        assert out == '{"kind": "genus_one", "self_int": 0}\n'

    def test_consequences_golden(self, capsys, model_b9):
        code, out, _ = run_cli(capsys, ["blowup", "consequences", "--json", model_b9])
        assert code == 0
        assert out == (
            '{"verdict": "consistent", "details": ["-K pairs >= 0 with all 9 witnesses", '
            '"witness list not asserted complete: nef evidence is relative only", '
            '"K.K = 0 >= 0: ok", "rho = 10 <= 10: ok", "r = 9 <= 9: ok"], "violators": []}\n'
        )

    def test_consequences_incomplete(self, capsys, tmp_path):
        model = {
            "lattice": {"family": "blowup_p2", "r": 10},
            "curves": [
                {"coeffs": [0] * i + [1] + [0] * (10 - i), "prime": True}
                for i in range(1, 11)
            ],
            "witness_complete": True,
        }
        path = tmp_path / "m10.json"
        path.write_text(json.dumps(model))
        code, out, _ = run_cli(capsys, ["blowup", "consequences", "--json", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "witness set provably incomplete or surface not anticanonical-nef"
        assert any("rho = 11" in v for v in doc["violators"])

    def test_lemma_move_golden(self, capsys, model_b9):
        code, out, _ = run_cli(
            capsys, ["blowup", "lemma-move", "--json", model_b9, "--d=1,0,0,0,0,0,0,0,0,0"]
        )
        assert code == 0
        assert out == (
            '{"verdict": "consistent", "details": ["self-intersection 1 > 0", '
            '"K pairing -3", "h^0 lower bound 3", "bound >= 2: the class moves"], '
            '"violators": []}\n'
        )


class TestSelfcheck:
    def test_small_config_golden(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_SELFCHECK))
        code, out, err = run_cli(capsys, ["selfcheck", "--json", str(path)])
        assert code == 0 and err == ""
        assert out == SELFCHECK_GOLDEN
        code, out2, _ = run_cli(capsys, ["selfcheck", "--json", str(path)])
        assert code == 0 and out2 == out

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bogus_key": 3}')
        code, out, err = run_cli(capsys, ["selfcheck", "--json", str(path)])
        assert code == 2
        assert out == "" and "bogus_key" in err

    def test_failing_check_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        import nslattice.selfcheck as sc

        monkeypatch.setattr(sc, "KNOWN_MINUS_ONE_COUNTS", {1: 2})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_SELFCHECK))
        code, out, _ = run_cli(capsys, ["selfcheck", "--json", str(path)])
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out, err = run_cli(capsys, ["hirzebruch", "fixed-mobile", "--n", "3", "--a=-1", "--b", "5"])
        assert code == 1
        assert out == ""
        assert "not effective" in err

    def test_dimension_mismatch_is_one(self, capsys):
        code, _, err = run_cli(
            capsys, ["intersect", "--family", "hirzebruch", "--n", "2", "--d1", "1,0,0", "--d2", "1,0"]
        )
        assert code == 1
        assert "rank" in err
        # an empty class flag is the empty list, as "d": [] is
        code, _, err = run_cli(capsys, ["genus", "--family", "hirzebruch", "--n", "2", "--d="])
        assert (code, err) == (1, "nslattice: class of length 0 on a lattice of rank 2\n")

    def test_witness_of_another_rank_is_one(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        model = {"lattice": {"family": "hirzebruch", "n": 1}, "curves": [{"coeffs": [1, 0, 0]}]}
        path.write_text(json.dumps(model))
        code, out, err = run_cli(capsys, ["blowup", "forced-fixed", "--json", str(path)])
        assert (code, out, err) == (1, "", "nslattice: witness [1, 0, 0] does not match lattice rank 2\n")

    def test_negative_parameter_is_one(self, capsys):
        code, _, err = run_cli(capsys, ["hirzebruch", "anticanonical", "--n=-2"])
        assert code == 1
        assert ">= 0" in err

    def test_plane_model_past_the_blowup_bound_is_one(self, capsys):
        argv = ["basis-change", "--family", "blowup_hirzebruch", "--n", "3", "--r", "10000", "--d=1,0"]
        assert run_cli(capsys, argv) == (
            1,
            "",
            "nslattice: a blowup at r = 10,000 points has its plane model at r + 1, "
            "past the limit of 10,000\n",
        )

    @pytest.mark.parametrize(
        "flags,map_name,r",
        [
            (["--family", "hirzebruch", "--n", "3", "--d", "1,0"], "f3_to_p2", 1),
            (["--family", "blowup_hirzebruch", "--n", "2", "--r", "1", "--d", "1,0,0"], "blf2_to_p2", 2),
        ],
    )
    def test_basis_change_names_its_map_by_the_source(self, capsys, flags, map_name, r):
        code, out, _ = run_cli(capsys, ["basis-change", *flags])
        doc = json.loads(out)
        assert (code, doc["map"], doc["target"]) == (0, map_name, {"family": "blowup_p2", "r": r})

    def test_basis_change_from_the_plane_is_one(self, capsys):
        assert run_cli(capsys, ["basis-change", "--family", "blowup_p2", "--r", "2", "--d=1,0,0"]) == (
            1,
            "",
            "nslattice: basis change needs F_n with n odd or a blowup of F_n at r >= 1 points\n",
        )

    def test_missing_input_is_two(self, capsys):
        code, _, err = run_cli(capsys, ["intersect", "--family", "hirzebruch", "--n", "2"])
        assert code == 2
        assert err == "nslattice: missing required input d1\n"

    def test_unknown_flag_is_two(self, capsys):
        code, _, _ = run_cli(capsys, ["intersect", "--bogus", "1"])
        assert code == 2

    def test_unknown_subcommand_is_two(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 2

    def test_malformed_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, out, err = run_cli(capsys, ["blowup", "forced-fixed", "--json", str(path)])
        assert code == 2
        assert out == "" and "malformed JSON" in err

    def test_strict_theorem_violation_is_three(self, capsys, tmp_path):
        model = {"lattice": {"family": "blowup_p2", "r": 8}, "curves": []}
        path = tmp_path / "m8.json"
        path.write_text(json.dumps(model))
        argv = ["blowup", "classify", "--json", str(path), "--d", "1,0,0,0,0,0,0,0,0"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["kind"] == "theorem_violation"
        code, out, _ = run_cli(capsys, argv + ["--strict"])
        assert code == 3
        assert json.loads(out)["kind"] == "theorem_violation"

    def test_strict_lemma_move_violation_is_three(self, capsys, tmp_path):
        model = {
            "lattice": {"family": "blowup_p2", "r": 5},
            "curves": [],
            "d": [-3, 2, 1, 1, 1, 1],
        }
        path = tmp_path / "m5.json"
        path.write_text(json.dumps(model))
        code, out, _ = run_cli(capsys, ["blowup", "lemma-move", "--json", str(path), "--strict"])
        assert code == 3
        assert json.loads(out)["verdict"] == "theorem_violation"

    def test_help_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, ["--help"])
        assert code == 0

    @pytest.mark.parametrize("path", ["h0-bound", "hirzebruch"])
    def test_command_help_prints_its_help_line(self, capsys, path):
        # the COMMANDS line shows in the command's own --help, for a leaf and a group
        line = next(text for p, _, text, _ in COMMANDS if p == path)
        code, out, _ = run_cli(capsys, [path, "--help"])
        assert code == 0
        assert line in " ".join(out.split())


class TestPayloadsAndRoundTrips:
    def test_payload_fills_missing_flags(self, capsys, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"family": "hirzebruch", "n": 2, "d1": [1, 0], "d2": [1, 0]}))
        code, out, _ = run_cli(capsys, ["intersect", "--json", str(path)])
        assert code == 0
        assert out == '{"value": -2}\n'

    def test_flags_override_payload(self, capsys, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"family": "hirzebruch", "n": 2, "d1": [1, 0], "d2": [1, 0]}))
        code, out, _ = run_cli(capsys, ["intersect", "--json", str(path), "--n", "5"])
        assert code == 0
        assert out == '{"value": -5}\n'

    def test_pretty_output_parses_to_same_document(self, capsys):
        _, compact, _ = run_cli(capsys, ["hirzebruch", "anticanonical", "--n", "3"])
        _, pretty, _ = run_cli(capsys, ["hirzebruch", "anticanonical", "--n", "3", "--pretty"])
        assert pretty != compact
        assert json.loads(pretty) == json.loads(compact)

    def test_emitted_documents_are_reparseable(self, capsys, model_bh51):
        _, out, _ = run_cli(capsys, ["enumerate", "--r", "2", "--self-int=-1"])
        doc = json.loads(out)
        for cls in doc["classes"]:
            assert divisor_from_json(cls).coeffs is not None
        _, out, _ = run_cli(capsys, ["basis-change", "--family", "hirzebruch", "--n", "1", "--d", "1,0"])
        doc = json.loads(out)
        lattice_from_json(doc["target"])
        divisor_from_json(doc)
        _, out, _ = run_cli(capsys, ["blowup", "forced-fixed", "--json", model_bh51])
        reparsed = model_from_json(
            {"lattice": MODEL_BH51["lattice"], "curves": json.loads(out)["forced_fixed_components"]}
        )
        assert reparsed.curves[0].cls.coeffs == (1, 0, 0)


def test_module_invocation_subprocess():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nslattice", "hirzebruch", "fixed-mobile", "--n", "3", "--a", "2", "--b", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"n": 3, "j": 1, "fixed": {"a": 1, "b": 0}, "mobile": {"a": 1, "b": 5}}\n'


MALFORMED = {
    "float-coefficient": (
        ["intersect"],
        {"family": "hirzebruch", "n": 2, "d1": [1.7, 0], "d2": [1, 0]},
    ),
    "string-boolean": (
        ["blowup", "consequences"],
        {**MODEL_B9, "witness_complete": "false"},
    ),
    "lattice-without-family": (
        ["blowup", "forced-fixed"],
        {"lattice": {"r": 2}, "curves": []},
    ),
    "string-rank": (
        ["blowup", "forced-fixed"],
        {"lattice": {"family": "blowup_p2", "r": "1"}, "curves": []},
    ),
    "float-witness": (
        ["blowup", "forced-fixed"],
        {"lattice": {"family": "blowup_p2", "r": 1}, "curves": [{"coeffs": [1.0, 0.0]}]},
    ),
    "float-selfcheck-seed": (["selfcheck"], {**SMALL_SELFCHECK, "seed": 1.5}),
}


@pytest.mark.parametrize("argv,payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_payload_is_usage_error(capsys, tmp_path, argv, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, argv + ["--json", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_enumerate_loop_reproduces_exceptional_counts(capsys):
    counts = {}
    for r in range(1, 9):
        code, out, _ = run_cli(capsys, ["enumerate", "--r", str(r), "--self-int=-1"])
        assert code == 0
        counts[r] = json.loads(out)["count"]
    assert counts == MINUS_ONE_COUNTS_BOUND_7


def test_selfcheck_module_imported_on_first_use():
    code = (
        "import sys, nslattice.cli\n"
        "print('nslattice.selfcheck' in sys.modules)\n"
        "from nslattice import run_selfcheck\n"
        "import nslattice\n"
        "print(run_selfcheck is nslattice.selfcheck.run_selfcheck)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_enumerate_over_budget_is_domain_error():
    # at r = 2000 the search used to recurse once per coordinate and die in
    # RecursionError; d = 1 alone has 1,999,000 classes of 2,001 coefficients
    argv = ["enumerate", "--r", "2000", "--self-int=-1", "--degree-bound", "1"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nslattice", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("nslattice: ") and proc.stderr.count("\n") == 1
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    # ru_maxrss is in KiB on Linux; the rank-2001 Gram matrix alone is about 77 MB
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 512 * 1024


NEGATIVE_SELFCHECK = {
    "random-coeff-bound": {"random_coeff_bound": -1},
    "family-n-max": {"family_n_max": -1},
}


@pytest.mark.parametrize("payload", NEGATIVE_SELFCHECK.values(), ids=NEGATIVE_SELFCHECK.keys())
def test_negative_selfcheck_config_is_usage_error(capsys, tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["selfcheck", "--json", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: ") and err.count("\n") == 1
    assert next(iter(payload)) in err


@pytest.mark.parametrize(
    "argv,key",
    [
        (["intersect", "--family", "hirzebruch", "--n", "1", "--r", "5", "--d1", "1,0", "--d2", "1,0"], "r"),
        (["intersect", "--family", "blowup_p2", "--n", "3", "--r", "1", "--d1", "1,0", "--d2", "1,0"], "n"),
        (["genus", "--family", "blowup_p2", "--n", "0", "--r", "1", "--d=3,-1"], "n"),
    ],
)
def test_parameter_the_family_does_not_take_is_usage_error(capsys, argv, key):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: ") and err.count("\n") == 1
    assert f"takes no {key}" in err


UNREACHABLE_SELFCHECK = {
    "zero-stability-bound": ({"enum_stability_bound": 0, "enum_r_max": 1}, ["enum_stability_bound"]),
    "zero-degree-bound": ({"enum_degree_bound": 0}, ["enum_degree_bound"]),
    "too-few-monoid-copies": (
        {"monoid_n_max": 0, "monoid_coeff_bound": 2, "monoid_copies": 1},
        ["monoid_copies", "monoid_coeff_bound"],
    ),
}


@pytest.mark.parametrize(
    "payload,keys", UNREACHABLE_SELFCHECK.values(), ids=UNREACHABLE_SELFCHECK.keys()
)
def test_selfcheck_config_the_checks_cannot_run_is_usage_error(capsys, tmp_path, payload, keys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_SELFCHECK, **payload}))
    code, out, err = run_cli(capsys, ["selfcheck", "--json", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: ") and err.count("\n") == 1
    assert all(key in err for key in keys)


def test_closed_stdout_is_one_line_and_exit_1():
    # about 500 kB of output, far past what a pipe buffers
    argv = ["enumerate", "--r", "10", "--self-int=-1", "--degree-bound", "5"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, "-m", "nslattice", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(20) == b'{"r": 10, "self_int"'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("nslattice: ") and err.count("\n") == 1


# 10^4000: argparse reads its 4,001 digits, but the results have about 8,000
BIG = "1" + "0" * 4000


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default limit of 4,300 digits on integer string conversion",
)
@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
@pytest.mark.parametrize(
    "argv",
    [
        ["hirzebruch", "nef", "--n", BIG, "--a", BIG, "--b", "0"],
        ["intersect", "--family", "hirzebruch", "--n", BIG, "--d1", f"{BIG},0", "--d2", "1,0"],
    ],
    ids=["hirzebruch-nef", "intersect"],
)
def test_result_too_long_to_print_is_one_line_and_exit_1(capsys, argv, pretty):
    code, out, err = run_cli(capsys, argv + pretty)
    assert code == 1 and out == ""
    assert err.startswith("nslattice: cannot write the output: ") and err.count("\n") == 1


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default limit of 4,300 digits on integer string conversion",
)
@pytest.mark.parametrize(
    "argv",
    [
        ["hirzebruch", "anticanonical", "--n", "1" + "0" * 5000],
        ["intersect", "--family", "hirzebruch", "--n", "1", "--d1", "1" + "0" * 5000 + ",0",
         "--d2", "1,0"],
    ],
    ids=["integer-flag", "class-flag"],
)
def test_flag_past_the_digit_limit_is_a_short_usage_error(capsys, argv):
    # read as a string, it was echoed whole as "--n must be an integer, got '1000…'"
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "Exceeds the limit (4300 digits)" in err
    assert len(err) < 1000 and "0" * 100 not in err


def test_flag_nested_past_the_decoder_stack_is_a_usage_error(capsys):
    argv = ["intersect", "--family", "hirzebruch", "--n", "1", "--d1", "[" * 100_000, "--d2", "1,0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "recursion" in err and len(err) < 1000 and "Traceback" not in err


def test_refused_value_is_echoed_up_to_100_characters(capsys):
    long_text = "1_" + "0" * 500  # not JSON, so it stays a string
    code, out, err = run_cli(capsys, ["hirzebruch", "anticanonical", "--n", long_text])
    assert code == 2 and out == ""
    echoed = repr(long_text)[:99] + "…"
    assert err == f"nslattice: n must be an integer, got {echoed}\n"
    # a value whose repr fits is echoed whole, as before
    code, out, err = run_cli(capsys, ["hirzebruch", "anticanonical", "--n", "1_0"])
    assert err == "nslattice: n must be an integer, got '1_0'\n"


def test_long_family_and_curves_are_echoed_up_to_100_characters(capsys, tmp_path):
    # each was echoed whole: 5,090 bytes on stderr for this family
    code, out, err = run_cli(capsys, ["genus", "--family", "x" * 5000, "--r", "1", "--d", "1,0"])
    assert code == 2 and out == "" and len(err.encode()) < 200
    names = "hirzebruch, blowup_p2, blowup_hirzebruch"
    assert err == f"nslattice: lattice family must be one of {names}, got {repr('x' * 5000)[:99]}…\n"
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"lattice": {"family": "blowup_p2", "r": 1}, "curves": "x" * 5000}))
    code, out, err = run_cli(capsys, ["blowup", "forced-fixed", "--json", str(path)])
    assert code == 2 and out == "" and len(err.encode()) < 200
    assert err.startswith("nslattice: curves must be a list of witnesses, got 'xxx")
    # a value whose repr fits is echoed whole, as before
    code, out, err = run_cli(capsys, ["genus", "--family", "plane", "--r", "1", "--d", "1,0"])
    assert err == f"nslattice: lattice family must be one of {names}, got 'plane'\n"


def test_selfcheck_config_past_the_blowup_bound_is_usage_error(capsys, tmp_path):
    # the family checks would build a lattice of 10,001 points and fail inside
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_SELFCHECK, "family_r_max": 10_001, "family_n_max": 0}))
    code, out, err = run_cli(capsys, ["selfcheck", "--json", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: ") and err.count("\n") == 1
    assert "family_r_max" in err and "10,000" in err


@pytest.mark.parametrize("via", ["--json"])
def test_too_deeply_nested_payload_is_usage_error(capsys, tmp_path, via):
    # json.load raises RecursionError long before this depth is reached
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, ["intersect", via, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: malformed JSON payload") and err.count("\n") == 1
    assert "Traceback" not in err


# configs outside the stability check's premise: (-1)-classes finite for every
# r <= enum_r_max, and both bounds at the largest degree of one (6 at r = 8)
OUTSIDE_ENUMERATION_PREMISE = {
    "stability-bound-below-degree": ({"enum_r_max": 8, "enum_stability_bound": 5}, "enum_stability_bound"),
    "degree-bound-below-degree": ({"enum_r_max": 8, "enum_degree_bound": 3}, "enum_degree_bound"),
    "infinitely-many-at-9": ({"enum_r_max": 9}, "enum_r_max"),
    "budget-at-10": ({"enum_r_max": 10}, "enum_r_max"),
    "budget-at-11": ({"enum_r_max": 11}, "enum_r_max"),
}


@pytest.mark.parametrize(
    "payload,key", OUTSIDE_ENUMERATION_PREMISE.values(), ids=OUTSIDE_ENUMERATION_PREMISE.keys()
)
def test_selfcheck_config_outside_the_enumeration_premise_is_usage_error(
    capsys, tmp_path, payload, key
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_SELFCHECK, **payload}))
    code, out, err = run_cli(capsys, ["selfcheck", "--json", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("nslattice: ") and err.count("\n") == 1
    assert key in err


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter and return its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# a value for every input flag, on Bl_1 F_5, the lattice of MODEL_BH51, which
# the blowup leaves read; the selfcheck reads SMALL_SELFCHECK
LEAF_FLAGS = {
    "family": "blowup_hirzebruch", "n": "5", "r": "1", "d": "1,5,0", "d1": "1,0,0", "d2": "0,1,0",
    "a": "1", "b": "2", "self-int": "-1", "degree-bound": "2",
}
LEAF_JSON = {"blowup": ["--json", "MODEL"], "selfcheck": ["--json", "CONFIG"]}
# the modules each command group loads besides nslattice, cli, errors and values;
# a lattice leaf loads the lattice alone
GROUP_LOADS = {
    "enumerate": ["nslattice.enumeration", "nslattice.lattice"],
    "hirzebruch": ["nslattice.hirzebruch"],
    "blowup": ["nslattice.blowup", "nslattice.lattice"],
    "selfcheck": [f"nslattice.{m}" for m in ("blowup", "enumeration", "hirzebruch", "lattice", "selfcheck")],
}
LOADED_BY = {
    path: (
        [*path.split(), *(f"--{flag}={LEAF_FLAGS[flag]}" for flag in flags), *LEAF_JSON.get(group, [])],
        GROUP_LOADS.get(group, ["nslattice.lattice"]),
    )
    for path, flags, _, handler in COMMANDS
    if handler is not None
    for group in [path.split()[0]]
}
# a hirzebruch document holds no verdict, so --strict loads no blowup
LOADED_BY["hirzebruch nef --strict"] = (LOADED_BY["hirzebruch nef"][0] + ["--strict"], ["nslattice.hirzebruch"])


@pytest.mark.parametrize("argv,extra", LOADED_BY.values(), ids=LOADED_BY.keys())
def test_a_command_loads_only_its_own_module(tmp_path, argv, extra):
    files = {"MODEL": MODEL_BH51, "CONFIG": SMALL_SELFCHECK}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    lines = run_fresh(
        "import contextlib, io, sys\n"
        "from nslattice.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'nslattice'))\n"
    )
    base = ["nslattice", "nslattice.cli", "nslattice.errors", "nslattice.values"]
    assert lines == [" ".join(sorted(base + extra))]


def test_every_public_name_is_its_module_object():
    lines = run_fresh(
        "import sys, nslattice\n"
        "from nslattice import *\n"
        "mods = [sys.modules[f'nslattice.{m}'] for m in\n"
        "        ('errors', 'values', 'lattice', 'enumeration', 'hirzebruch', 'blowup', 'selfcheck')]\n"
        "for name in nslattice.__all__:\n"
        "    obj = globals()[name]\n"
        "    owners = [m for m in mods if name in vars(m)]\n"
        "    assert owners and all(vars(m)[name] is obj for m in owners), name\n"
        "    assert getattr(nslattice, name) is obj, name\n"
        "print(len(nslattice.__all__), hasattr(nslattice, 'no_such_name'))\n"
    )
    assert lines == ["50 False"]


def test_one_blowup_name_binds_the_whole_module():
    lines = run_fresh(
        "import sys, nslattice\n"
        "before = set(vars(nslattice))\n"
        "nslattice.Report\n"
        "blowup, lattice = sys.modules['nslattice.blowup'], sys.modules['nslattice.lattice']\n"
        "own = {n for n in nslattice.__all__ if n in vars(blowup)} - before - set(vars(lattice))\n"
        "print(len(own), own <= set(vars(nslattice)), vars(nslattice)['blowup'] is blowup)\n"
        "print('nslattice.hirzebruch' in sys.modules, 'nslattice.selfcheck' in sys.modules)\n"
    )
    assert lines == ["15 True True", "False False"]


B1 = {"family": "blowup_p2", "r": 1}
SELFCHECK_DEFAULT_SEED = {k: v for k, v in SMALL_SELFCHECK.items() if k != "seed"}


def _and_null(payload, key):
    return payload, {**payload, key: None}


# an optional key given as JSON null takes its default, as if it were absent:
# (argv, payload without the key, the same payload with the key set to null)
NULL_OPTIONAL = {
    "degree-bound": (["enumerate", "--r", "2", "--self-int=-1"], *_and_null({}, "degree_bound")),
    "nested-lattice": (
        ["intersect", "--d1", "1,0", "--d2", "1,0"],
        *_and_null({"family": "hirzebruch", "n": 2}, "lattice"),
    ),
    "prime-flag": (["blowup", "classify", "--d", "0,1"], *_and_null({"lattice": B1}, "prime")),
    "curve-prime": (
        ["blowup", "nef-test", "--d", "0,1"],
        {"lattice": B1, "curves": [{"coeffs": [0, 1]}]},
        {"lattice": B1, "curves": [{"coeffs": [0, 1], "prime": None}]},
    ),
    "curves": (["blowup", "consequences"], *_and_null({"lattice": B1}, "curves")),
    "witness-complete": (["blowup", "consequences"], *_and_null(MODEL_B9, "witness_complete")),
    "selfcheck-seed": (["selfcheck"], *_and_null(SELFCHECK_DEFAULT_SEED, "seed")),
}


@pytest.mark.parametrize("argv,absent,null", NULL_OPTIONAL.values(), ids=NULL_OPTIONAL.keys())
def test_null_optional_key_takes_its_default(capsys, tmp_path, argv, absent, null):
    runs = []
    for doc in (absent, null):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(doc))
        runs.append(run_cli(capsys, argv + ["--json", str(path)]))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


def test_null_required_key_is_missing(capsys, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text('{"r": null}')
    code, out, err = run_cli(capsys, ["enumerate", "--self-int=-1", "--json", str(path)])
    assert (code, out, err) == (2, "", "nslattice: blowup_p2 lattice requires r\n")


def test_selfcheck_reads_no_config_from_the_environment(capsys, tmp_path, monkeypatch):
    # the config comes through --json alone: a file the variable once named is not read
    import nslattice.selfcheck as sc

    configs = []
    monkeypatch.setattr(sc, "run_selfcheck", lambda config: configs.append(config) or [])
    (tmp_path / "bad.json").write_text('{"bogus": 1}')
    monkeypatch.setenv("NSLATTICE_CONFIG", str(tmp_path / "bad.json"))
    assert run_cli(capsys, ["selfcheck"]) == (0, '{"passed": true, "checks": []}\n', "")
    assert configs == [sc.SelfcheckConfig()]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_config_env_is_read_by_selfcheck_only(capsys, tmp_path, monkeypatch, argv, expected):
    # no command reads the variable, selfcheck included (the test above);
    # any command that read the missing file would exit 2
    monkeypatch.setenv("NSLATTICE_CONFIG", str(tmp_path / "missing.json"))
    assert run_cli(capsys, argv) == (0, expected, "")


def _verdict(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return list(json.loads(out.getvalue()).items())


@settings(deadline=None)
@given(st.integers(0, 12), st.integers(-5, 20), st.integers(-5, 20))
def test_hirzebruch_verdicts_follow_from_the_pairings(n, a, b):
    flags = [f"--n={n}", f"--a={a}", f"--b={b}"]
    head = [("n", n), ("a", a), ("b", b)]
    effective = a >= 0 and b >= 0
    assert _verdict(["hirzebruch", "effective", *flags]) == head + [
        ("effective", effective), ("multiplicities", [a, b] if effective else None)
    ]
    # x.F = a and x.C_n = b - n*a
    section = b - n * a
    if a < 0:
        verdict = [("nef", False), ("violator", "F"), ("pairing", a)]
    elif section < 0:
        verdict = [("nef", False), ("violator", f"C{n}"), ("pairing", section)]
    else:
        verdict = [("nef", True), ("s", a), ("t", section)]
    assert _verdict(["hirzebruch", "nef", *flags]) == head + verdict


# each (argv, payload, what stderr must hold); FILE names the payload, not written when None
USAGE_ERROR_MESSAGES = {
    "missing-payload-file": (["intersect", "--json", "FILE"], None, "nslattice: cannot read JSON payload: "),
    "non-integer-coefficient": (
        ["intersect", "--family", "hirzebruch", "--n", "1", "--d1", "1,x", "--d2", "1,0"],
        None,
        "nslattice: d1 must be a list of integers, got '1,x'\n",
    ),
    "curves-object": (
        ["blowup", "forced-fixed", "--json", "FILE"],
        {"lattice": {"family": "blowup_p2", "r": 1}, "curves": {"coeffs": [1, 0]}},
        "nslattice: curves must be a list of witnesses, got {",
    ),
}


@pytest.mark.parametrize(
    "argv,payload,message", USAGE_ERROR_MESSAGES.values(), ids=USAGE_ERROR_MESSAGES.keys()
)
def test_cli_error_path_is_usage_error(capsys, tmp_path, argv, payload, message):
    path = tmp_path / "payload.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, [str(path) if a == "FILE" else a for a in argv])
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


# each command: its argv with valid values of its other inputs, its payload, the
# payload key of a bad input, that input's flag text and JSON value, and its refusal
BAD_INPUTS = {
    "intersect": (["intersect", "--family", "hirzebruch", "--d1", "1,0", "--d2", "1,0"], {},
                  "n", "1.5", 1.5, "n must be an integer, got 1.5"),
    "genus": (["genus", "--family", "blowup_p2", "--d=3,1"], {},
              "r", "1_0", "1_0", "r must be an integer, got '1_0'"),
    "enumerate": (["enumerate", "--r", "2", "--self-int=-1"], {},
                  "degree_bound", "true", True, "degree_bound must be an integer, got True"),
    "hirzebruch nef": (["hirzebruch", "nef", "--n", "3", "--b", "5"], {},
                       "a", "[2]", [2], "a must be an integer, got [2]"),
    "blowup classify": (["blowup", "classify"], {"lattice": {"family": "hirzebruch", "n": 1}},
                        "d", "1.5,0", [1.5, 0], "d must be a list of integers, got [1.5, 0]"),
}


@pytest.mark.parametrize(
    "argv,payload,key,text,value,message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys()
)
def test_bad_input_is_refused_alike_as_flag_and_payload_key(
    capsys, tmp_path, argv, payload, key, text, value, message
):
    # the library names the value by its payload key, however it arrived
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    flag = argv + ["--json", str(path), f"--{key.replace('_', '-')}={text}"]
    as_flag = run_cli(capsys, flag)
    path.write_text(json.dumps({**payload, key: value}))
    as_key = run_cli(capsys, argv + ["--json", str(path)])
    assert as_flag == as_key == (2, "", f"nslattice: {message}\n")


def test_a_flag_is_named_alike_by_every_command(capsys):
    # enumerate named it "--r", genus "r"
    genus = run_cli(capsys, ["genus", "--family", "blowup_p2", "--r", "1_0", "--d=3,1"])
    enumerate_ = run_cli(capsys, ["enumerate", "--r", "1_0", "--self-int=-1"])
    assert genus == enumerate_ == (2, "", "nslattice: r must be an integer, got '1_0'\n")


# each value flag: a command that reads it, and valid values of that command's other inputs
FLAG_READERS = {
    "family": (["intersect"], {"n": 2, "d1": [1, 0], "d2": [1, 0]}),
    "n": (["intersect"], {"family": "hirzebruch", "d1": [1, 0], "d2": [1, 0]}),
    "d1": (["intersect"], {"family": "hirzebruch", "n": 2, "d2": [1, 0]}),
    "d2": (["intersect"], {"family": "hirzebruch", "n": 2, "d1": [1, 0]}),
    "r": (["genus"], {"family": "blowup_p2", "d": [3, -1]}),
    "d": (["genus"], {"family": "blowup_p2", "r": 1}),
    "self-int": (["enumerate"], {"r": 2, "degree_bound": 7}),
    "degree-bound": (["enumerate"], {"r": 2, "self_int": -1}),
    "a": (["hirzebruch", "nef"], {"n": 3, "b": 5}),
    "b": (["hirzebruch", "nef"], {"n": 3, "a": 2}),
}
CLASS_FLAGS = ("d", "d1", "d2")


@pytest.mark.parametrize("flag", sorted(_FLAGS))
def test_flag_reads_as_its_payload_key(capsys, tmp_path, flag):
    # the flag's text is the JSON of its payload key's value, a class flag's
    # the entries of its list but for null; text that is not JSON is a plain string
    argv, others = FLAG_READERS[flag]
    key = flag.replace("-", "_")
    values = (1.5, "x", True, None, [1])
    cases = [(json.dumps(v), [v] if flag in CLASS_FLAGS and v is not None else v) for v in values]
    cases += [(text, text) for text in ("1_0", "+3", "07")]
    path = tmp_path / "payload.json"
    for text, value in cases:
        path.write_text(json.dumps(others))
        by_flag = run_cli(capsys, argv + [f"--{flag}={text}", "--json", str(path)])
        path.write_text(json.dumps({**others, key: value}))
        by_key = run_cli(capsys, argv + ["--json", str(path)])
        assert by_flag == by_key, text
        # null is absent, and only the degree bound has a default
        assert by_flag[0] == (0 if (flag, text) == ("degree-bound", "null") else 2), by_flag
