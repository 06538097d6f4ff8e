import hashlib
import json
import subprocess
import sys

import pytest

from helpers import scaled_inverse_degree_conjugate
from rbalg import MonomialOperatorTable, prime_field, rb_check
from rbalg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_weight_one_has_the_expected_entry(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "weight-one", "--alpha", "1",
        "--degree", "6", "--field", "Q",
    )
    assert code == 0
    data = json.loads(out)
    by_src = {tuple(e["src"]): e for e in data["entries"]}
    assert by_src[(3,)]["coeff"] == "1/7"
    assert by_src[(3,)]["dst"] == [3]
    assert data["weight"] == "1"


def test_construct_output_is_deterministic(capsys):
    args = [
        "construct", "--family", "weight-one", "--alpha", "1/2",
        "--degree", "5", "--field", "Q",
    ]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_construct_check_round_trip(tmp_path, capsys):
    path = tmp_path / "op.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "weight-one", "--alpha", "2",
        "--degree", "6", "--field", "Q", "--output", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", "1")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["checked_pairs"] > 0


def test_check_identity_operator_fails(tmp_path, capsys):
    operator = {
        "kind": "monomial",
        "algebra": {"field": "Q", "nvars": 1, "unital": False, "truncation": None},
        "weight": "0",
        "degree_bound": 4,
        "entries": [
            {"src": [n], "coeff": "1", "dst": [n]} for n in range(1, 5)
        ],
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(operator))
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", "0")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["violation"]["u"] == [1]
    assert report["violation"]["v"] == [1]


def test_classify_match_only_recovers_parameters(tmp_path, capsys):
    path = tmp_path / "op.json"
    run_cli(
        capsys, "construct", "--family", "weight-one", "--alpha", "2",
        "--degree", "6", "--field", "Q", "--output", str(path),
    )
    code, out, _ = run_cli(
        capsys, "classify", "--match-only", "--operator", str(path), "--field", "Q",
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "weight_one_family"
    assert data["alpha"] == "2"


def test_classify_search_reports_solutions(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--weight", "1", "--degree", "5", "--field", "Q",
        "--grid", "1,-1",
    )
    assert code == 0
    data = json.loads(out)
    kinds = {s["match"]["kind"] for s in data["solutions"]}
    assert "weight_one_family" in kinds
    assert "trivial_zero" in kinds
    assert data["stats"]["shapes_enumerated"] >= 1


def test_classify_unital_flag(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--weight", "0", "--unital", "true", "--degree", "4",
        "--field", "Q", "--grid", "1,2",
    )
    assert code == 0
    data = json.loads(out)
    unit_sources = [
        s
        for s in data["solutions"]
        if any(e["src"] == [0] for e in s["table"]["entries"])
    ]
    assert unit_sources  # searching the unital algebra covers R(1)


def test_classify_explicit_grid_over_a_large_prime(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--field", "Fp:101", "--grid", "1,2,3", "--degree", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["solutions"]
    assert {s["table"]["algebra"]["field"] for s in data["solutions"]} == {"Fp:101"}


def test_classify_default_grid_over_a_large_prime_is_refused(capsys):
    code, out, err = run_cli(capsys, "classify", "--field", "Fp:101", "--degree", "5")
    assert code == 2
    assert out == ""
    assert err == (
        "error: default grids over GF(p) are desk-scale only (p <= 64); "
        "pass an explicit strategy\n"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "--weight 1 --degree 8",
            "cc6f0c3b05b287a43821d1855af2946d7386a782caa37529036fd86ceb2844d3",
        ),
        (
            "--weight 0 --unital true --degree 6",
            "2fa6eb54399869e568e384db18afb5b2a6c0cee11a6e29021735ab34ef369412",
        ),
        (
            "--field Fp:11 --grid 1,2,3 --weight 0 --unital true --degree 5",
            "d83f5a08eed54a7786f3d9a29c6c91664c38a82b7929843c7a27abc7449017a8",
        ),
    ],
)
def test_classify_output_is_pinned(capsys, argv, digest):
    """sha256 of the canonical stdout, so any change to a report shows."""
    code, out, _ = run_cli(capsys, "classify", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_over_a_prime_beyond_4096(capsys):
    # weight-one shapes here give quadratics, whose roots are found by
    # trying every element of GF(4099)
    code, out, _ = run_cli(
        capsys, "classify", "--field", "Fp:4099", "--grid", "1,2,3", "--unital", "true",
        "--weight", "1", "--degree", "4",
    )
    assert code == 0
    solutions = json.loads(out)["solutions"]
    assert solutions
    for s in solutions:
        table = MonomialOperatorTable.from_json_dict(s["table"])
        assert table.algebra.field == prime_field(4099)
        assert rb_check(table, table.weight, 4).passed


def test_grade_quotient_table(tmp_path, capsys):
    path = tmp_path / "ex.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "quotient-one", "--field", "Fp:5",
        "--truncation", "3", "--output", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "grade", "--operator", str(path), "--weight", "1")
    assert code == 0
    data = json.loads(out)
    assert data["spectrum"] == ["1", "2", "3"]
    assert data["violations"] == 0
    products = {(p["left"], p["right"]): p for p in data["products"]}
    assert products[("1", "2")]["status"] == "contained"
    assert products[("1", "2")]["product"] == "3"
    assert products[("1", "3")]["status"] == "zero"
    assert products[("1", "3")]["product"] is None


def test_grade_dense_conjugate_over_q(tmp_path, capsys):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(scaled_inverse_degree_conjugate(16).to_json_dict()))
    code, out, _ = run_cli(capsys, "grade", "--operator", str(path), "--weight", "0")
    assert code == 0
    data = json.loads(out)
    assert len(data["spectrum"]) == 16
    assert data["violations"] == 0


def test_grade_non_split_spectrum_is_a_usage_error(tmp_path, capsys):
    operator = {
        "kind": "monomial",
        "algebra": {"field": "Fp:3", "nvars": 1, "unital": False, "truncation": 2},
        "weight": "0",
        "degree_bound": 2,
        "entries": [
            {"src": [1], "coeff": "1", "dst": [2]},
            {"src": [2], "coeff": "2", "dst": [1]},
        ],
    }
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(operator))
    code, out, err = run_cli(capsys, "grade", "--operator", str(path), "--weight", "0")
    assert code == 2
    assert out == ""
    assert err == "error: generalized eigenspaces cover 0 of 2 dimensions\n"


def test_aybe_search_and_check(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "aybe", "search", "--degree", "1", "--weight", "1",
        "--grid", "0,1,-1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2  # zero and the unit tensor

    tensor = {
        "algebra": {"field": "Q", "nvars": 1, "unital": True, "truncation": None},
        "arity": 2,
        "terms": [{"exps": [[0], [0]], "coeff": "1"}],
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(tensor))
    code, out, _ = run_cli(capsys, "aybe", "check", "--r", str(path), "--weight", "1")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(capsys, "aybe", "check", "--r", str(path), "--weight", "2")
    assert code == 1


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert len(data["cases"]) == 5


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "check", "--operator", "/nonexistent/op.json", "--weight", "1"
    )
    assert code == 2
    assert "error" in err


def test_pretty_rendering(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "weight-one", "--alpha", "1",
        "--degree", "3", "--field", "Q", "--pretty",
    )
    assert code == 0
    assert "R(x1^3) = 1/7*x1^3" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "rbalg.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "pass"
