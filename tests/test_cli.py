import hashlib
import json
import subprocess
import sys

import pytest

from helpers import quadratic_shift_conjugate, scaled_inverse_degree_conjugate, search_checks
from rbalg import (
    QQ,
    AlgebraSpec,
    AutomorphismSpec,
    DenseOperator,
    MonomialOperatorTable,
    MultivariateFamilyParams,
    MultivariateKind,
    Polynomial,
    construct_integral,
    construct_multivariate,
    construct_weight_one_univariate,
    enumerate_monomial_rb,
    op_conjugate,
    prime_field,
    rb_check,
)
from rbalg.classify import CoefficientStrategy, default_strategy
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


def test_check_negative_degree_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "op.json"
    run_cli(
        capsys, "construct", "--family", "weight-one", "--alpha", "1",
        "--degree", "4", "--output", str(path),
    )
    code, out, err = run_cli(
        capsys, "check", "--operator", str(path), "--weight", "1", "--degree", "-1"
    )
    assert (code, out) == (2, "")
    assert err == "error: check degree must be >= 0, got -1\n"
    code, out, _ = run_cli(
        capsys, "check", "--operator", str(path), "--weight", "1", "--degree", "0"
    )
    assert (code, json.loads(out)) == (0, {"status": "pass", "checked_pairs": 0})

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


@pytest.mark.parametrize(
    "family,checked,skipped",
    [
        (["--family", "integral", "--unital", "--a", "1"], 12, 4),
        (["--family", "weight-zero", "--m", "1", "--pq", "2:1"], 6, 3),
    ],
    ids=["integral", "weight-zero"],
)
def test_check_skips_pairs_outside_the_domain(tmp_path, capsys, family, checked, skipped):
    # R raises degree, so at the top of the window R(u)v leaves the domain
    path = tmp_path / "op.json"
    code, _, _ = run_cli(capsys, "construct", *family, "--degree", "6", "--output", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", "0")
    assert code == 0
    assert json.loads(out) == {"status": "pass", "checked_pairs": checked, "skipped_pairs": skipped}
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", "0", "--pretty")
    assert code == 0
    assert out == f"pass ({checked} pairs, {skipped} outside the domain)\n"


def _dense_weight_one_gf53():
    # conjugate under x -> x + 2x^2 of the weight-one table (alpha = 3) on GF(53)0[x]/(x^7)
    field = prime_field(53)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=6)
    table = construct_weight_one_univariate(field.from_int(3), algebra, 6)
    return quadratic_shift_conjugate(table, field.from_int(2))


def _perturbed_dense_gf53():
    R = _dense_weight_one_gf53()
    algebra = R.algebra
    images = dict(R.images)
    x2 = algebra.monomial(2)
    images[x2] = images[x2] + Polynomial.monomial(algebra, algebra.monomial(3))
    return DenseOperator(algebra, R.weight, R.degree_bound, images)


def _bivariate_weight_one_table(alphas=(1, 2), T=4):
    # the multivariate-one family on Q0[x, y] truncated above degree T
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=T)
    params = MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, tuple(map(QQ.from_int, alphas)))
    return construct_multivariate(params, algebra, T)


def _doubled_xy_table():
    # the multivariate-one family at alphas (1, 1) on Q0[x, y]/(degree > 3), the xy
    # coefficient doubled: x and y share the eigenvalue 1, and x*y leaves A_(1 o 1)
    table = _bivariate_weight_one_table((1, 1), 3)
    entries = dict(table.entries)
    xy = table.algebra.monomial(1, 1)
    entries[xy] = (entries[xy][0] * 2, xy)
    return MonomialOperatorTable(table.algebra, table.weight, table.degree_bound, entries)


@pytest.mark.parametrize(
    "build,weight,exit_code,digest",
    [
        (
            lambda: scaled_inverse_degree_conjugate(6),
            "0",
            0,
            "515bb910d9641aa17740ae6ec3892b27c2ee9f9871d75bd8d8aa747e47c28ead",
        ),
        (
            _dense_weight_one_gf53,
            "1",
            0,
            "515bb910d9641aa17740ae6ec3892b27c2ee9f9871d75bd8d8aa747e47c28ead",
        ),
        (
            _perturbed_dense_gf53,
            "1",
            1,
            "73b7c4cc3c3e9c39b70a452b33a40aeb3fd2c334088062298b267aca9e289256",
        ),
    ],
    ids=["dense-conjugate-q", "dense-conjugate-gf53", "perturbed-dense-gf53"],
)
def test_check_output_is_pinned(tmp_path, capsys, build, weight, exit_code, digest):
    """sha256 of the canonical stdout of ``rbalg check`` on dense operators."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps(build().to_json_dict()))
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", weight)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "--family weight-zero --m 2 --pq 1:1;2:1/3 --degree 6",
            "f308561d5057acc4ddad58b319d093823b39f8d64db65f159bd4ae353c941a0b",
        ),
        (
            "--family weight-one --alpha 1/2 --degree 6",
            "e20998b4df1e9c485b4557922709af06e68aaffaf074253833006df2c84e763e",
        ),
        (
            "--family multivariate-one --nvars 2 --alphas 1,2 --degree 4",
            "bf2a0c5c27a0cbfd66d745f35b94d7bbee26cb57b49740ff2dc38b9b5e05c8a2",
        ),
        (
            "--family splitting --nvars 2 --unital --second-vars 2 --degree 3",
            "fb73004f116af33a82f46dbfab02498b3526db6240da5172fc5c75a8486e9d5f",
        ),
        (
            "--family integral --a 1 --unital --degree 4",
            "fc0d00f177a96faeef125d14e5dc12f9a6ef4fed366e0a21fe0351d39c806681",
        ),
    ],
    ids=["weight-zero", "weight-one", "multivariate-one", "splitting", "dense-integral"],
)
def test_construct_output_is_pinned(capsys, argv, digest):
    """sha256 of the canonical stdout of ``rbalg construct``."""
    code, out, _ = run_cli(capsys, "construct", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        "--family weight-zero --m 2 --pq 1:1;2:1/3 --degree 6",
        "--family weight-zero --m 3 --pq 1:2;0:0;2:-1 --unital --degree 7 --field Fp:11",
        "--family weight-one --alpha 1/2 --degree 6",
        "--family weight-one --alpha 1 --degree 6 --field Fp:13 --truncation 6",
        "--family multivariate-one --nvars 2 --alphas 1,2 --degree 4",
        "--family multivariate-one --nvars 3 --alphas 1,2,-1 --degree 3",
        "--family multivariate-zero --nvars 2 --alphas 1,2 --degree 4",
        "--family integral --a 1 --unital --degree 4",
        "--family integral --unital --degree 4 --field Fp:11",
        "--family splitting --nvars 2 --unital --second-vars 2 --degree 3",
        "--family splitting --unital --second constants --weight 2 --degree 4",
        "--family splitting --nvars 2 --second-vars 1 --weight 3 --degree 3 --field Fp:5",
        "--family quotient-one --truncation 5 --field Fp:11",
        "--family quotient-zero --truncation 4 --field Fp:7",
    ],
)
def test_construct_families_load_back_and_pass_the_check(tmp_path, capsys, argv):
    """The output of every construct family, written to a file, loads back
    in ``rbalg check`` and passes at its own weight, exit 0."""
    path = tmp_path / "op.json"
    code, _, _ = run_cli(capsys, "construct", *argv.split(), "--output", str(path))
    assert code == 0
    weight = json.loads(path.read_text())["weight"]
    code, out, err = run_cli(capsys, "check", "--operator", str(path), "--weight", weight)
    assert (code, json.loads(out)["status"], err) == (0, "pass", "")


@pytest.mark.parametrize(
    "argv",
    [
        "--weight 0 --degree 4",
        "--weight 0 --unital true --degree 4 --grid 1,-1,1/2",
        "--weight 0 --field Fp:7 --grid 1,3 --degree 5",
        "--weight 0 --unital true --field Fp:11 --grid 2,5 --degree 4",
        "--weight 1 --degree 6 --grid 1,-1,2",
        "--weight 1 --unital true --degree 5",
        "--weight 1 --field Fp:11 --grid 1,2,3 --degree 6",
    ],
)
def test_classify_tables_load_back(tmp_path, capsys, argv):
    """Every table of an ``rbalg classify`` report, written to a file, loads
    back in ``rbalg check`` (exit 0) and in ``classify --match-only``, which
    gives the report's match wherever the search pinned every coefficient.
    The weight-zero reports hold tables of symbolic groups, which the
    search reported without a check of their own."""
    with search_checks() as checks:
        code, out, _ = run_cli(capsys, "classify", *argv.split())
    assert code == 0
    solutions = json.loads(out)["solutions"]
    assert solutions
    assert any(held for symbolic, held in checks if symbolic) == ("--weight 0" in argv)
    path = tmp_path / "op.json"
    for sol in solutions:
        path.write_text(json.dumps(sol["table"]))
        code, out, err = run_cli(capsys, "check", "--operator", str(path), "--weight", sol["table"]["weight"])
        assert (code, json.loads(out)["status"], err) == (0, "pass", ""), sol
        code, out, err = run_cli(capsys, "classify", "--match-only", "--operator", str(path))
        assert (code, err) == (0, "")
        if not sol["under_constrained"]:
            assert json.loads(out) == sol["match"], sol


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


def test_classify_match_only_with_a_vanishing_family_denominator(tmp_path, capsys):
    field = prime_field(2)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=4)
    entries = {
        algebra.monomial(1): (field.one(), algebra.monomial(3)),
        algebra.monomial(2): (field.one(), algebra.monomial(4)),
    }
    path = tmp_path / "op.json"
    path.write_text(json.dumps(MonomialOperatorTable(algebra, field.zero(), 4, entries).to_json_dict()))
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", "0")
    assert (code, json.loads(out)) == (0, {"checked_pairs": 10, "status": "pass"})
    code, out, err = run_cli(capsys, "classify", "--match-only", "--operator", str(path))
    assert (code, json.loads(out), err) == (0, {"kind": "unmatched"}, "")


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


@pytest.mark.parametrize("unital", ["false", "true"])
def test_classify_weight_one_at_the_cost_guard(capsys, unital):
    """The cost guard is per weight: weight one searches up to bound 16,
    unital or not, and refuses 17 as a usage error."""
    code, out, err = run_cli(capsys, "classify", "--weight", "1", "--unital", unital, "--degree", "16")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["solutions"]) == (4 if unital == "true" else 7)
    code, out, err = run_cli(capsys, "classify", "--weight", "1", "--unital", unital, "--degree", "17")
    assert (code, out) == (2, "") and "cost guard" in err


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
    "argv,digest,solutions_digest",
    [
        pytest.param(
            "--weight 1 --degree 8",
            "8dd3857bcc9e03ec31bc795479015df1a7ae37224b8586f14236dd80c42279c9",
            "4fd9e122cb022b93c41336afb16c9b8a1383f8653d1fcbf23093575082d307c9",
            id="--weight 1 --degree 8",
        ),
        pytest.param(
            "--weight 0 --unital true --degree 6",
            "b3bfe7b4fbf9db591710f4e34f27c83ec81566c80863be40a82d1e304dc81417",
            "6a9e6ace97ece8b5249b2691d766f74e40dd6b332dcac2e5aceb7b299fc9ea95",
            id="--weight 0 --unital true --degree 6",
        ),
        pytest.param(
            "--field Fp:11 --grid 1,2,3 --weight 0 --unital true --degree 5",
            "559b6d3b201c4ec5f4a1360383395daf79f3dd5e6b4eb8be5fd47349cab80007",
            "533dc0bc630f62e694b5f48186249378def9e49394040b33bcae778723155b56",
            id="--field Fp:11 --grid 1,2,3 --weight 0 --unital true --degree 5",
        ),
        # on k0[x] a basis position is one less than the exponent it stands for
        pytest.param(
            "--weight 0 --degree 5",
            "747a08057eb09bbe3c2b93bcde1f03ca3c188b5305709d81bae82dd0b22d4446",
            "41a3d7814ef1263f55bf98bf95adc65774700bf9a414c4b5f5db34354dbf80ee",
            id="--weight 0 --degree 5",
        ),
        pytest.param(
            "--field Fp:7 --grid 1,2 --weight 0 --degree 4",
            "c2e745f5eeea7393347c73eec9ce964061340edd425a0b60b9ca26fa7d4231ce",
            "920881c7c92acd23b4af674b8c423e95668584ceb9bfa6497cdd6f467f3780ed",
            id="--field Fp:7 --grid 1,2 --weight 0 --degree 4",
        ),
        pytest.param(
            "--weight 1 --unital true --degree 7",
            "9c649631f70c6320896fd53b5abaef8a2b52f3cc0dcb200e540ca00e6284f3ed",
            "b936069ca15bfacb4434f0894d8c2b57606e3637ae48d296002504c145da6330",
            id="--weight 1 --unital true --degree 7",
        ),
    ],
)
def test_classify_output_is_pinned(capsys, argv, digest, solutions_digest):
    """sha256 of the canonical stdout, so any change to a report shows; and
    of its solutions array alone (``json.dumps`` with sorted keys), which a
    change to the shape search's counters leaves as it is."""
    code, out, _ = run_cli(capsys, "classify", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    solutions = json.dumps(json.loads(out)["solutions"], sort_keys=True)
    assert hashlib.sha256(solutions.encode()).hexdigest() == solutions_digest


def test_classify_over_a_prime_beyond_4096(capsys):
    # weight-one shapes here give quadratics, solved in closed form over GF(4099)
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


def test_classify_over_a_prime_beyond_any_scan(capsys):
    """Over GF(1000003) the solver's quadratics have no root scan to fall
    back on; every reported table passes the check."""
    code, out, _ = run_cli(
        capsys, "classify", "--weight", "0", "--degree", "6", "--field", "Fp:1000003",
        "--grid", "1,2,3",
    )
    assert code == 0
    solutions = json.loads(out)["solutions"]
    kinds = [s["match"]["kind"] for s in solutions]
    assert (len(kinds), kinds.count("weight_zero_family")) == (282, 102)
    for s in solutions:
        table = MonomialOperatorTable.from_json_dict(s["table"])
        assert table.algebra.field == prime_field(1000003)
        assert rb_check(table, table.weight, 6).passed


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


def test_grade_nilpotent_shift_over_a_large_prime(tmp_path, capsys):
    # R(x^n) = 2x^(n+1) on k0[x]/(x^5) over GF(1000003): spectrum {0}, one 4-dimensional space
    operator = {
        "kind": "monomial",
        "algebra": {"field": "Fp:1000003", "nvars": 1, "unital": False, "truncation": 4},
        "weight": "0",
        "degree_bound": 4,
        "entries": [{"src": [n], "coeff": "2", "dst": [n + 1]} for n in range(1, 4)],
    }
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(operator))
    code, out, err = run_cli(capsys, "grade", "--operator", str(path), "--weight", "0")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["spectrum"] == ["0"]
    assert [len(space["basis"]) for space in data["spaces"]] == [4]
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


def _three_cycle_table(p):
    # x -> x^2 -> x^3 -> 8x on k0[x]/(x^4): characteristic polynomial t^3 - 8
    return {
        "kind": "monomial",
        "algebra": {"field": f"Fp:{p}", "nvars": 1, "unital": False, "truncation": 3},
        "weight": "1",
        "degree_bound": 3,
        "entries": [
            {"src": [1], "coeff": "1", "dst": [2]},
            {"src": [2], "coeff": "1", "dst": [3]},
            {"src": [3], "coeff": "8", "dst": [1]},
        ],
    }


@pytest.mark.parametrize(
    "p, code, spectrum, err",
    [
        (65539, 1, ["2", "255", "65282"], ""),  # 3 divides p - 1: three cube roots of 8
        (65537, 2, None, "error: generalized eigenspaces cover 1 of 3 dimensions\n"),
    ],
)
def test_grade_a_cubic_spectrum_above_2_16(tmp_path, capsys, p, code, spectrum, err):
    """A cubic factor of the characteristic polynomial is split over
    primes above 65536 too: it grades where t^3 - 8 splits and is a
    non-split spectrum where only its root 2 lies in GF(p)."""
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_three_cycle_table(p)))
    got, out, stderr = run_cli(capsys, "grade", "--operator", str(path), "--weight", "1")
    assert (got, stderr) == (code, err)
    if spectrum is None:
        assert out == ""
    else:
        data = json.loads(out)
        assert data["spectrum"] == spectrum
        assert [len(space["basis"]) for space in data["spaces"]] == [1, 1, 1]
        assert data["violations"] > 0


def _non_diagonal_gf5_table():
    # R(x) = 2x^2, R(x^3) = x^3 on k0[x]/(x^5): spectrum {0, 1}, not diagonal
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=4)
    entries = {
        algebra.monomial(1): (field.from_int(2), algebra.monomial(2)),
        algebra.monomial(3): (field.one(), algebra.monomial(3)),
    }
    return MonomialOperatorTable(algebra, field.zero(), 4, entries)


def _doubled_weight_one_table():
    # R(x^n) = x^n / (2^n - 1) on Q0[x]/(x^6) with the x^2 coefficient doubled
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=5)
    entries = {
        algebra.monomial(n): (QQ.element(2 if n == 2 else 1, 2**n - 1), algebra.monomial(n))
        for n in range(1, 6)
    }
    return MonomialOperatorTable(algebra, QQ.one(), 5, entries)


def _bivariate_weight_one_table(alphas=(1, 2), T=4):
    # the multivariate-one family on Q0[x, y] truncated above degree T
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=T)
    params = MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, tuple(map(QQ.from_int, alphas)))
    return construct_multivariate(params, algebra, T)


def _doubled_xy_table():
    # the multivariate-one family at alphas (1, 1) on Q0[x, y]/(degree > 3), the xy
    # coefficient doubled: x and y share the eigenvalue 1, and x*y leaves A_(1 o 1)
    table = _bivariate_weight_one_table((1, 1), 3)
    entries = dict(table.entries)
    xy = table.algebra.monomial(1, 1)
    entries[xy] = (entries[xy][0] * 2, xy)
    return MonomialOperatorTable(table.algebra, table.weight, table.degree_bound, entries)


@pytest.mark.parametrize(
    "build,weight,exit_code,digest",
    [
        (
            lambda: None,  # ex7 of README.md: quotient-one over GF(5) at N = 3
            "1",
            0,
            "593961d8bb94645c70a249a5b9f1eb568ae2291618da8341bbf0bfc53f6e9146",
        ),
        (
            _non_diagonal_gf5_table,
            "1",
            0,
            "5028c7266f6908f15160b1755c5c440cd89c1f2f4ec86184e35e534ffc72faba",
        ),
        (
            lambda: scaled_inverse_degree_conjugate(6),
            "0",
            0,
            "d566c11b6478f76d56ae9c2f8d60da0511a5467f082387b834c6316b310a856a",
        ),
        (
            _doubled_weight_one_table,
            "1",
            1,
            "ebc88f6978367a148e9c2300866695fb797aff35a892f3aad0b62166abe31f4c",
        ),
        (
            _dense_weight_one_gf53,
            "1",
            0,
            "5fc5d6fef86acb40477a0a49405c595999e9df027888868f679343ef2df0e70f",
        ),
        (
            _bivariate_weight_one_table,
            "1",
            0,
            "2a27f54736ed8dbbd7a1d0cd653645de6021f158a4ea6e40b7ca0a0bd21dda78",
        ),
        (
            _doubled_xy_table,
            "1",
            1,
            "3a9db7fa080dc52375914ec047cce01ec6aa09aa9851b4ce205df7a8c8314a18",
        ),
    ],
    ids=[
        "ex7-gf5", "non-diagonal-gf5", "dense-conjugate-q", "violating-table-q", "dense-conjugate-gf53",
        "multivariate-one-q", "repeated-eigenvalue-violation-q",
    ],
)
def test_grade_output_is_pinned(tmp_path, capsys, build, weight, exit_code, digest):
    """sha256 of the canonical stdout of ``rbalg grade``."""
    path = tmp_path / "op.json"
    op = build()
    if op is None:
        run_cli(
            capsys, "construct", "--family", "quotient-one", "--field", "Fp:5",
            "--truncation", "3", "--output", str(path),
        )
    else:
        path.write_text(json.dumps(op.to_json_dict()))
    code, out, _ = run_cli(capsys, "grade", "--operator", str(path), "--weight", weight)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("dense,weight", [(False, "1"), (True, "0")], ids=["table", "dense"])
def test_grade_operator_defined_below_the_truncation(tmp_path, capsys, dense, weight):
    # above its degree bound an operator is undefined, not zero
    path = tmp_path / "op.json"
    if dense:  # the shift conjugate of the integral on k[x]/(x^7), defined up to degree 4
        integral = construct_integral(QQ.zero(), AlgebraSpec(QQ, unital=True, truncation=6), 4)
        path.write_text(json.dumps(op_conjugate(integral, AutomorphismSpec.shift()).to_json_dict()))
    else:
        code, _, _ = run_cli(
            capsys, "construct", "--family", "weight-one", "--alpha", "1",
            "--truncation", "6", "--degree", "4", "--output", str(path),
        )
        assert code == 0
    code, out, err = run_cli(capsys, "grade", "--operator", str(path), "--weight", weight)
    assert code == 2
    assert out == ""
    assert err == "error: operator defined up to degree 4, got Monomial(5,)\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            "--unital --degree 5 --field Fp:7",
            "the pair (x^0, x^5) has no inner term mod 7, while x^7 survives",
        ),
        (
            "--unital --truncation 8 --degree 3 --field Fp:7",
            "the pair (x^2, x^3) has no inner term mod 7, while x^7 survives",
        ),
        (
            "--a 1 --unital --truncation 5 --degree 5",
            "integration with a base point a != 0 does not preserve the truncation",
        ),
    ],
)
def test_construct_refuses_integrals_that_fail_the_identity(capsys, flags, message):
    """Integrals whose table would fail ``rbalg check`` within its window
    exit 2 with one error line."""
    code, out, err = run_cli(capsys, "construct", "--family", "integral", *flags.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags,message",
    [
        ("--family weight-one --alpha 1 --field Fp:5 --degree 3", "the pair (x1, x1^3) fails the identity mod 5"),
        (
            "--family weight-one --alpha 1 --field Fp:5 --truncation 5 --degree 3",
            "the pair (x1, x1^3) fails the identity mod 5",
        ),
        (
            "--family multivariate-one --nvars 3 --alphas 1,2,3 --field Fp:101 --degree 3",
            "the pair (x3, x1*x3^2) fails the identity mod 101",
        ),
        ("--family weight-zero --m 1 --pq 1:1 --field Fp:7 --degree 6", "the pair (x1, x1^6) fails the identity mod 7"),
        ("--family weight-one --alpha=-1/2 --degree 1", "the pair (x1, x1) fails the identity over Q past the degree bound 1"),
        (
            "--family multivariate-zero --nvars 2 --alphas=1,-1 --degree 1",
            "the pair (x2, x1) fails the identity over Q past the degree bound 1",
        ),
    ],
)
def test_construct_refuses_family_tables_that_fail_past_their_bound(tmp_path, capsys, flags, message):
    """Over GF(p) or Q, on an algebra not truncated at the bound, a family
    table that fails the identity past its bound exits 2 naming the first
    failing pair.  Truncated at its bound the same family is built, and its table
    passes ``rbalg check`` at twice the bound."""
    code, out, err = run_cli(capsys, "construct", *flags.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    args = flags.split()
    if "--truncation" in args:
        del args[args.index("--truncation") : args.index("--truncation") + 2]
    degree = int(args[args.index("--degree") + 1])
    path = tmp_path / "op.json"
    code, _, err = run_cli(capsys, "construct", *args, "--truncation", str(degree), "--output", str(path))
    assert (code, err) == (0, "")
    weight = json.loads(path.read_text())["weight"]
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", weight, "--degree", str(2 * degree))
    assert (code, json.loads(out)["status"]) == (0, "pass")


def test_construct_integral_with_base_point_zero_on_a_truncated_algebra(tmp_path, capsys):
    path = tmp_path / "op.json"
    flags = ["--unital", "--truncation", "5", "--degree", "5", "--output", str(path)]
    code, _, err = run_cli(capsys, "construct", "--family", "integral", "--a", "0", *flags)
    assert (code, err) == (0, "")
    assert json.loads(path.read_text())["kind"] == "monomial"
    code, out, _ = run_cli(capsys, "check", "--operator", str(path), "--weight", "0")
    assert (code, json.loads(out)["status"]) == (0, "pass")


@pytest.mark.parametrize("family", ["quotient-one", "quotient-zero"])
def test_construct_quotient_family_needs_a_truncation(capsys, family):
    code, out, err = run_cli(capsys, "construct", "--family", family, "--field", "Fp:5")
    assert code == 2
    assert out == ""
    assert err == f"error: {family} needs --truncation\n"


@pytest.mark.parametrize("family", ["quotient-one", "quotient-zero"])
@pytest.mark.parametrize("flags", [["--nvars", "2"], ["--unital"], ["--nvars", "2", "--unital"]])
def test_construct_quotient_family_rejects_algebra_flags(capsys, family, flags):
    code, out, err = run_cli(
        capsys, "construct", "--family", family, "--field", "Fp:5", "--truncation", "3", *flags
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {family} is univariate and non-unital: drop --nvars and --unital\n"


def test_classify_explicit_zeros_are_kept(capsys):
    field = QQ
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=4)
    strategy = CoefficientStrategy(default_strategy(field).grid, max_seeds=0)
    report = enumerate_monomial_rb(algebra, field.zero(), 4, strategy)
    assert len(report.solutions) == 24 and len(report.fully_determined()) == 1
    code, out, _ = run_cli(capsys, "classify", "--weight", "0", "--degree", "4", "--max-seeds", "0")
    assert code == 0
    assert out == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    code, out, err = run_cli(capsys, "classify", "--weight", "0", "--degree", "4", "--budget", "0")
    assert code == 2
    assert out == ""
    assert err == (
        "error: shape budget of 0 nodes exhausted\n"
        "search stopped at: nodes 1, shapes 0, pruned 0\n"
    )


def test_classify_repeated_grid_values_print_the_same_report(capsys):
    code, once, _ = run_cli(capsys, "classify", "--weight", "0", "--degree", "4", "--grid", "1,2")
    assert code == 0
    code, twice, _ = run_cli(capsys, "classify", "--weight", "0", "--degree", "4", "--grid", "1,1,2")
    assert code == 0
    assert twice == once


def _weight_one_table_json():
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    return construct_weight_one_univariate(QQ.one(), algebra, 3).to_json_dict()


def _unit_tensor_json(**changes):
    return {
        "algebra": {"field": "Q", "nvars": 1, "unital": True, "truncation": None},
        "arity": 2,
        "terms": [{"exps": [[0], [0]], "coeff": "1"}],
        **changes,
    }


def _without_dst(data):
    return dict(data, entries=[{k: v for k, v in e.items() if k != "dst"} for e in data["entries"]])


@pytest.mark.parametrize(
    "document,commands",
    [
        ({"kind": "monomial"}, ["check", "grade", "match"]),
        ([1, 2], ["check", "grade"]),
        (_without_dst(_weight_one_table_json()), ["check", "grade"]),
        (dict(_weight_one_table_json(), degree_bound="x"), ["check", "grade"]),
        ([1, 2], ["aybe"]),
        (_unit_tensor_json(arity="2"), ["aybe"]),
        (_unit_tensor_json(arity=2.0), ["aybe"]),
    ],
    ids=["no-algebra", "list", "no-dst", "string-bound", "tensor-list", "tensor-arity-string", "tensor-arity-float"],
)
def test_malformed_documents_are_usage_errors(tmp_path, capsys, document, commands):
    """A JSON file of the wrong form exits 2 with one error line naming it."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argvs = {
        "check": ["check", "--operator", str(path), "--weight", "1"],
        "grade": ["grade", "--operator", str(path), "--weight", "1"],
        "match": ["classify", "--match-only", "--operator", str(path)],
        "aybe": ["aybe", "check", "--r", str(path), "--weight", "1"],
    }
    for command in commands:
        code, out, err = run_cli(capsys, *argvs[command])
        assert (code, out) == (2, ""), command
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path} "), (command, err)


@pytest.mark.parametrize("flag", ["--max-seeds", "--budget"])
def test_classify_negative_limits_are_usage_errors(capsys, flag):
    code, out, err = run_cli(capsys, "classify", "--weight", "0", "--degree", "4", flag, "-1")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 0, got -1\n"


def test_aybe_search_and_check(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "aybe", "search", "--degree", "1", "--weight", "1",
        "--grid", "0,1,-1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2  # zero and the unit tensor

    path = tmp_path / "r.json"
    path.write_text(json.dumps(_unit_tensor_json()))
    code, out, _ = run_cli(capsys, "aybe", "check", "--r", str(path), "--weight", "1")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(capsys, "aybe", "check", "--r", str(path), "--weight", "2")
    assert code == 1


def test_aybe_search_negative_degree_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "aybe", "search", "--degree", "-1", "--weight", "1")
    assert (code, out) == (2, "")
    assert err == "error: support degree must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "solution,weight,exit_code,digest",
    [
        (0, "1", 0, "66d014a9a9f3565567a2992774225a18728864ea386f1fe1233f76dca28376fa"),
        (1, "2", 1, "eaf493e7b9d3d17c199141ef755d660d39ab2c08c9c71f06cee6e4117ad4da3d"),
    ],
    ids=["first-solution", "unit-tensor-at-weight-2"],
)
def test_aybe_output_is_pinned(tmp_path, capsys, solution, weight, exit_code, digest):
    """sha256 of the canonical stdout of ``rbalg aybe search``, and of
    ``rbalg aybe check`` on one of its solutions."""
    code, out, _ = run_cli(capsys, "aybe", "search", "--degree", "1", "--weight", "1")
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "c1ce93f3f7905727ff962ccc19547983d38bad05158e2f4394439585f81fee49"
    )
    tensor = {
        "algebra": {"field": "Q", "nvars": 1, "unital": True, "truncation": None},
        "arity": 2,
        "terms": json.loads(out)["solutions"][solution],
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(tensor))
    code, out, _ = run_cli(capsys, "aybe", "check", "--r", str(path), "--weight", weight)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("--degree 15 --weight 1", "c1ce93f3f7905727ff962ccc19547983d38bad05158e2f4394439585f81fee49"),
        ("--degree 4 --nvars 2 --weight 1", "e153a11605f4d824153dfd699f3f0ae778e7f2e4995bb51a0d2651932132566b"),
        (
            "--degree 2 --weight 1/2 --grid 0,1/3,-1/2,2,1/2",
            "b9a8a99b009c3961e3950d71b9b668dcd86356c42136abf36206a749c57fdfb0",
        ),
        ("--degree 2 --field Fp:7 --weight 3", "0896e3fff7c320ebd51de3944370ef72779f277feb144a25c01df8f67f984b53"),
    ],
    ids=["cell-cap", "bivariate-degree-4", "rational-grid", "gf7"],
)
def test_aybe_search_output_is_pinned(capsys, argv, digest):
    """sha256 of the canonical stdout of ``rbalg aybe search``: at the
    256-cell cap, on k[x, y], on a grid of fractions and over GF(7)."""
    code, out, _ = run_cli(capsys, "aybe", "search", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("where", ["first", "last"])
def test_check_refuses_a_repeated_entry(tmp_path, capsys, where):
    """A table that gives x twice is malformed wherever the second entry
    stands: if the last entry won, this table would pass the check with
    the extra entry first and fail it with the entry last."""
    code, out, _ = run_cli(
        capsys, "construct", "--family", "weight-one", "--alpha", "1",
        "--truncation", "4", "--degree", "4",
    )
    assert code == 0
    table = json.loads(out)
    extra = [{"src": [1], "dst": [1], "coeff": "5"}]
    entries = extra + table["entries"] if where == "first" else table["entries"] + extra
    path = tmp_path / "op.json"
    path.write_text(json.dumps(dict(table, entries=entries)))
    code, out, err = run_cli(capsys, "check", "--operator", str(path), "--weight", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path} is malformed: TypeError: src [1] is repeated\n"


def test_construct_splitting_takes_1_based_variables(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "splitting", "--nvars", "2", "--degree", "2",
        "--second-vars", "2",
    )
    assert code == 0
    # -weight = -1 on exactly the monomials that involve x2
    minus = {tuple(e["src"]) for e in json.loads(out)["entries"] if e["coeff"] == "-1"}
    assert minus == {(0, 1), (1, 1), (0, 2)}


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "splitting", "--nvars", "2", "--degree", "2", "--second-vars", "0"],
        ["construct", "--family", "splitting", "--nvars", "2", "--degree", "2", "--second-vars", "3"],
        ["construct", "--family", "weight-zero", "--m", "0", "--pq", "1:1", "--degree", "3"],
        ["construct", "--family", "weight-zero", "--m", "1", "--pq", "1", "--degree", "3"],
        ["construct", "--family", "weight-one", "--alpha", "1", "--degree", "-1"],
        ["classify", "--weight", "0", "--degree", "-1"],
        ["classify", "--weight", "0", "--degree", "4", "--grid", "0"],
        ["classify", "--weight", "1", "--degree", "4", "--grid", "0,0"],
        ["aybe", "search", "--weight", "1", "--degree", "-1"],
        ["aybe", "search", "--weight", "1", "--degree", "31"],
        ["aybe", "search", "--weight", "1", "--nvars", "2", "--degree", "7"],
        ["aybe", "search", "--weight", "1", "--nvars", "3", "--degree", "4"],
    ],
    ids=[
        "vars-0", "vars-nvars+1", "m-0", "pq-no-colon", "construct-degree", "classify-degree",
        "classify-zero-grid-weight-0", "classify-zero-grid-weight-1",
        "aybe-degree", "aybe-1024-cells", "aybe-1296-cells", "aybe-1225-cells",
    ],
)
def test_bad_arguments_are_usage_errors(argv):
    """Out-of-range or malformed arguments exit 2 with one error line."""
    result = run_module("rbalg", *argv)
    assert (result.returncode, result.stdout) == (2, "")
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert len(data["cases"]) == 5
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "9d7980a75d6e3466e6e217cc01d2fa6cbf62adc5c069feb89395570eafeba124"
    )


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


def run_module(module, *argv):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_module_entry_point():
    result = run_module("rbalg.cli", "selftest")
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "pass"


def test_package_entry_point():
    result = run_module("rbalg", "selftest")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["status"] == "pass"


def _fuzz_base():
    """A truncated weight-one table that check, grade and match accept."""
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=3)
    return construct_weight_one_univariate(QQ.one(), algebra, 3).to_json_dict()


def _with(path, value):
    """The base table with the value at path (keys and list indices)
    replaced, or removed when value is _DROP."""
    data = json.loads(json.dumps(_fuzz_base()))
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return json.dumps(data)


_DROP = object()
_BASE_TEXT = json.dumps(_fuzz_base())
_FUZZ_CASES = {
    # the document itself
    "top-level-list": json.dumps([_fuzz_base()]),
    "top-level-string": json.dumps("table"),
    "top-level-null": "null",
    "top-level-number": "3",
    "empty-file": "",
    "truncated-file": _BASE_TEXT[: len(_BASE_TEXT) // 2],
    "dense-kind-without-images": _with(["kind"], "dense"),
    "kind-number": _with(["kind"], 5),
    "kind-unknown": _with(["kind"], "sparse"),
    "no-kind": _with(["kind"], _DROP),
    # the algebra
    "no-algebra": _with(["algebra"], _DROP),
    "algebra-string": _with(["algebra"], "Q"),
    "field-unknown": _with(["algebra", "field"], "R"),
    "field-not-prime": _with(["algebra", "field"], "Fp:9"),
    "field-number": _with(["algebra", "field"], 7),
    "nvars-string": _with(["algebra", "nvars"], "one"),
    "nvars-zero": _with(["algebra", "nvars"], 0),
    "nvars-two": _with(["algebra", "nvars"], 2),
    "truncation-string": _with(["algebra", "truncation"], "x"),
    "truncation-list": _with(["algebra", "truncation"], [3]),
    "truncation-float": _with(["algebra", "truncation"], 4.5),
    "nvars-float": _with(["algebra", "nvars"], 1.9),
    "nvars-boolean": _with(["algebra", "nvars"], True),
    "unital-string": _with(["algebra", "unital"], "false"),
    "unital-number": _with(["algebra", "unital"], 0),
    "unital-null": _with(["algebra", "unital"], None),
    # weight and bound
    "weight-division-by-zero": _with(["weight"], "1/0"),
    "weight-word": _with(["weight"], "one"),
    "weight-null": _with(["weight"], None),
    "no-weight": _with(["weight"], _DROP),
    "bound-string": _with(["degree_bound"], "x"),
    "bound-float": _with(["degree_bound"], 3.0),
    "bound-above-truncation": _with(["degree_bound"], 4),
    # the entries
    "no-entries": _with(["entries"], _DROP),
    "entries-string": _with(["entries"], "x"),
    "entries-object": _with(["entries"], {"src": [1]}),
    "entry-list": _with(["entries", 0], [[1], "1", [1]]),
    "src-float": _with(["entries", 1, "src"], [1.5]),
    "src-boolean": _with(["entries", 0, "src"], [True]),
    "src-negative": _with(["entries", 0, "src"], [-1]),
    "src-string": _with(["entries", 0, "src"], "1"),
    "src-empty": _with(["entries", 0, "src"], []),
    "src-constant": _with(["entries", 0, "src"], [0]),
    "src-above-bound": _with(["entries", 0, "src"], [5]),
    "dst-float": _with(["entries", 1, "dst"], [2.0]),
    "dst-boolean": _with(["entries", 0, "dst"], [False]),
    "coeff-division-by-zero": _with(["entries", 1, "coeff"], "1/0"),
    "coeff-word": _with(["entries", 1, "coeff"], "third"),
    "coeff-null": _with(["entries", 1, "coeff"], None),
    "no-dst": _with(["entries", 2, "dst"], _DROP),
}


@pytest.mark.parametrize("case", sorted(_FUZZ_CASES))
def test_malformed_table_fuzz(tmp_path, capsys, case):
    """Fixed mutations of one table that every command accepts: check,
    grade and classify --match-only exit 2 on each, with one line on
    stderr that starts with ``error:``, nothing on stdout and no
    traceback."""
    path = tmp_path / "table.json"
    path.write_text(_FUZZ_CASES[case])
    for argv in (
        ["check", "--operator", str(path), "--weight", "1"],
        ["grade", "--operator", str(path), "--weight", "1"],
        ["classify", "--match-only", "--operator", str(path)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), (argv[0], err)
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv[0], err)
        assert "Traceback" not in err
