"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line (run pytest with -s to see them) and
enforces the stated wall-clock budget.
"""

import random
import time
from fractions import Fraction

import pytest

from rbalg import (
    QQ,
    AlgebraSpec,
    MatchKind,
    MultivariateFamilyParams,
    MultivariateKind,
    PartialProductKind,
    ProductStatus,
    QuotientFamily,
    TensorElement,
    WeightZeroFamilyParams,
    aybe_grid_search,
    aybe_residual,
    construct_multivariate,
    construct_splitting,
    construct_weight_one_univariate,
    construct_weight_zero,
    enumerate_injective_diagonal,
    enumerate_monomial_rb,
    grading_decompose,
    operator_from_tensor,
    operators_agree,
    prime_field,
    quotient_rb_from_family,
    rb_check,
    semigroup_iso_check,
    split_constant_part,
)
from rbalg.errors import (
    CharacteristicObstruction,
    DenominatorVanishes,
    InvalidParams,
    NonInvertibleModP,
)
from rbalg.operators import AutomorphismSpec, MonomialOperatorTable, op_conjugate

NONUNITAL_Q = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
UNITAL_Q = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)

WEIGHT_ONE_ALPHAS = [(1, 1), (2, 1), (-2, 1), (1, 2), (3, 5)]


class Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s > {self.limit}s"
        return elapsed


def report(number, label, elapsed):
    print(f"criterion {number:2d}: PASS ({elapsed:.2f}s) - {label}")


# -- shared fixtures for criteria 3 and 8 ------------------------------------


def weight_zero_parameter_sets():
    """20 deterministic random family parameter sets (m<=4, p<=3)."""
    rng = random.Random(20260809)
    sets = []
    while len(sets) < 20:
        m = rng.randint(1, 4)
        classes = {}
        any_live = False
        for b in range(1, m + 1):
            if rng.random() < 0.25:
                classes[b] = (0, (0, 1))
            else:
                any_live = True
                num = rng.choice([1, -1]) * rng.randint(1, 9)
                den = rng.randint(1, 5)
                classes[b] = (rng.randint(1, 3), (num, den))
        if any_live:
            sets.append((m, classes))
    return sets


def materialize_weight_zero(field, m, classes):
    built = {}
    for b, (p, (num, den)) in classes.items():
        q = field.element(num, den) if p else field.zero()
        if p and q.is_zero():
            raise CharacteristicObstruction(f"q for class {b} vanishes mod {field.p}")
        built[b] = (p, q)
    return WeightZeroFamilyParams(m, built)


def multivariate_parameter_sets():
    """Deterministic nonzero parameters for n in {2, 3}, both kinds."""
    rng = random.Random(4047)
    sets = []
    for nvars in (2, 3):
        for kind in (MultivariateKind.WEIGHT_ONE, MultivariateKind.WEIGHT_ZERO):
            while True:
                alphas = tuple(
                    (rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 3))
                    for _ in range(nvars)
                )
                algebra = AlgebraSpec(QQ, nvars=nvars, unital=False, truncation=None)
                params = MultivariateFamilyParams(
                    kind, tuple(QQ.element(n, d) for n, d in alphas)
                )
                try:
                    construct_multivariate(params, algebra, 10)
                except DenominatorVanishes:
                    continue
                sets.append((nvars, kind, alphas))
                break
    return sets


# -- criteria -----------------------------------------------------------------


def test_criterion_1_example_weight_one_quotient():
    timer = Timer(1.0)
    table = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5)
    field = table.algebra.field
    algebra = table.algebra
    for n, c in {1: 1, 2: 2, 3: 3}.items():
        assert table.entries[algebra.monomial(n)] == (
            field.from_int(c),
            algebra.monomial(n),
        )
    assert rb_check(table, field.one(), 3).passed
    grading = grading_decompose(table, field.one())
    assert not grading.violations()
    products = {(p.left.value, p.right.value): p for p in grading.products}
    one_two = products[(1, 2)]
    assert one_two.status is ProductStatus.CONTAINED
    assert one_two.product_eigenvalue == field.from_int(3)
    one_three = products[(1, 3)]
    assert one_three.status is ProductStatus.ZERO
    assert one_three.product_eigenvalue is None
    two_three = products[(2, 3)]
    assert two_three.status is ProductStatus.ZERO
    assert two_three.product_eigenvalue == field.from_int(1)
    report(1, "weight-one truncated table over GF(5)", timer.check("criterion 1"))


def test_criterion_2_example_weight_zero_quotient():
    timer = Timer(1.0)
    table = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 3, 5)
    field = table.algebra.field
    algebra = table.algebra
    for n, c in {1: 1, 2: 3, 3: 2}.items():
        assert table.entries[algebra.monomial(n)] == (
            field.from_int(c),
            algebra.monomial(n),
        )
    grading = grading_decompose(table, field.zero())
    assert not grading.violations()
    products = {(p.left.value, p.right.value): p for p in grading.products}
    # eigenvalues of x and x^2 are 1 and 3 = 1/2; their product law gives 2
    check = products[(1, 3)]
    assert check.status is ProductStatus.CONTAINED
    assert check.product_eigenvalue == field.from_int(2)
    # eigenvalues 3 = 1/2 and 2 = 1/3 sum to zero: undefined, product vanishes
    check = products[(2, 3)]
    assert check.status is ProductStatus.ZERO
    assert check.product_eigenvalue is None
    # eigenvalues 1 and 2 = 1/3 give 4, outside the spectrum
    check = products[(1, 2)]
    assert check.status is ProductStatus.ZERO
    assert check.product_eigenvalue == field.from_int(4)
    report(2, "weight-zero truncated table over GF(5)", timer.check("criterion 2"))


def test_criterion_3_family_verification():
    timer = Timer(30.0)
    for m, classes in weight_zero_parameter_sets():
        params = materialize_weight_zero(QQ, m, classes)
        shift = max(
            (params.m * p for p, q in params.classes.values() if not q.is_zero()),
            default=0,
        )
        table = construct_weight_zero(params, NONUNITAL_Q, 16 + shift)
        assert rb_check(table, QQ.zero(), 16).passed
    for num, den in WEIGHT_ONE_ALPHAS:
        table = construct_weight_one_univariate(QQ.element(num, den), NONUNITAL_Q, 16)
        assert rb_check(table, QQ.one(), 16).passed
    for nvars, kind, alphas in multivariate_parameter_sets():
        algebra = AlgebraSpec(QQ, nvars=nvars, unital=False, truncation=None)
        params = MultivariateFamilyParams(
            kind, tuple(QQ.element(n, d) for n, d in alphas)
        )
        table = construct_multivariate(params, algebra, 10)
        weight = QQ.one() if kind is MultivariateKind.WEIGHT_ONE else QQ.zero()
        assert rb_check(table, weight, 10).passed
    report(3, "family constructors verified to degree 16/10", timer.check("criterion 3"))


def test_criterion_4_weight_one_rediscovery():
    timer = Timer(120.0)
    report_obj = enumerate_monomial_rb(NONUNITAL_Q, QQ.one(), 8)
    allowed = {
        MatchKind.WEIGHT_ONE_FAMILY,
        MatchKind.TRIVIAL_ZERO,
        MatchKind.TRIVIAL_MINUS_LAMBDA,
    }
    determined = report_obj.fully_determined()
    assert determined
    assert {s.match.kind for s in determined} <= allowed
    truncated = AlgebraSpec(QQ, nvars=1, unital=False, truncation=8)
    for num, den in WEIGHT_ONE_ALPHAS:
        member = construct_weight_one_univariate(QQ.element(num, den), truncated, 8)
        assert any(
            s.table.entries == member.entries for s in report_obj.solutions
        ), f"family member alpha={num}/{den} missing from the search output"
    report(4, "weight-one search rediscovers only the known families", timer.check("criterion 4"))


def test_criterion_4_weight_one_at_the_cost_guard():
    """Criterion 4 at the largest bound the search allows, unital or not."""
    timer = Timer(10.0)
    D = 16
    report_obj = enumerate_monomial_rb(NONUNITAL_Q, QQ.one(), D)
    allowed = {
        MatchKind.WEIGHT_ONE_FAMILY,
        MatchKind.TRIVIAL_ZERO,
        MatchKind.TRIVIAL_MINUS_LAMBDA,
    }
    determined = report_obj.fully_determined()
    assert {s.match.kind for s in determined} <= allowed
    truncated = AlgebraSpec(QQ, nvars=1, unital=False, truncation=D)
    for num, den in WEIGHT_ONE_ALPHAS:
        member = construct_weight_one_univariate(QQ.element(num, den), truncated, D)
        assert any(
            s.table.entries == member.entries for s in determined
        ), f"family member alpha={num}/{den} missing from the search output"
    # unital: the zero operator, -id, and -id on either part of k0 + <x>
    report_obj = enumerate_monomial_rb(UNITAL_Q, QQ.one(), D)
    minus_one = str(-QQ.one())
    found = sorted(
        sorted((src.exponents, str(c), dst.exponents) for src, (c, dst) in s.table.entries.items())
        for s in report_obj.fully_determined()
    )
    assert len(found) == len(report_obj.solutions)
    constants = [((0,), minus_one, (0,))]
    ideal = [((n,), minus_one, (n,)) for n in range(1, D + 1)]
    assert found == sorted([[], constants + ideal, constants, ideal])
    assert {s.match.kind for s in report_obj.solutions} == {
        MatchKind.TRIVIAL_ZERO,
        MatchKind.TRIVIAL_MINUS_LAMBDA,
        MatchKind.SPLITTING_CONJUGATE,
    }
    report(4, f"weight-one searches at the cost guard D={D}", timer.check(f"criterion 4 at D={D}"))


def test_criterion_5_weight_zero_rediscovery():
    timer = Timer(120.0)
    allowed = {MatchKind.WEIGHT_ZERO_FAMILY, MatchKind.TRIVIAL_ZERO}
    for algebra in (NONUNITAL_Q, UNITAL_Q):
        report_obj = enumerate_monomial_rb(algebra, QQ.zero(), 8)
        determined = report_obj.fully_determined()
        assert determined
        bad = [s for s in determined if s.match.kind not in allowed]
        assert not bad, f"unexpected fully determined solutions: {bad[:3]}"
    # the class closure prunes in the domains (177,535 nodes as a leaf
    # filter), and the left side absorbs its twins (29,954 nodes without)
    assert report_obj.stats.nodes_visited < 5_000
    report(5, "weight-zero searches match the residue-class families", timer.check("criterion 5"))


def test_criterion_6_injective_diagonal_bivariate():
    timer = Timer(30.0)
    algebra = AlgebraSpec(QQ, nvars=2, unital=True, truncation=None)
    tables = enumerate_injective_diagonal(algebra, QQ.one(), 4)
    assert len(tables) == 1
    table = tables[0]
    for m in algebra.basis(2):
        assert table.entries[m] == (-QQ.one(), m)
    report(6, "only -id survives the injective diagonal search", timer.check("criterion 6"))


def test_criterion_7_yang_baxter_tensors():
    timer = Timer(60.0)
    one = UNITAL_Q.one_monomial()
    for lam_int in (1, 2, -1):
        lam = QQ.from_int(lam_int)
        tensor = TensorElement(UNITAL_Q, 2, {(one, one): lam})
        assert aybe_residual(tensor, lam).is_zero()
    grid = [QQ.zero(), QQ.one(), -QQ.one()]
    solutions = aybe_grid_search(UNITAL_Q, 2, grid, QQ.one())
    assert len(solutions) == 2
    expected = {
        frozenset(),
        frozenset({((one, one), QQ.one())}),
    }
    assert {frozenset(s.terms.items()) for s in solutions} == expected
    for solution in solutions:
        op = operator_from_tensor(solution, 6, -QQ.one())
        assert rb_check(op, -QQ.one(), 6).passed
    report(7, "unit tensor is the only grid solution; induced operators verified", timer.check("criterion 7"))


def test_criterion_8_grading_propositions():
    timer = Timer(120.0)
    ran = 0
    skipped = 0
    truncations = (4, 6, 8)
    primes = (5, 7, 11, 13)
    jobs = []
    for m, classes in weight_zero_parameter_sets():
        jobs.append(("wz", (m, classes)))
    for num, den in WEIGHT_ONE_ALPHAS:
        jobs.append(("wo", (num, den)))
    for nvars, kind, alphas in multivariate_parameter_sets():
        jobs.append(("mv", (nvars, kind, alphas)))
    for N in truncations:
        for p in primes:
            field = prime_field(p)
            for job_kind, payload in jobs:
                try:
                    if job_kind == "wz":
                        m, classes = payload
                        algebra = AlgebraSpec(field, 1, False, N)
                        params = materialize_weight_zero(field, m, classes)
                        table = construct_weight_zero(params, algebra, N)
                        weight = field.zero()
                    elif job_kind == "wo":
                        num, den = payload
                        algebra = AlgebraSpec(field, 1, False, N)
                        table = construct_weight_one_univariate(
                            field.element(num, den), algebra, N
                        )
                        weight = field.one()
                    else:
                        nvars, kind, alphas = payload
                        algebra = AlgebraSpec(field, nvars, False, N)
                        params = MultivariateFamilyParams(
                            kind,
                            tuple(field.element(n, d) for n, d in alphas),
                        )
                        table = construct_multivariate(params, algebra, N)
                        weight = (
                            field.one()
                            if kind is MultivariateKind.WEIGHT_ONE
                            else field.zero()
                        )
                except (
                    CharacteristicObstruction,
                    DenominatorVanishes,
                    NonInvertibleModP,
                    InvalidParams,  # a parameter degenerated to zero mod p
                ):
                    skipped += 1
                    continue
                grading = grading_decompose(table, weight)
                assert not grading.violations(), (
                    f"violation for {job_kind} {payload} at N={N}, p={p}"
                )
                ran += 1
    assert ran >= 100  # the sweep must be substantive
    elapsed = timer.check("criterion 8")
    report(8, f"gradings clean on {ran} truncated operators ({skipped} skipped)", elapsed)


def test_criterion_9_semigroup_isomorphisms():
    timer = Timer(5.0)
    rng = random.Random(900)

    def positive_rational():
        return Fraction(rng.randint(1, 60), rng.randint(1, 60))

    for _ in range(100):
        pair = [positive_rational(), positive_rational()]
        assert semigroup_iso_check(PartialProductKind.CIRC, pair) is None
        assert semigroup_iso_check(PartialProductKind.STAR, pair) is None
    for _ in range(100):
        triple = [positive_rational() for _ in range(3)]
        assert semigroup_iso_check(PartialProductKind.CIRC, triple) is None
        assert semigroup_iso_check(PartialProductKind.STAR, triple) is None
    report(9, "both composition laws verified on random rationals", timer.check("criterion 9"))


def test_criterion_10_conjugation_chain():
    timer = Timer(1.0)
    one_mono = UNITAL_Q.one_monomial()
    entries = {UNITAL_Q.monomial(n): (QQ.one(), one_mono) for n in range(0, 7)}
    constant_image = MonomialOperatorTable(UNITAL_Q, -QQ.one(), 6, entries)
    assert rb_check(constant_image, -QQ.one(), 6).passed
    shifted = op_conjugate(constant_image, AutomorphismSpec.shift())
    splitting = construct_splitting(split_constant_part(), -QQ.one(), UNITAL_Q, 6)
    assert operators_agree(shifted, splitting, 6)
    report(10, "shift conjugation lands on the splitting operator", timer.check("criterion 10"))
