import pytest

from rbalg import (
    QQ,
    AlgebraSpec,
    CoefficientStrategy,
    MatchKind,
    MonomialOperatorTable,
    WeightZeroFamilyParams,
    check_kernel_obstructions,
    construct_weight_one_univariate,
    construct_weight_zero,
    enumerate_injective_diagonal,
    enumerate_monomial_rb,
    match_family,
    prime_field,
)
from rbalg.errors import InvalidParams, SearchBudgetExceeded

from helpers import (
    inverse_degree_table,
    reference_enumerate_monomial_rb,
    reference_rb_check,
    reference_shapes,
)

NONUNITAL = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
UNITAL = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)

FAMILY_KINDS = {
    MatchKind.WEIGHT_ONE_FAMILY,
    MatchKind.WEIGHT_ZERO_FAMILY,
    MatchKind.TRIVIAL_ZERO,
    MatchKind.TRIVIAL_MINUS_LAMBDA,
}


def table_signature(table):
    return {
        src.exponents[0]: (str(coeff), dst.exponents[0])
        for src, (coeff, dst) in table.entries.items()
    }


def test_weight_one_search_small():
    report = enumerate_monomial_rb(NONUNITAL, QQ.one(), 6)
    kinds = {s.match.kind for s in report.fully_determined()}
    assert MatchKind.TRIVIAL_ZERO in kinds
    assert MatchKind.TRIVIAL_MINUS_LAMBDA in kinds
    assert MatchKind.WEIGHT_ONE_FAMILY in kinds
    assert kinds <= FAMILY_KINDS
    # grid members all appear among the solutions
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=6)
    for alpha in (QQ.one(), QQ.from_int(2), QQ.element(1, 2)):
        table = construct_weight_one_univariate(alpha, algebra, 6)
        assert any(s.table.entries == table.entries for s in report.solutions)


def test_weight_one_search_rejects_degree_shapes():
    # no surviving fully determined solution moves a degree: Eq-style
    # diagonal tables are the only injectives
    report = enumerate_monomial_rb(NONUNITAL, QQ.one(), 6)
    for sol in report.fully_determined():
        if sol.match.kind is MatchKind.WEIGHT_ONE_FAMILY:
            assert all(src == dst for src, (_, dst) in sol.table.entries.items())


def test_weight_zero_search_matches_families():
    report = enumerate_monomial_rb(NONUNITAL, QQ.zero(), 6)
    assert report.solutions
    for sol in report.fully_determined():
        assert sol.match.kind in (MatchKind.WEIGHT_ZERO_FAMILY, MatchKind.TRIVIAL_ZERO)


def test_weight_zero_family_membership():
    # a two-class family with grid-compatible leading coefficients
    params = WeightZeroFamilyParams(
        2, {1: (1, QQ.from_int(2)), 2: (1, QQ.from_int(4))}
    )
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=6)
    table = construct_weight_zero(params, algebra, 6)
    report = enumerate_monomial_rb(NONUNITAL, QQ.zero(), 6)
    assert any(s.table.entries == table.entries for s in report.solutions)


def test_unital_weight_one_search_finds_splittings():
    report = enumerate_monomial_rb(UNITAL, QQ.one(), 4)
    by_sig = {
        frozenset(
            (src.exponents[0], str(c), dst.exponents[0])
            for src, (c, dst) in s.table.entries.items()
        ): s
        for s in report.solutions
    }
    # kernel = <x>: R(1) = -1 and nothing else
    unit_side = by_sig.get(frozenset({(0, "-1", 0)}))
    assert unit_side is not None
    assert unit_side.match.kind is MatchKind.SPLITTING_CONJUGATE
    # kernel = constants: R(x^n) = -x^n for n >= 1
    positive_side = by_sig.get(
        frozenset({(n, "-1", n) for n in range(1, 5)})
    )
    assert positive_side is not None
    assert positive_side.match.kind is MatchKind.SPLITTING_CONJUGATE
    # constant-image tables are NOT operators on a truncated quotient:
    # their degree-0 products survive truncation while the weight term
    # x^(N+1) vanishes, so the top pair forces a zero coefficient.
    # The complete answer is: zero, -id, and the two splittings.
    assert len(report.solutions) == 4
    for s in report.fully_determined():
        assert s.match.kind is not MatchKind.UNMATCHED


def test_unital_weight_zero_search():
    report = enumerate_monomial_rb(UNITAL, QQ.zero(), 5)
    for sol in report.fully_determined():
        assert sol.match.kind in (MatchKind.WEIGHT_ZERO_FAMILY, MatchKind.TRIVIAL_ZERO)
    with_unit = [
        s
        for s in report.fully_determined()
        if any(src.degree() == 0 for src in s.table.entries)
    ]
    assert with_unit  # families with nonzero unit image are discovered


def test_search_over_prime_field():
    field = prime_field(7)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
    report = enumerate_monomial_rb(algebra, field.one(), 5)
    kinds = {s.match.kind for s in report.fully_determined()}
    assert kinds <= FAMILY_KINDS
    assert MatchKind.TRIVIAL_MINUS_LAMBDA in kinds


def test_search_budget():
    strategy = CoefficientStrategy(grid=(QQ.one(),), shape_budget=3)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_monomial_rb(NONUNITAL, QQ.zero(), 6, strategy)
    assert exc.value.stats.nodes_visited == 4


def test_search_validation():
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(NONUNITAL, QQ.from_int(2), 6)
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(NONUNITAL, QQ.one(), 11)
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(algebra, field.one(), 6)
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(NONUNITAL, QQ.one(), 0)
    # the tables would hold monomials the caller's algebra does not have
    truncated = AlgebraSpec(QQ, nvars=1, unital=False, truncation=3)
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(truncated, QQ.zero(), 5)
    assert enumerate_monomial_rb(truncated, QQ.zero(), 3).solutions


@pytest.mark.parametrize("degree", range(1, 8))
@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("lam_one", [False, True])
def test_shape_search_matches_reference(lam_one, unital, degree):
    """The pair-scheduled DFS against the old rescanning loop: the same
    shapes in the same order and the same counters.  The shape DFS never
    sees the field, so this covers the search over Q and every GF(p)."""
    from rbalg.classify import SearchStats, _surviving_shapes

    fast, slow = SearchStats(), SearchStats()
    got = list(_surviving_shapes(degree, unital, lam_one, 10**7, fast))
    assert got == list(reference_shapes(degree, unital, lam_one, 10**7, slow))
    assert fast == slow


@pytest.mark.parametrize("budget", [1, 3, 40, 700])
def test_shape_search_budget_matches_reference(budget):
    """Both searches abort at the same node, having yielded the same shapes,
    and the exception carries the counters at the abort."""
    from rbalg.classify import SearchStats, _surviving_shapes

    fast, slow = SearchStats(), SearchStats()
    got, want = [], []
    with pytest.raises(SearchBudgetExceeded):
        got.extend(_surviving_shapes(6, False, False, budget, fast))
    with pytest.raises(SearchBudgetExceeded):
        want.extend(reference_shapes(6, False, False, budget, slow))
    assert got == want and fast == slow
    assert fast.nodes_visited == budget + 1
    strategy = CoefficientStrategy(grid=(QQ.one(),), shape_budget=budget)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_monomial_rb(NONUNITAL, QQ.zero(), 6, strategy)
    aborted = exc.value.stats
    assert (aborted.nodes_visited, aborted.shapes_enumerated, aborted.shapes_pruned) == (
        fast.nodes_visited,
        fast.shapes_enumerated,
        fast.shapes_pruned,
    )


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(11)], ids=str)
def test_search_report_matches_reference(field):
    """Whole reports, solutions and all five counters, at bounds 1..5."""
    for degree in range(1, 6):
        for unital in (False, True):
            algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
            for weight in (field.zero(), field.one()):
                got = enumerate_monomial_rb(algebra, weight, degree).to_json_dict()
                want = reference_enumerate_monomial_rb(algebra, weight, degree)
                assert got == want.to_json_dict(), (degree, unital, weight)


@pytest.mark.parametrize(
    "field,grid,weight,unital,degree,stats,count",
    [
        (QQ, None, 1, False, 8, (3471, 8, 27703, 2, 0), 7),
        (QQ, None, 1, True, 8, (8971, 22, 80526, 16, 0), 4),
        (QQ, None, 0, False, 6, (1573, 515, 6203, 146, 0), 771),
        (prime_field(11), (1, 2, 3), 0, True, 5, (2077, 808, 7204, 411, 0), 89),
    ],
)
def test_search_stats_pinned(field, grid, weight, unital, degree, stats, count):
    """Counters of fixed searches, so a change in pruning shows."""
    strategy = None
    if grid is not None:
        strategy = CoefficientStrategy(tuple(field.from_int(v) for v in grid))
    algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
    report = enumerate_monomial_rb(algebra, field.from_int(weight), degree, strategy)
    assert tuple(report.stats.to_json_dict().values()) == stats
    assert len(report.solutions) == count


def test_match_inverse_degree_family():
    match = match_family(inverse_degree_table(8))
    assert match.kind is MatchKind.WEIGHT_ZERO_FAMILY
    assert match.params.m == 1
    p, q = match.params.classes[1]
    assert p == 1 and q == QQ.one()


def test_match_weight_one_family():
    table = construct_weight_one_univariate(QQ.one(), NONUNITAL, 8)
    match = match_family(table)
    assert match.kind is MatchKind.WEIGHT_ONE_FAMILY
    assert match.alpha == QQ.one()


def test_match_trivials():
    zero = MonomialOperatorTable(NONUNITAL, QQ.one(), 4, {})
    assert match_family(zero).kind is MatchKind.TRIVIAL_ZERO
    lam = QQ.from_int(3)
    minus = MonomialOperatorTable(
        NONUNITAL, lam, 4, {m: (-lam, m) for m in NONUNITAL.basis(4)}
    )
    assert match_family(minus).kind is MatchKind.TRIVIAL_MINUS_LAMBDA


def test_match_splitting_conjugate():
    # all images constant: R(x^n) = a^n * 1 with R(1) = 1 at weight -1
    alpha = QQ.from_int(2)
    one_mono = UNITAL.one_monomial()
    entries = {
        UNITAL.monomial(n): (alpha**n, one_mono) for n in range(0, 7)
    }
    table = MonomialOperatorTable(UNITAL, -QQ.one(), 6, entries)
    match = match_family(table)
    assert match.kind is MatchKind.SPLITTING_CONJUGATE
    assert match.alpha == alpha


def test_match_unmatched():
    entries = {
        NONUNITAL.monomial(1): (QQ.one(), NONUNITAL.monomial(3)),
        NONUNITAL.monomial(2): (QQ.one(), NONUNITAL.monomial(6)),
    }
    table = MonomialOperatorTable(NONUNITAL, QQ.one(), 8, entries)
    assert match_family(table).kind is MatchKind.UNMATCHED


def test_kernel_obstructions():
    table = construct_weight_one_univariate(QQ.one(), NONUNITAL, 8)
    assert check_kernel_obstructions(table) is None
    bad = MonomialOperatorTable(
        NONUNITAL,
        QQ.one(),
        2,
        {NONUNITAL.monomial(1): (QQ.one(), NONUNITAL.monomial(2))},
    )
    hit = check_kernel_obstructions(bad)
    assert hit is not None and hit.kind == "kernel_image_overlap"
    collision = MonomialOperatorTable(
        NONUNITAL,
        QQ.one(),
        2,
        {
            NONUNITAL.monomial(1): (QQ.one(), NONUNITAL.monomial(1)),
            NONUNITAL.monomial(2): (QQ.one(), NONUNITAL.monomial(1)),
        },
    )
    hit = check_kernel_obstructions(collision)
    assert hit is not None and hit.kind == "target_collision"


def test_splitting_table_passes_obstructions():
    from rbalg import construct_splitting, split_by_variables

    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    table = construct_splitting(split_by_variables([1]), QQ.one(), algebra, 6)
    assert check_kernel_obstructions(table) is None


def test_injective_diagonal_search_bivariate():
    algebra = AlgebraSpec(QQ, nvars=2, unital=True, truncation=None)
    tables = enumerate_injective_diagonal(algebra, QQ.one(), 4)
    assert len(tables) == 1
    table = tables[0]
    for m in algebra.basis(2):
        coeff, dst = table.entries[m]
        assert coeff == -QQ.one() and dst == m


def test_injective_diagonal_search_univariate_weight_one():
    tables = enumerate_injective_diagonal(UNITAL, QQ.one(), 5)
    assert len(tables) == 1
    assert all(c == -QQ.one() for c, _ in tables[0].entries.values())


def test_injective_diagonal_other_than_minus_id_fails():
    import random

    from rbalg import rb_check

    rng = random.Random(11)
    algebra = AlgebraSpec(QQ, nvars=2, unital=True, truncation=None)
    for _ in range(10):
        entries = {}
        for m in algebra.basis(4):
            c = QQ.from_int(rng.choice([1, 2, -2, 3]))
            entries[m] = (c, m)
        table = MonomialOperatorTable(algebra, QQ.one(), 4, entries)
        assert not rb_check(table, QQ.one(), 4).passed


def test_injective_non_diagonal_fails_at_weight_one():
    # an injective monomial table moving a monomial cannot satisfy the
    # identity: the pair (w, w) forces a kernel element
    from rbalg import rb_check

    algebra = AlgebraSpec(QQ, nvars=2, unital=True, truncation=None)
    entries = {}
    for m in algebra.basis(4):
        swapped = algebra.monomial(m.exponents[1], m.exponents[0])
        entries[m] = (-QQ.one(), swapped)
    table = MonomialOperatorTable(algebra, QQ.one(), 4, entries)
    assert not rb_check(table, QQ.one(), 4).passed


def test_search_solutions_reverify_independently():
    from rbalg import rb_check

    report = enumerate_monomial_rb(NONUNITAL, QQ.zero(), 5)
    for sol in report.solutions:
        assert rb_check(sol.table, QQ.zero(), 5).passed


@pytest.mark.parametrize("weight_value", [0, 1])
@pytest.mark.parametrize("unital", [False, True])
def test_search_against_exhaustive_ground_truth_gf5(weight_value, unital):
    """Oracle: over GF(5) at a small bound the whole table space is
    finite, so every monomial operator can be found by raw enumeration.
    The search must be sound (a subset of the ground truth) and complete
    on shapes respecting the structural filter it enforces.  The tables
    are judged by the reference pair loop (``rb_residual`` alone), never
    by the raw-value kernel that the search's own re-verification uses.
    """
    import itertools

    from rbalg.classify import (
        ABSENT,
        _respects_class_closure,
        _respects_kernel_image_structure,
    )

    field = prime_field(5)
    D = 3 if unital else 4
    algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=D)
    lam = field.from_int(weight_value)
    sources = list(range(0 if unital else 1, D + 1))
    targets = list(range(0 if unital else 1, D + 1))

    def signature(table):
        return frozenset(
            (src.exponents[0], coeff.value, dst.exponents[0])
            for src, (coeff, dst) in table.entries.items()
        )

    truth = {}
    for shape in itertools.product([ABSENT] + targets, repeat=len(sources)):
        defined = [n for n, t in zip(sources, shape) if t != ABSENT]
        shape_by_source = dict(zip(sources, shape))
        for coeffs in itertools.product([1, 2, 3, 4], repeat=len(defined)):
            entries = {
                algebra.monomial(n): (
                    field.from_int(c),
                    algebra.monomial(shape_by_source[n]),
                )
                for n, c in zip(defined, coeffs)
            }
            table = MonomialOperatorTable(algebra, lam, D, entries)
            if reference_rb_check(table, lam, D).passed:
                truth[signature(table)] = shape_by_source
    report = enumerate_monomial_rb(algebra, lam, D)
    found = {signature(s.table) for s in report.solutions}
    assert found <= set(truth)  # soundness: nothing invented

    def covers(solution, sig):
        # identical shape, and identical coefficients wherever the
        # solver pinned one (under-constrained slots are free by proof,
        # so one representative stands for the whole family)
        entries = {
            src.exponents[0]: (coeff.value, dst.exponents[0])
            for src, (coeff, dst) in solution.table.entries.items()
        }
        target = {n: (c, t) for n, c, t in sig}
        if set(entries) != set(target):
            return False
        for n, (c, t) in target.items():
            got_c, got_t = entries[n]
            if got_t != t:
                return False
            if n not in solution.under_constrained and got_c != c:
                return False
        return True

    for sig, shape_by_source in truth.items():
        t = [ABSENT] * (D + 1)
        for n in sources:
            t[n] = shape_by_source[n]
        if weight_value == 0:
            structural = _respects_class_closure(t, sources, D, unital=unital)
        else:
            structural = _respects_kernel_image_structure(t, sources, D)
        if structural:
            assert any(covers(s, sig) for s in report.solutions), (
                f"missing structure-respecting solution {sorted(sig)}"
            )
