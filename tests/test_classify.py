import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    CoefficientStrategy,
    FamilyMatch,
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
    rb_check,
)
from rbalg.errors import (
    CharacteristicObstruction,
    DenominatorVanishes,
    InvalidParams,
    MixedAlgebras,
    MixedFieldSpecs,
    SearchBudgetExceeded,
)

from helpers import (
    _pair_consistent,
    _pair_reads,
    _respects_class_closure,
    _respects_kernel_image_structure,
    field_elements,
    inverse_degree_table,
    load_benchmark_reference,
    per_instance_enumerate_monomial_rb,
    random_weight_zero_params,
    reference_diagonal_equations,
    reference_enumerate_monomial_rb,
    reference_forward_shapes,
    reference_match_family,
    reference_rb_check,
    reference_shapes,
    reference_solve_coefficients,
    reference_surviving_shapes,
    search_checks,
    shape_exponents,
    solver_instances,
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
    # the cost guard is per weight: 16 at weight one, 10 at weight zero
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(NONUNITAL, QQ.one(), 17)
    with pytest.raises(InvalidParams):
        enumerate_monomial_rb(NONUNITAL, QQ.zero(), 11)
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


@pytest.mark.parametrize("field,other", [(prime_field(7), QQ), (QQ, prime_field(7))], ids=str)
def test_searches_refuse_a_grid_from_another_field(field, other):
    """A grid value from another field is refused before any solve: over
    GF(7) a rational would reach the solver's modular arithmetic, and over
    Q a GF(7) residue would be seeded as the rational it is stored as."""
    strategy = CoefficientStrategy((field.one(), other.from_int(2)))
    for unital in (False, True):
        algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
        for weight in (field.zero(), field.one()):
            with pytest.raises(MixedFieldSpecs):
                enumerate_monomial_rb(algebra, weight, 4, strategy)
            with pytest.raises(MixedFieldSpecs):
                enumerate_injective_diagonal(algebra, weight, 3, strategy)
    # a grid wholly from the other field is refused as well
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
    with pytest.raises(MixedFieldSpecs):
        enumerate_monomial_rb(algebra, field.zero(), 4, CoefficientStrategy((other.element(1, 2),)))


@pytest.mark.parametrize("degree", range(1, 8))
@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("lam_one", [False, True])
def test_shape_search_matches_reference(lam_one, unital, degree):
    """The forward-checked DFS on a basis index against the rescanning
    loop that forward checks on exponents: the same shapes in the same
    order and the same counters; and against the loop without forward
    checking, which filters complete shapes by the structure rule: the
    same shapes, no more nodes, and every complete shape the DFS reaches
    passes.  The shape DFS never sees the field, so this covers the
    search over Q and every GF(p)."""
    from rbalg.classify import SearchStats, _surviving_shapes

    index = AlgebraSpec(QQ, nvars=1, unital=unital, truncation=degree).basis_index
    fast, forward, plain = SearchStats(), SearchStats(), SearchStats()
    found = _surviving_shapes(index, lam_one, 10**7, fast)
    got = [shape_exponents(index, t) for t in found]
    assert got == list(reference_forward_shapes(degree, unital, lam_one, 10**7, forward))
    assert fast == forward
    assert got == list(reference_shapes(degree, unital, lam_one, 10**7, plain))
    assert fast.shapes_enumerated == len(got) <= plain.shapes_enumerated
    assert fast.nodes_visited <= plain.nodes_visited


@pytest.mark.parametrize("unital", [False, True])
def test_deepening_matches_the_search_from_scratch(unital):
    """Weight one, bounds 1..12: the shapes that ``_deepened_shapes``
    builds bound by bound are the shapes ``_surviving_shapes`` finds from
    scratch at the bound, and fewer nodes are visited from bound 9 on.  Up
    to bound 7 the same driver on the reference loop
    (``reference_surviving_shapes``, which reads exponents) gives the same
    shapes in the same order and the same counters."""
    from unittest import mock

    from rbalg import classify
    from rbalg.classify import SearchStats, _deepened_shapes, _surviving_shapes

    for degree in range(1, 13):
        index = AlgebraSpec(QQ, nvars=1, unital=unital, truncation=degree).basis_index
        deep, scratch = SearchStats(), SearchStats()
        got = list(_deepened_shapes(index, 10**7, deep))
        assert sorted(got) == sorted(_surviving_shapes(index, True, 10**7, scratch)), degree
        assert len(set(got)) == len(got) == deep.shapes_enumerated == scratch.shapes_enumerated
        if degree >= 9:
            assert deep.nodes_visited < scratch.nodes_visited, degree
        if degree <= 7:
            slow = SearchStats()
            with mock.patch.object(classify, "_surviving_shapes", reference_surviving_shapes):
                assert list(_deepened_shapes(index, 10**7, slow)) == got, degree
            assert slow == deep, degree


@pytest.mark.parametrize("unital", [False, True])
def test_seeded_weight_zero_search_matches_the_reference(unital):
    """Weight zero, bounds 2..7: ``_surviving_shapes`` seeded with the
    shapes that pass the pair rule at the bound below gives the shapes in
    the order and the counters of ``reference_surviving_shapes``."""
    from rbalg.classify import SearchStats, _surviving_shapes

    for degree in range(2, 8):
        index = AlgebraSpec(QQ, nvars=1, unital=unital, truncation=degree).basis_index
        seeds = list(_surviving_shapes(index, False, 10**7, SearchStats(), len(index.degrees) - 1))
        got, want = SearchStats(), SearchStats()
        shapes = list(_surviving_shapes(index, False, 10**7, got, below=seeds))
        assert shapes == list(reference_surviving_shapes(index, False, 10**7, want, below=seeds)), degree
        assert got == want, degree


def test_class_closure_refuses_a_target_outside_a_seeded_domain():
    """On k0[x] at bound 4, seeded with x -> x^3, x^2 absent, x^3 -> x^3:
    the pair rule admits x^2 -> x^4, but then the gcd of the targets drops
    from 3 to 1, one class of shift 2 holds every source, and x^3 must be
    absent, which its seeded domain {x^3} refuses.  Unseeded weight-zero
    searches (Q and GF(3) to GF(13), up to the cost guard) never reach that
    refusal: there the pair rule always leaves the target the closure
    forces."""
    from rbalg.classify import ABSENT, SearchStats, _surviving_shapes

    index = AlgebraSpec(QQ, nvars=1, unital=False, truncation=4).basis_index
    seed = (2, ABSENT, 2)  # positions of x^3, -, x^3
    below = [shape_exponents(index, seed)]
    pair_rule_only = list(reference_shapes(4, False, False, 10**7, SearchStats(), below=below, rule=False))
    assert (ABSENT, 3, 4, 3, ABSENT) in pair_rule_only  # exponents: x^2 -> x^4
    assert list(_surviving_shapes(index, False, 10**7, SearchStats(), below=[seed])) == [(2, ABSENT, 2, ABSENT)]


@pytest.mark.parametrize("weight", [0, 1])
def test_search_builds_one_product_table(weight):
    """The shape DFS, the equations and the check of every candidate read
    the product rows of one ``basis_index``, so a search builds one
    ``ProductRows``, unital or not."""
    from unittest import mock

    from rbalg import classify, poly

    window, product_rows = classify._pair_verdicts, poly.ProductRows
    for algebra in (NONUNITAL, UNITAL):
        built, read = [], []

        def rows(*args, **kwargs):
            built.append(product_rows(*args, **kwargs))
            return built[-1]

        def spy(algebra, *args):
            read.append(algebra.basis_index.mul)
            return window(algebra, *args)

        with mock.patch.object(poly, "ProductRows", rows), mock.patch.object(classify, "_pair_verdicts", spy):
            report = enumerate_monomial_rb(algebra, QQ.from_int(weight), 4)
        assert len(built) == 1 and report.solutions
        assert read and all(rows is built[0] for rows in read)


@pytest.mark.parametrize("budget", [1, 3, 40, 700])
def test_shape_search_budget_matches_reference(budget):
    """Both searches abort at the same node, having yielded the same shapes,
    and the exception carries the counters at the abort.  The whole search
    visits 835 nodes."""
    from rbalg.classify import SearchStats, _surviving_shapes

    index = AlgebraSpec(QQ, nvars=1, unital=False, truncation=7).basis_index
    fast, slow = SearchStats(), SearchStats()
    got, want = [], []
    with pytest.raises(SearchBudgetExceeded):
        for t in _surviving_shapes(index, False, budget, fast):
            got.append(shape_exponents(index, t))
    with pytest.raises(SearchBudgetExceeded):
        want.extend(reference_forward_shapes(7, False, False, budget, slow))
    assert got == want and fast == slow
    assert fast.nodes_visited == budget + 1
    strategy = CoefficientStrategy(grid=(QQ.one(),), shape_budget=budget)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_monomial_rb(NONUNITAL, QQ.zero(), 7, strategy)
    aborted = exc.value.stats
    assert (aborted.nodes_visited, aborted.shapes_enumerated, aborted.shapes_pruned) == (
        fast.nodes_visited,
        fast.shapes_enumerated,
        fast.shapes_pruned,
    )


@st.composite
def compiled_pairs(draw):
    """A pair of basis positions u <= v of k0[x] or k[x] truncated at a
    bound D <= 10, and a full target vector on those positions; on k[x]
    the pair takes x^0 as a target in about half the cases."""
    from rbalg.classify import ABSENT

    D = draw(st.integers(1, 10))
    unital = draw(st.booleans())
    lam_one = draw(st.booleans())
    index = AlgebraSpec(QQ, nvars=1, unital=unital, truncation=D).basis_index
    sources = range(len(index.monomials))
    options = [ABSENT, *sources]
    t = [draw(st.sampled_from(options)) for _ in sources]
    u = draw(st.sampled_from(sources))
    v = draw(st.sampled_from(sources[u:]))
    if unital and draw(st.booleans()):  # x^0 as a target: a twin if both targets are present
        t[draw(st.sampled_from([u, v]))] = 0
    return index, lam_one, options, t, u, v


def test_pair_domain_is_exact():
    """_compile_pair reads the pair where the reference does; ready is its
    largest read but the last; and bit x of _domain, reading only t up to
    ready, is the reference verdict with t[last] = x.  When last is v no
    read is free, and _domain is -1 exactly when the reference passes.
    The reference reads exponents, here the degrees of the positions.
    Pairs with a twin of the left side (a unit target beside a present
    one) are drawn often enough that the merge is tested."""
    from rbalg.classify import _compile_pair, _domain

    twins = []

    @settings(max_examples=2000, deadline=None)
    @given(compiled_pairs())
    def check_pair(case):
        index, lam_one, options, t, u, v = case
        deg, D = index.degrees, index.degrees[-1]
        unit = 0 if deg[0] == 0 else None
        if unit is not None and min(t[u], t[v]) >= 0 and unit in (t[u], t[v]):
            twins.append(case)
        last, ready, check = _compile_pair(u, v, t[u], t[v], lam_one, index.mul, unit)
        reads = _pair_reads(shape_exponents(index, t), deg[u], deg[v], lam_one, D) | {deg[u]}
        assert deg[last] == max(reads)
        assert deg[ready] == max(reads - {deg[last]}, default=deg[last])
        if last == v:
            verdict = _pair_consistent(shape_exponents(index, t), deg[u], deg[v], lam_one, D)
            assert (_domain(t, *check) == -1) == verdict
            return
        mask = _domain(t[: ready + 1], *check)
        for x in options:
            trial = list(t)
            trial[last] = x
            verdict = _pair_consistent(shape_exponents(index, trial), deg[u], deg[v], lam_one, D)
            assert (mask >> (x + 1) & 1) == verdict, x

    check_pair()
    assert len(twins) >= 100


def test_merged_twins_drop_only_shapes_without_solutions():
    """Unital, both weights, bounds 1..6: the DFS, which sums each pair's
    twins into its left side and at weight one keeps R(1) in k*1 (the unit
    lemma), keeps a subset of the shapes that the unmerged pair rule admits
    without the unit lemma, and every shape it drops has no nonzero
    coefficients over Q or GF(7) by the reference solver.  On a unital
    basis a position is its exponent, so the shapes compare as they are."""
    from functools import partial
    from unittest import mock

    import helpers
    from rbalg.classify import SearchStats, _shape_equations, _surviving_shapes, default_strategy

    fields = (QQ, prime_field(7))
    unmerged = partial(helpers._pair_consistent, merge=False)
    dropped = 0
    for degree in range(1, 7):
        index = AlgebraSpec(QQ, nvars=1, unital=True, truncation=degree).basis_index
        for lam_one in (False, True):
            kept = set(_surviving_shapes(index, lam_one, 10**7, SearchStats()))
            with mock.patch.object(helpers, "_pair_consistent", unmerged):
                admitted = list(reference_forward_shapes(degree, True, lam_one, 10**7, SearchStats(), unit=False))
            assert kept <= set(admitted), (degree, lam_one)
            for t in admitted:
                if t in kept:
                    continue
                dropped += 1
                equations = _shape_equations(t, lam_one, index.mul)
                defined = [n for n, target in enumerate(t) if target >= 0]
                for field in fields:
                    strategy = default_strategy(field)
                    assert not reference_solve_coefficients(equations, defined, field, strategy), (
                        degree, lam_one, t, field,
                    )
    assert dropped == 1590  # the systems solved unmerged less those solved merged, summed


def test_unit_lemma_drops_only_shapes_without_solutions():
    """Unital, weight one, bounds 1..8: every shape that passes the pair
    rule with R(1) = x^j, j >= 1, has no nonzero coefficients over Q or
    GF(7) by the reference solver, as the unit lemma of ``classify`` says.
    These are the shapes the unit lemma keeps out of the search, at the
    bound and at every level of the deepening below it."""
    from rbalg.classify import ABSENT, SearchStats, _shape_equations, default_strategy

    dropped = 0
    for degree in range(1, 9):
        index = AlgebraSpec(QQ, nvars=1, unital=True, truncation=degree).basis_index
        for t in reference_forward_shapes(degree, True, True, 10**7, SearchStats(), rule=False, unit=False):
            if t[0] in (ABSENT, 0):
                continue
            dropped += 1
            equations = _shape_equations(t, True, index.mul)
            defined = [n for n, target in enumerate(t) if target >= 0]
            for field in (QQ, prime_field(7)):
                assert not reference_solve_coefficients(equations, defined, field, default_strategy(field)), (
                    degree, t, field,
                )
    assert dropped == 20


@pytest.mark.parametrize("unital", [False, True])
def test_deepening_inherits_only_pairs_that_compile_the_same(unital):
    """Weight one, bounds 1..16: after each level of ``_deepened_shapes``,
    every entry of the compiled-pair cache, those carried from the level
    below included, is ``_compile_pair`` run again on that level's rows,
    and some entries are carried."""
    from unittest import mock

    from rbalg import classify
    from rbalg.classify import SearchStats, _compile_pair, _deepened_shapes

    search = classify._surviving_shapes
    carried = 0

    def level(index, lam_one, budget, stats, size=None, below=None, pairs=None):
        nonlocal carried
        before = dict(pairs)
        shapes = list(search(index, lam_one, budget, stats, size, below, pairs))
        size = len(index.degrees) if size is None else size
        mul = [[p if p is not None and p < size else None for p in index.mul[i][:size]] for i in range(size)]
        unit = 0 if index.degrees[0] == 0 else None
        for key, entry in pairs.items():
            assert entry == _compile_pair(*key, True, mul, unit), (size, key)
            carried += key in before and before[key] is entry
        return iter(shapes)

    for degree in range(1, 17):
        index = AlgebraSpec(QQ, nvars=1, unital=unital, truncation=degree).basis_index
        with mock.patch.object(classify, "_surviving_shapes", level):
            list(_deepened_shapes(index, 10**7, SearchStats()))
    assert carried > 0


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
                tables = {repr(s["table"]) for s in got["solutions"]}
                assert len(tables) == len(got["solutions"]), (degree, unital, weight)


@pytest.mark.parametrize("field", [QQ, prime_field(7)], ids=str)
def test_repeated_grid_values_change_nothing(field):
    """A value repeated in the seed grid seeds once: the report, solutions
    and all five counters, is the one of the grid without repeats."""
    once = CoefficientStrategy(tuple(field.from_int(v) for v in (1, 2, -1)))
    twice = CoefficientStrategy(tuple(field.from_int(v) for v in (1, 1, 2, -1, 2, 1)))
    for degree in (3, 4):
        for unital in (False, True):
            algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
            for weight in (field.zero(), field.one()):
                got = enumerate_monomial_rb(algebra, weight, degree, twice)
                want = enumerate_monomial_rb(algebra, weight, degree, once)
                assert got.to_json_dict() == want.to_json_dict(), (degree, unital, weight)


@st.composite
def coefficient_systems(draw):
    """A random system for the coefficient solver: per-degree equations of
    (sign, vars) terms, linear and quadratic, over Q or a small GF(p)."""
    field = draw(st.sampled_from([QQ] + [prime_field(p) for p in (2, 3, 5, 7, 11, 13)]))
    n = draw(st.integers(1, 4))
    var = st.integers(0, n - 1)
    term = st.tuples(st.sampled_from([1, -1]), st.tuples(var) | st.tuples(var, var))
    equations = draw(st.lists(st.lists(term, min_size=1, max_size=4), max_size=5))
    unknowns = draw(st.permutations(range(n)))
    grid = draw(st.lists(field_elements(field), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        grid = [field.zero()] + [g for g in grid if g]
    strategy = CoefficientStrategy(tuple(grid), max_seeds=draw(st.integers(0, 3)))
    return equations, unknowns, field, strategy


@settings(max_examples=400, deadline=None)
@given(coefficient_systems())
def test_solver_matches_reference(system):
    """The raw-value solver against the FieldElement solver it replaced:
    its groups' instances are the same triples in the same order, values
    inserted in the same order."""
    from fractions import Fraction

    from rbalg.classify import _raw_grid, _solve_coefficients

    def flat(triples):
        return [
            ([(x, v.spec, v.value, type(v.value)) for x, v in values.items()], seeded, orphans)
            for values, seeded, orphans in triples
        ]

    grid = _raw_grid(system[3])
    got = flat(solver_instances(_solve_coefficients(*system, grid), system[2], grid))
    assert got == flat(reference_solve_coefficients(*system))
    if system[2].p is None:
        assert all(kind is Fraction for values, _, _ in got for *_, kind in values)


def flat_triples(triples):
    """Solver output with each value's field, raw value and raw type, in
    insertion order."""
    return [
        ([(x, v.spec, v.value, type(v.value)) for x, v in values.items()], seeded, orphans)
        for values, seeded, orphans in triples
    ]


def test_solver_matches_reference_on_seeded_systems():
    """3000 small systems drawn from a fixed seed, so that every run has
    cases where a value fixed late in a pass settles an earlier equation,
    which only a second pass reads: the same triples as the reference, in
    the same order, values inserted in the same order."""
    import random

    from rbalg.classify import _raw_grid, _solve_coefficients

    rng = random.Random("solver systems")
    fields = [QQ] + [prime_field(p) for p in (2, 3, 5, 7, 11, 13)]
    for _ in range(3000):
        field = rng.choice(fields)
        n = rng.randint(1, 4)

        def term():
            return rng.choice((1, -1)), tuple(rng.randrange(n) for _ in range(rng.randint(1, 2)))

        equations = [[term() for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 5))]
        values = [1, -1, 2, 3] if field.p is None else range(field.p)
        grid = rng.sample(values, rng.randint(1, min(4, len(values))))
        strategy = CoefficientStrategy(tuple(map(field.from_int, grid)), rng.randint(0, 3))
        system = (equations, rng.sample(range(n), n), field, strategy)
        groups = _solve_coefficients(*system, _raw_grid(strategy))
        assert flat_triples(solver_instances(groups, field, _raw_grid(strategy))) == flat_triples(
            reference_solve_coefficients(*system)
        )


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(11)], ids=str)
def test_solver_matches_reference_on_search_systems(field):
    """Every system the searches of ``test_search_report_matches_reference``
    hand the solver, solved again by the reference: the same triples in
    the same order, values inserted in the same order."""
    from unittest import mock

    from rbalg import classify

    solve = classify._solve_coefficients
    systems = []

    def spy(*args):
        systems.append(args)
        return solve(*args)

    with mock.patch.object(classify, "_solve_coefficients", spy):
        for degree in range(1, 6):
            for unital in (False, True):
                algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
                for weight in (field.zero(), field.one()):
                    enumerate_monomial_rb(algebra, weight, degree)
    assert len(systems) > 100
    for equations, unknowns, system_field, strategy, grid in systems:
        got = solver_instances(solve(equations, unknowns, system_field, strategy, grid), system_field, grid)
        want = reference_solve_coefficients(equations, unknowns, system_field, strategy)
        assert flat_triples(got) == flat_triples(want), (equations, unknowns)


@pytest.mark.parametrize(
    "field,grid,weight,unital,degree,stats,count",
    [
        (QQ, None, 1, False, 8, (236, 2, 149, 2, 0), 7),
        (QQ, None, 1, True, 8, (227, 4, 110, 4, 0), 4),
        (QQ, None, 0, False, 6, (436, 146, 1595, 146, 0), 771),
        (prime_field(11), (1, 2, 3), 0, True, 5, (230, 63, 940, 63, 0), 89),
    ],
)
def test_search_stats_pinned(field, grid, weight, unital, degree, stats, count):
    """Counters of fixed searches, so a change in pruning shows.  The
    structure rules prune in the domains, so every complete shape is
    solved: shapes_enumerated equals systems_solved.  At weight one the
    nodes and pruned options are summed over the levels of the deepening,
    and shapes are those at the bound."""
    strategy = None
    if grid is not None:
        strategy = CoefficientStrategy(tuple(field.from_int(v) for v in grid))
    algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
    report = enumerate_monomial_rb(algebra, field.from_int(weight), degree, strategy)
    assert tuple(report.stats.to_json_dict().values()) == stats
    assert report.stats.shapes_enumerated == report.stats.systems_solved
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
    from rbalg import (
        AutomorphismSpec,
        construct_splitting,
        op_conjugate,
        operators_agree,
        split_constant_part,
    )

    for field in (QQ, prime_field(7)):
        for truncation in (None, 6):
            algebra = AlgebraSpec(field, nvars=1, unital=True, truncation=truncation)
            alpha = field.from_int(2)
            one_mono = algebra.one_monomial()
            entries = {algebra.monomial(n): (alpha**n, one_mono) for n in range(0, 7)}
            table = MonomialOperatorTable(algebra, -field.one(), 6, entries)
            match = match_family(table)
            assert match.kind is MatchKind.SPLITTING_CONJUGATE
            assert match.alpha == alpha
            # the conjugation chain the match stands for: scale x -> x/a, then
            # shift x -> x - 1, and the table becomes the splitting operator
            descaled = op_conjugate(table, AutomorphismSpec.scaling((alpha.inverse(),)))
            shifted = op_conjugate(descaled, AutomorphismSpec.shift())
            splitting = construct_splitting(split_constant_part(), -field.one(), algebra, 6)
            assert operators_agree(shifted, splitting, 6)
            # the same table at weight 2 normalizes to it
            minus_two = field.from_int(-2)
            doubled = {src: (c * minus_two, dst) for src, (c, dst) in entries.items()}
            table = MonomialOperatorTable(algebra, field.from_int(2), 6, doubled)
            assert match_family(table) == match
            broken = dict(entries)
            broken[algebra.monomial(4)] = (alpha**4 + field.one(), one_mono)
            table = MonomialOperatorTable(algebra, -field.one(), 6, broken)
            assert match_family(table).kind is MatchKind.UNMATCHED


def test_match_splitting_conjugate_refusals():
    """Unital univariate tables of weight -1 outside the splitting
    conjugates: one image off the constants; constant images without
    R(x); constant images with R(1) other than 1.  Each is unmatched."""
    one, x = UNITAL.one_monomial(), UNITAL.monomial
    minus = -QQ.one()
    for entries in (
        {x(1): (QQ.one(), x(2))},
        {one: (QQ.from_int(2), one)},
        {one: (QQ.from_int(2), one), x(1): (QQ.one(), one)},
    ):
        table = MonomialOperatorTable(UNITAL, minus, 3, entries)
        assert match_family(table) == FamilyMatch(MatchKind.UNMATCHED)


def test_match_leaves_a_multivariate_table_unmatched():
    """A bivariate family table, of weight zero or one, is reported
    unmatched with the note that no family is matched in several
    variables."""
    from rbalg import MultivariateFamilyParams, MultivariateKind, construct_multivariate

    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    alphas = (QQ.one(), QQ.from_int(2))
    for kind in (MultivariateKind.WEIGHT_ZERO, MultivariateKind.WEIGHT_ONE):
        table = construct_multivariate(MultivariateFamilyParams(kind, alphas), algebra, 3)
        assert match_family(table) == FamilyMatch(MatchKind.UNMATCHED, note="multivariate table")


def test_match_unmatched():
    entries = {
        NONUNITAL.monomial(1): (QQ.one(), NONUNITAL.monomial(3)),
        NONUNITAL.monomial(2): (QQ.one(), NONUNITAL.monomial(6)),
    }
    table = MonomialOperatorTable(NONUNITAL, QQ.one(), 8, entries)
    assert match_family(table).kind is MatchKind.UNMATCHED


def test_match_weight_zero_with_a_vanishing_family_denominator():
    """Over GF(2) the m = 1 member through R(x) = x^3 needs 1/4 at x^2, so
    the table below is no family member; it is reported unmatched."""
    field = prime_field(2)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=4)
    entries = {
        algebra.monomial(1): (field.one(), algebra.monomial(3)),
        algebra.monomial(2): (field.one(), algebra.monomial(4)),
    }
    table = MonomialOperatorTable(algebra, field.zero(), 4, entries)
    assert reference_rb_check(table, field.zero(), 4).passed
    assert match_family(table).kind is MatchKind.UNMATCHED


def test_match_never_raises_on_verified_weight_zero_tables():
    """Every weight-0 table over GF(2) and GF(3) on a shape the search keeps,
    with at most three entries, that passes the check gets a match."""
    import itertools

    from rbalg import rb_check
    from rbalg.classify import SearchStats, _surviving_shapes

    for field, D, unital in itertools.product(
        [prime_field(2), prime_field(3)], (3, 4, 5), (False, True)
    ):
        algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=D)
        index = algebra.basis_index
        for shape in _surviving_shapes(index, False, 10**6, SearchStats()):
            t = shape_exponents(index, shape)
            defined = [n for n in range(algebra.min_degree(), D + 1) if t[n] >= 0]
            if len(defined) > 3:
                continue
            for coeffs in itertools.product(range(1, field.p), repeat=len(defined)):
                entries = {
                    algebra.monomial(n): (field.from_int(c), algebra.monomial(t[n]))
                    for n, c in zip(defined, coeffs)
                }
                table = MonomialOperatorTable(algebra, field.zero(), D, entries)
                if rb_check(table, field.zero(), D).passed:
                    match_family(table)


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(13)], ids=str)
def test_match_agrees_with_the_rebuilding_reference_on_search_tables(field):
    """On every fully determined table of the weight-0 and weight-1 searches
    at bounds 1..6, match_family gives what the construct-based matchers
    give, and it is the match the search reported."""
    count = 0
    for degree in range(1, 7):
        for unital in (False, True):
            algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
            for weight in (field.zero(), field.one()):
                for sol in enumerate_monomial_rb(algebra, weight, degree).fully_determined():
                    want = reference_match_family(sol.table)
                    assert match_family(sol.table) == want == sol.match, sol.table.to_json_dict()
                    count += 1
    assert count > 200


def _perturbed(table, rng):
    """The table with one entry dropped, rescaled or moved, or one added."""
    algebra = table.algebra
    field = algebra.field
    entries = dict(table.entries)
    top = table.degree_bound if algebra.truncation is None else algebra.truncation
    src = algebra.monomial(rng.randint(algebra.min_degree(), table.degree_bound))
    target = algebra.monomial(rng.randint(algebra.min_degree(), top))
    hit = entries.get(src)
    choice = rng.randrange(3)
    if hit is None:
        entries[src] = (field.from_int(rng.randint(1, 3)), target)
    elif choice == 0:
        del entries[src]
    elif choice == 1 and not (hit[0] * 2).is_zero():
        entries[src] = (hit[0] * 2, hit[1])
    else:
        entries[src] = (hit[0], target)
    return MonomialOperatorTable(algebra, table.weight, table.degree_bound, entries)


@pytest.mark.parametrize("field", [QQ, prime_field(2), prime_field(5), prime_field(7)], ids=str)
def test_match_agrees_with_the_rebuilding_reference_on_members(field):
    """Random weight-zero family members, truncated or not, unital or not,
    and one-entry perturbations of each: match_family gives what the
    construct-based matchers give.  Members whose denominators vanish in
    GF(p) cannot be built, and are skipped."""
    import random

    rng = random.Random(f"members/{field}")
    members = 0
    for _ in range(300):
        params = random_weight_zero_params(rng, field)
        unital = rng.random() < 0.5
        if unital:
            params = WeightZeroFamilyParams(params.m, {b % params.m: c for b, c in params.classes.items()})
        bound = rng.randint(1, 8)
        truncation = rng.choice([None, bound, bound + rng.randint(1, 4)])
        algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=truncation)
        try:
            table = construct_weight_zero(params, algebra, bound)
        except CharacteristicObstruction:
            continue
        members += 1
        assert match_family(table) == reference_match_family(table)
        for _ in range(3):
            perturbed = _perturbed(table, rng)
            assert match_family(perturbed) == reference_match_family(perturbed)
    assert members >= 50


def test_match_refuses_members_whose_denominators_vanish():
    """Over GF(7) the weight-zero member with m = 2 and p_1 = 3 needs 1/14
    at x^9, and the weight-one member with alpha = 1 needs 1/(2^3 - 1) at
    x^3.  A table that follows either formula wherever it is defined is
    no member, and both matchers say so."""
    field = prime_field(7)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
    q = field.from_int(3)
    params = WeightZeroFamilyParams(2, {1: (3, q), 2: (0, field.zero())})
    with pytest.raises(CharacteristicObstruction):
        construct_weight_zero(params, algebra, 9)
    entries = {
        algebra.monomial(2 * a + 1): (q / field.from_int(2 * (a + 3)), algebra.monomial(2 * (a + 3)))
        for a in range(4)
    }
    for coeff in range(1, 7):
        entries[algebra.monomial(9)] = (field.from_int(coeff), algebra.monomial(14))
        table = MonomialOperatorTable(algebra, field.zero(), 9, entries)
        assert match_family(table) == reference_match_family(table)
        assert match_family(table).kind is MatchKind.UNMATCHED
    alpha = field.one()
    with pytest.raises(DenominatorVanishes):
        construct_weight_one_univariate(alpha, algebra, 3)
    # the member at bound 2 fails at (x, x^2) on k0[x] and is refused there; its entries are the quotient's
    member = construct_weight_one_univariate(alpha, AlgebraSpec(field, 1, False, 2), 2)
    for coeff in range(1, 7):
        entries = dict(member.entries)
        entries[algebra.monomial(3)] = (field.from_int(coeff), algebra.monomial(3))
        table = MonomialOperatorTable(algebra, field.one(), 3, entries)
        assert match_family(table) == reference_match_family(table)
        assert match_family(table).kind is MatchKind.UNMATCHED


def test_match_refuses_rational_members_that_fail_past_their_bound():
    """Over Q the weight-one formula at alpha = -1/2 gives R(x) = -x/2 at
    bound 1, which fails the identity at (x, x) on k0[x]: the constructor
    refuses it there, so it is no member, while on k0[x]/(x^2) it is one."""
    half = QQ.element(-1, 2)
    table = MonomialOperatorTable(NONUNITAL, QQ.one(), 1, {NONUNITAL.monomial(1): (half, NONUNITAL.monomial(1))})
    assert match_family(table) == reference_match_family(table)
    assert match_family(table).kind is MatchKind.UNMATCHED
    quotient = AlgebraSpec(QQ, 1, False, 1)
    member = MonomialOperatorTable(quotient, QQ.one(), 1, {quotient.monomial(1): (half, quotient.monomial(1))})
    assert match_family(member) == reference_match_family(member)
    assert match_family(member).kind is MatchKind.WEIGHT_ONE_FAMILY

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


@pytest.mark.parametrize(
    "weight,count,digest",
    [
        (0, 24, "d3b5a7f2c17c160572405127cf5bfaf391116064293cb20c47165462deaa6e00"),
        (1, 34, "f09846fbe889a75a5e0e379e08fda9c60d87fd4a3693ff151f2acf1e0146b474"),
    ],
)
def test_injective_diagonal_search_is_pinned(weight, count, digest):
    """sha256 of the tables the injective diagonal search reports on
    k0[x, y] at bound 3 over Q, in order (``json.dumps`` with sorted keys).
    Each holds on every pair of its domain: at weight 0 two tables that
    fail past the bound are not reported."""
    import hashlib
    import json

    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    tables = enumerate_injective_diagonal(algebra, QQ.from_int(weight), 3)
    text = json.dumps([t.to_json_dict() for t in tables], sort_keys=True)
    assert len(tables) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_injective_diagonal_matches_the_reference_equations():
    """enumerate_injective_diagonal hands the solver exactly the equations
    the monomial-product builder makes, and keeps exactly the solutions
    without orphans that the reference pair loop passes.  Over Q and GF(7),
    at weights 0 and 1, unital or not, truncated at the bound or not, in
    1-3 variables at bounds 1-4; the seed grid shrinks in 3 variables to
    keep the tables few."""
    import itertools
    from unittest import mock

    from rbalg import classify

    solve = classify._solve_coefficients
    cases = itertools.product(
        [QQ, prime_field(7)], (0, 1), (False, True), (False, True), (1, 2, 3), range(1, 5)
    )
    for field, w, unital, truncated, nvars, bound in cases:
        algebra = AlgebraSpec(field, nvars, unital, bound if truncated else None)
        weight = field.from_int(w)
        grid = (2,) if nvars == 3 else (1, 2)
        strategy = CoefficientStrategy(tuple(field.from_int(g) for g in grid))
        calls = []

        def spy(equations, *rest):
            calls.append((equations, solve(equations, *rest)))
            return calls[-1][1]

        with mock.patch.object(classify, "_solve_coefficients", spy):
            tables = enumerate_injective_diagonal(algebra, weight, bound, strategy)
        ((equations, groups),) = calls
        case = (field, w, unital, truncated, nvars, bound)
        assert equations == reference_diagonal_equations(algebra, weight, bound), case
        basis = list(algebra.basis(bound))
        want = []
        for values, _, orphans in solver_instances(groups, field, classify._raw_grid(strategy)):
            entries = {m: (values[i], m) for i, m in enumerate(basis)}
            table = MonomialOperatorTable(algebra, weight, bound, entries)
            if not orphans and reference_rb_check(table, weight, 2 * bound).passed:
                want.append(table)
        assert tables == want, case


def test_injective_diagonal_search_validates_the_weight_first():
    # at bound 1 no pair has its product inside the window, so no equation
    # is built; the weight is refused all the same
    for bound in (1, 2):
        with pytest.raises(InvalidParams):
            enumerate_injective_diagonal(NONUNITAL, QQ.from_int(2), bound)


def test_injective_diagonal_search_refuses_a_bound_past_the_truncation():
    truncated = AlgebraSpec(QQ, nvars=1, unital=True, truncation=3)
    for weight in (QQ.zero(), QQ.one()):
        with pytest.raises(InvalidParams):
            enumerate_injective_diagonal(truncated, weight, 5)


def test_injective_diagonal_search_refuses_a_negative_bound():
    with pytest.raises(InvalidParams):
        enumerate_injective_diagonal(NONUNITAL, QQ.one(), -1)


def test_injective_diagonal_search_at_bound_zero():
    """Bound 0 is allowed: on the unital algebra it solves for R(1) alone,
    and the non-unital basis is empty, so the zero table is all there is."""
    minus_one = MonomialOperatorTable(
        UNITAL, QQ.one(), 0, {UNITAL.monomial(0): (-QQ.one(), UNITAL.monomial(0))}
    )
    assert enumerate_injective_diagonal(UNITAL, QQ.one(), 0) == [minus_one]
    assert enumerate_injective_diagonal(UNITAL, QQ.zero(), 0) == []
    zero = MonomialOperatorTable(NONUNITAL, QQ.one(), 0, {})
    assert enumerate_injective_diagonal(NONUNITAL, QQ.one(), 0) == [zero]


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


def test_search_refuses_several_variables():
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    for weight in (QQ.zero(), QQ.one()):
        with pytest.raises(InvalidParams, match="the shape search is univariate"):
            enumerate_monomial_rb(algebra, weight, 2)


def test_search_refuses_a_weight_from_another_field():
    """A GF(5) weight on a Q algebra is refused by both searches, zero
    or one, before any shape is built."""
    for weight in (prime_field(5).zero(), prime_field(5).one()):
        with pytest.raises(MixedAlgebras, match="weight from a different field"):
            enumerate_monomial_rb(NONUNITAL, weight, 3)
        with pytest.raises(MixedAlgebras, match="weight from a different field"):
            enumerate_injective_diagonal(NONUNITAL, weight, 3)


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


def reverify_searches():
    """(algebra, weight, bound) of the searches whose tables are checked
    again: Q, GF(11) and GF(13) on default grids, unital or not, weight 0
    at bounds 1-6 and weight 1 at bounds 1-8."""
    for field in (QQ, prime_field(11), prime_field(13)):
        for unital in (False, True):
            algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
            for weight, top in ((0, 6), (1, 8)):
                for bound in range(1, top + 1):
                    yield algebra, field.from_int(weight), bound


@pytest.fixture(scope="module")
def reverified_reports():
    """(algebra, weight, bound, report) for each of ``reverify_searches``,
    searched once for the tests that judge the reports."""
    return [(*search, enumerate_monomial_rb(*search)) for search in reverify_searches()]


def test_search_solutions_reverify_independently(reverified_reports):
    """A table of a symbolic group is reported without a check of its own,
    so every reported table is checked here by ``rb_check`` and by
    ``perfbench/reference.rb_verdict``, which imports nothing from rbalg."""
    from rbalg import rb_check

    ref = load_benchmark_reference()
    checked = 0
    for algebra, weight, bound, report in reverified_reports:
        alg = ref.Algebra(1, algebra.unital, bound)
        F = ref.Field(algebra.field.p)
        for sol in report.solutions:
            assert rb_check(sol.table, weight, bound).passed, sol.table
            R = {src.exponents: {dst.exponents: c.value} for src, (c, dst) in sol.table.entries.items()}
            assert ref.rb_verdict(R, bound, weight.value, alg, F, bound)[1] is None, sol.table
            checked += 1
    assert checked == 15_899  # as many as the per-instance path reports


def test_search_matches_the_per_instance_path(reverified_reports):
    """On the same searches, the report equals the one of the per-instance
    path (each grid instance solved and checked alone): the solutions with
    their seeded and under_constrained sources and matches, and the five
    counters."""
    for algebra, weight, bound, report in reverified_reports:
        got = report.to_json_dict()
        want = per_instance_enumerate_monomial_rb(algebra, weight, bound).to_json_dict()
        assert got == want, (algebra, weight, bound)


def every_candidate(search, *args):
    """(table, reported) for every candidate the solver yields in a search,
    passing or rejected: each instance of each group of each shape built
    into a table, and whether ``_verified_tables`` let it through, on the
    search's own window verdict.  Also the search's result."""
    from unittest import mock

    from rbalg import classify
    from rbalg.fields import FieldElement

    verified, candidates = classify._verified_tables, []

    def spy(t, index, algebra, weight, D, strategy, grid, stats):
        passed = list(verified(t, index, algebra, weight, D, strategy, grid, stats))
        tables = [table for table, _, _ in passed]
        field, monos = algebra.field, index.monomials
        defined = [n for n, target in enumerate(t) if target >= 0]
        equations = classify._shape_equations(t, weight.is_one(), index.mul)
        for values, seeded, _ in classify._solve_coefficients(equations, defined, field, strategy, grid):
            for raw in classify._instances(values, seeded, grid, field.p):
                entries = {monos[n]: (FieldElement(field, raw[n]), monos[t[n]]) for n in defined}
                table = MonomialOperatorTable(algebra, weight, D, entries)
                candidates.append((table, table in tables))
        return iter(passed)

    with mock.patch.object(classify, "_verified_tables", spy):
        result = search(*args)
    return candidates, result


def reference_holds(ref, table, weight) -> bool:
    """``perfbench/reference`` on every pair of the table's domain: its
    ``rb_verdict`` when the algebra is truncated at the bound, where no pair
    leaves the domain; else its ``rb_residual`` on the pairs of arguments
    within the bound whose degrees sum to at most twice it, a pair whose
    residual applies R above the bound skipped, as ``rb_check`` skips it."""
    algebra, D = table.algebra, table.degree_bound
    alg, F = ref.Algebra(algebra.nvars, algebra.unital, algebra.truncation), ref.Field(algebra.field.p)
    R = {src.exponents: {dst.exponents: c.value} for src, (c, dst) in table.entries.items()}
    if algebra.truncation == D:
        return ref.rb_verdict(R, D, weight.value, alg, F, D)[1] is None
    for u, v in ref.pairs(alg, 2 * D):
        if max(sum(u), sum(v)) <= D:
            try:
                if ref.rb_residual(R, D, u, v, weight.value, alg, F):
                    return False
            except ref.OutsideDomain:
                pass
    return True


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(11), prime_field(13)], ids=str)
def test_every_search_candidate_is_judged_as_the_references_judge_it(field):
    """Every candidate the solver yields in the shape search, passing or
    rejected, at weights 0 and 1, unital or not, at bounds 1-5 (1-4 over
    GF(11) and GF(13) at weight 0, whose default grids seed 10 and 12
    values): it is reported exactly when ``rb_check`` on its table passes
    at twice the bound and ``perfbench/reference.rb_verdict`` passes it,
    and the rejected ones are the search's ``candidates_rejected``.  The
    searches as they are reject nothing, so each runs again with the last
    equation of every shape dropped, which lets failing candidates
    through the solver."""
    from unittest import mock

    from rbalg import classify

    equations = classify._shape_equations
    ref = load_benchmark_reference()
    judged = rejected = 0
    for unital, w, fewer in itertools.product((False, True), (0, 1), (False, True)):
        algebra, weight = AlgebraSpec(field, 1, unital), field.from_int(w)
        for D in range(1, 6 if w or field.p in (None, 7) else 5):
            with mock.patch.object(classify, "_shape_equations", lambda *a: equations(*a)[: -1 if fewer else None]):
                candidates, report = every_candidate(enumerate_monomial_rb, algebra, weight, D)
            assert sum(not reported for _, reported in candidates) == report.stats.candidates_rejected
            assert len(candidates) - report.stats.candidates_rejected == len(report.solutions)
            for table, reported in candidates:
                assert reported == rb_check(table, weight, 2 * D).passed == reference_holds(ref, table, weight)
            judged += len(candidates)
            rejected += report.stats.candidates_rejected
    assert judged > rejected > 0


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(11), prime_field(13)], ids=str)
def test_every_injective_candidate_is_judged_as_the_references_judge_it(field):
    """The same for the injective diagonal search in one and two variables,
    unital or not, at weights 0 and 1, on algebras untruncated, truncated
    at the bound and truncated above it, at bounds 1-5 (1-2 in two
    variables), on default grids: a candidate is reported exactly when its
    table holds on every pair of its domain."""
    ref = load_benchmark_reference()
    judged = reported_count = 0
    for nvars, unital, w in itertools.product((1, 2), (False, True), (0, 1)):
        weight = field.from_int(w)
        for D in range(1, 6 if nvars == 1 else 3):
            for truncation in (None, D, D + 2):
                algebra = AlgebraSpec(field, nvars, unital, truncation)
                candidates, tables = every_candidate(enumerate_injective_diagonal, algebra, weight, D)
                for table, reported in candidates:
                    assert reported == rb_check(table, weight, 2 * D).passed == reference_holds(ref, table, weight)
                assert all(table in [c for c, reported in candidates if reported] for table in tables)
                judged += len(candidates)
                reported_count += sum(reported for _, reported in candidates)
    assert judged > reported_count > 0


def test_injective_search_reports_only_tables_that_hold_in_their_domain():
    """Over GF(3) at weight 0 on k0[x] at bound 2, R(x) = x, R(x^2) = 2x^2
    and R(x) = 2x, R(x^2) = x^2 hold in the quotient by x^3, but past it
    the pair (x, x^2) has the inner term 3x^3 = 0 and the left side
    2x^3: on k0[x], untruncated or truncated at 5, the search reports
    neither."""
    F3 = prime_field(3)
    for truncation, count in ((2, 2), (None, 0), (5, 0)):
        algebra = AlgebraSpec(F3, 1, False, truncation)
        tables = enumerate_injective_diagonal(algebra, F3.zero(), 2)
        x = algebra.monomial
        assert len(tables) == count
        assert [{(1,): c.value for c, _ in [t.entries[x(1)]]} for t in tables] == [{(1,): 1}, {(1,): 2}][:count]


def test_symbolic_groups_are_checked_once():
    """The search checks a symbolic group once, on its Laurent values, and
    each table outside the symbolic groups once, so the saving cannot
    quietly go."""
    from unittest import mock

    from rbalg import classify

    solve = classify._solve_coefficients
    symbolic = []

    def spy_solve(*args):
        groups = solve(*args)
        for values, seeded, orphans in groups:
            if classify._symbols(values, seeded):
                symbolic.append(len(list(classify._instances(values, seeded, args[4], args[2].p))))
        return groups

    counts = []
    for field, unital in ((QQ, False), (QQ, True), (prime_field(13), False)):
        algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=None)
        symbolic.clear()
        with mock.patch.object(classify, "_solve_coefficients", spy_solve), search_checks() as checks:
            report = enumerate_monomial_rb(algebra, field.zero(), 6)
        assert report.stats.candidates_rejected == 0
        alone = [held for is_symbolic, held in checks if not is_symbolic]
        assert len(checks) - len(alone) == len(symbolic) and all(held for _, held in checks)
        assert len(alone) == len(report.solutions) - sum(symbolic)
        counts.append((len(report.solutions), len(symbolic), sum(symbolic), len(alone)))
    assert counts == [(771, 28, 648, 123), (771, 28, 648, 123), (3369, 28, 3240, 129)]


def test_a_failing_symbolic_group_checks_each_instance():
    """With the last equation of every shape dropped, some symbolic groups
    fail their one check; each of their instances is then checked alone,
    and over GF(7), whose grid is all of GF(7)*, one passes by accident.
    The reports equal those of the per-instance path."""
    from unittest import mock

    from rbalg import classify

    equations = classify._shape_equations

    def fewer(*args):
        return equations(*args)[:-1]

    for field, rejected in ((QQ, 6), (prime_field(7), 5)):
        algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
        with mock.patch.object(classify, "_shape_equations", fewer):
            with search_checks() as checks:
                got = enumerate_monomial_rb(algebra, field.zero(), 3)
            want = per_instance_enumerate_monomial_rb(algebra, field.zero(), 3)
        assert [held for symbolic, held in checks if symbolic] == [False]
        assert got.stats.candidates_rejected == rejected  # of the group's 6 instances
        assert got.to_json_dict() == want.to_json_dict()


def test_packed_exponents():
    """Exponent vectors pack into balanced digits, so a product of Laurent
    monomials adds keys; a solved exponent at the cap falls back."""
    from rbalg.laurent import EXPONENT_CAP, SLOT, Fallback, Laurent, exponents, quotient

    def key(*e):
        return sum(d << SLOT * i for i, d in enumerate(e))

    for e in ((1,), (0, -2), (3, -1, 0, 2), (-(EXPONENT_CAP - 1), EXPONENT_CAP - 1)):
        assert exponents(key(*e)) == list(e[: max(i + 1 for i, d in enumerate(e) if d)])
    s1, s2 = Laurent.seed(0, 1), Laurent.seed(1, 1)
    assert (s1, s2) == (Laurent({key(1): 1}), Laurent({key(0, 1): 1}))
    assert s1 * s2 * s2 == Laurent({key(1, 2): 1})
    assert (s1 + s2) * (s1 - s2) == Laurent({key(2): 1, key(0, 2): -1})
    assert s1 - s1 == 0 and (s1 * 7) % 7 == 0
    assert 3 - s1 * s1 == Laurent({0: 3, key(2): -1}) and 3 - s1 * 0 == 3
    assert quotient(s1 * 3, s2, 5) == Laurent({key(1, -1): 3})
    assert quotient(s1 * 3, s1, 5) == 3
    with pytest.raises(Fallback):
        quotient(Laurent({key(EXPONENT_CAP - 1): 1}), Laurent({key(-1): 1}), None)


def test_an_all_zero_grid_is_refused():
    """A grid with no nonzero value would drop every seeded table: both
    searches refuse it, unless max_seeds is 0."""
    for search in (enumerate_monomial_rb, enumerate_injective_diagonal):
        for weight in (QQ.zero(), QQ.one()):
            with pytest.raises(InvalidParams, match="no nonzero value"):
                search(NONUNITAL, weight, 4, CoefficientStrategy((QQ.zero(),)))
    none = CoefficientStrategy((QQ.zero(),), max_seeds=0)
    report = enumerate_monomial_rb(NONUNITAL, QQ.zero(), 4, none)
    assert (len(report.solutions), len(report.fully_determined())) == (24, 1)
    unseeded = CoefficientStrategy((QQ.one(),), max_seeds=0)
    assert report.to_json_dict() == enumerate_monomial_rb(NONUNITAL, QQ.zero(), 4, unseeded).to_json_dict()
    assert enumerate_injective_diagonal(NONUNITAL, QQ.zero(), 4, none) == []


GF5_BOUND = {False: 4, True: 3}  # unital -> the bound of the exhaustive GF(5) oracle


def gf5_tables(unital: bool, D: int, max_entries=None):
    """Every monomial table over GF(5) on k0[x] or k[x] truncated at D, as
    raw tuples: (n, c, T) for each entry R(x^n) = c x^T, in a tuple."""
    sources = range(0 if unital else 1, D + 1)
    for shape in itertools.product([None, *sources], repeat=len(sources)):
        defined = [(n, T) for n, T in zip(sources, shape) if T is not None]
        if max_entries is not None and len(defined) > max_entries:
            continue
        for coeffs in itertools.product(range(1, 5), repeat=len(defined)):
            yield tuple((n, c, T) for (n, T), c in zip(defined, coeffs))


def benchmark_verdict(ref, unital: bool, D: int, weight_value: int):
    """Whether a raw table passes ``perfbench/reference.rb_verdict``, a
    judge that imports nothing from rbalg."""
    alg, F = ref.Algebra(1, unital, D), ref.Field(5)

    def passes(entries) -> bool:
        R = {(n,): {(T,): c} for n, c, T in entries}
        return ref.rb_verdict(R, D, weight_value, alg, F, D)[1] is None

    return passes


@pytest.mark.parametrize("weight_value", [0, 1])
@pytest.mark.parametrize("unital", [False, True])
def test_search_against_exhaustive_ground_truth_gf5(weight_value, unital):
    """Oracle: over GF(5) at a small bound the whole table space is
    finite, so every monomial operator can be found by raw enumeration.
    The search must be sound (a subset of the ground truth) and complete
    on shapes respecting the structural filter it enforces.  The tables
    are raw tuples judged by ``perfbench/reference.rb_verdict``, which
    shares no code with the search or its re-verification.  The ground
    truth also bears out the top lemma of ``classify``, on which the
    weight-one deepening rests: every table maps x^D to nothing or to
    x^D, and its restriction to the quotient by x^D passes the identity
    at D - 1; and its unit lemma: at weight one every unital table maps 1
    to nothing or to c*1.
    """
    from rbalg.classify import ABSENT

    D = GF5_BOUND[unital]
    ref = load_benchmark_reference()
    passes = benchmark_verdict(ref, unital, D, weight_value)
    truth = {frozenset(entries) for entries in gf5_tables(unital, D) if passes(entries)}
    restricted_passes = benchmark_verdict(ref, unital, D - 1, weight_value)
    for sig in truth:
        assert all(T == D for n, _, T in sig if n == D), sorted(sig)
        if unital and weight_value:  # the unit lemma
            assert all(T == 0 for n, _, T in sig if n == 0), sorted(sig)
        assert restricted_passes(tuple((n, c, T) for n, c, T in sig if n < D and T < D)), sorted(sig)
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=D)
    report = enumerate_monomial_rb(algebra, field.from_int(weight_value), D)
    found = {
        frozenset(
            (src.exponents[0], coeff.value, dst.exponents[0])
            for src, (coeff, dst) in s.table.entries.items()
        )
        for s in report.solutions
    }
    assert found <= truth  # soundness: nothing invented

    def covers(solution, sig):
        # identical shape, and identical coefficients wherever the
        # solver pinned one (under-constrained slots are free by proof,
        # so one representative stands for the whole family)
        entries = {
            src.exponents[0]: (coeff.value, dst.exponents[0])
            for src, (coeff, dst) in solution.table.entries.items()
        }
        target = {n: (c, T) for n, c, T in sig}
        if set(entries) != set(target):
            return False
        for n, (c, T) in target.items():
            got_c, got_T = entries[n]
            if got_T != T:
                return False
            if n not in solution.under_constrained and got_c != c:
                return False
        return True

    sources = list(range(0 if unital else 1, D + 1))
    for sig in truth:
        t = [ABSENT] * (D + 1)
        for n, _, T in sig:
            t[n] = T
        if weight_value == 0:
            structural = _respects_class_closure(t, sources, D, unital=unital)
        else:
            structural = _respects_kernel_image_structure(t, sources)
        if structural:
            assert any(covers(s, sig) for s in report.solutions), (
                f"missing structure-respecting solution {sorted(sig)}"
            )


@pytest.mark.parametrize("weight_value", [0, 1])
@pytest.mark.parametrize("unital", [False, True])
def test_ground_truth_judges_agree_on_a_slice(weight_value, unital):
    """The oracle's judge, ``perfbench/reference.rb_verdict`` on raw
    tuples, and ``reference_rb_check`` on rbalg's own tables give the same
    verdict on every GF(5) table of the oracle's cases with at most two
    entries."""
    D = GF5_BOUND[unital]
    passes = benchmark_verdict(load_benchmark_reference(), unital, D, weight_value)
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=unital, truncation=D)
    lam = field.from_int(weight_value)
    verdicts = set()
    for entries in gf5_tables(unital, D, max_entries=2):
        table = MonomialOperatorTable(
            algebra,
            lam,
            D,
            {algebra.monomial(n): (field.from_int(c), algebra.monomial(T)) for n, c, T in entries},
        )
        verdict = passes(entries)
        assert reference_rb_check(table, lam, D).passed == verdict, entries
        verdicts.add(verdict)
    assert verdicts == {False, True}
