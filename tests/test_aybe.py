import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    field_elements,
    load_benchmark_reference,
    rational_elements,
    reference_aybe_grid_search,
    reference_aybe_nodes,
)
from rbalg import (
    QQ,
    AlgebraSpec,
    Monomial,
    TensorElement,
    aybe_grid_search,
    aybe_residual,
    operator_from_tensor,
    rb_check,
    rb_residual,
)
from rbalg.errors import InvalidParams, MixedFieldSpecs, NonUnitalAlgebra, SearchBudgetExceeded
from rbalg.fields import FieldSpec, prime_field

UNITAL = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)
ONE = UNITAL.one_monomial()


def unit_tensor(scale):
    return TensorElement(UNITAL, 2, {(ONE, ONE): scale})


def test_unit_tensor_solves_the_equation():
    for lam in (QQ.one(), QQ.from_int(2), -QQ.one()):
        assert aybe_residual(unit_tensor(lam), lam).is_zero()


def test_zero_tensor_solves_everything():
    zero = TensorElement(UNITAL, 2, {})
    assert aybe_residual(zero, QQ.one()).is_zero()
    assert aybe_residual(zero, QQ.zero()).is_zero()


def test_tensors_refuse_another_field():
    gf5 = FieldSpec.from_string("Fp:5")
    with pytest.raises(MixedFieldSpecs):
        TensorElement(UNITAL, 2, {(ONE, ONE): gf5.one()})
    with pytest.raises(MixedFieldSpecs):
        TensorElement(UNITAL, 2, {(ONE, ONE): gf5.zero()})
    for tensor in (TensorElement(UNITAL, 2, {}), unit_tensor(QQ.one())):
        with pytest.raises(MixedFieldSpecs):
            aybe_residual(tensor, gf5.one())


def test_x_tensor_x_leading_term():
    x = UNITAL.monomial(1)
    r = TensorElement(UNITAL, 2, {(x, x): QQ.one()})
    residual = aybe_residual(r, QQ.one())
    assert not residual.is_zero()
    # the top-degree self-pair survives: coefficient 1 at x^2 (x) x (x) x
    assert residual.coeff((UNITAL.monomial(2), x, x)) == QQ.one()


def test_leading_term_obstruction_on_random_tensors():
    rng = random.Random(99)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(0, 3)
            j = rng.randint(0, 3)
            c = rng.randint(-3, 3)
            if c:
                terms[(UNITAL.monomial(i), UNITAL.monomial(j))] = QQ.from_int(c)
        r = TensorElement(UNITAL, 2, terms)
        N = max((a.degree() for a, _ in r.terms), default=0)
        if N == 0:
            continue
        residual = aybe_residual(r, QQ.one())
        for (a, b), coeff in r.terms.items():
            if a.degree() != N:
                continue
            key = (UNITAL.monomial(2 * N), b, b)
            assert residual.coeff(key) == coeff * coeff


def test_embeddings_and_marginals():
    x = UNITAL.monomial(1)
    r = TensorElement(
        UNITAL, 2, {(x, ONE): QQ.from_int(2), (UNITAL.monomial(2), x): QQ.one()}
    )
    assert r.embed((0, 1)).marginal(2) == r
    assert r.embed((0, 2)).marginal(1) == r
    assert r.embed((1, 2)).marginal(0) == r


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tensor_arithmetic_agrees_with_the_checked_constructor(data):
    """Sums, products, negation, scaling, embeddings and marginals build
    their results unchecked; the checked constructor takes each result's
    terms back unchanged: basis keys and no zero coefficient."""
    field = data.draw(st.sampled_from([QQ, prime_field(3), prime_field(5)]))
    algebra = AlgebraSpec(field, nvars=data.draw(st.integers(1, 2)), unital=True)
    small = list(algebra.basis(2))
    coeffs = field_elements(field)
    keys = st.tuples(st.sampled_from(small), st.sampled_from(small))
    r, s = (TensorElement(algebra, 2, data.draw(st.dictionaries(keys, coeffs, max_size=4))) for _ in "rs")
    r13 = r.embed((0, 2))
    results = [
        r + s, r - s, -r, r * s, r.scale(data.draw(coeffs)),
        r.embed((0, 1)), r13, r13 * s.embed((1, 2)), r13.marginal(1), aybe_residual(r, field.one()),
    ]
    for t in results:
        assert t == TensorElement(algebra, t.arity, t.terms)
    assert r13.marginal(1) == r and -(-r) == r and (r - r).is_zero()


def test_tensor_arithmetic_refuses_mixed_operands():
    other_field = AlgebraSpec(prime_field(5), nvars=1, unital=True)
    bivariate = AlgebraSpec(QQ, nvars=2, unital=True)
    r = unit_tensor(QQ.one())
    for other in (TensorElement(other_field, 2, {}), TensorElement(bivariate, 2, {})):
        error = MixedFieldSpecs if other.algebra.field != QQ else ValueError
        with pytest.raises(error):
            r + other
        with pytest.raises(error):
            r * other
    with pytest.raises(ValueError):
        r + r.embed((0, 1))
    with pytest.raises(MixedFieldSpecs):
        r.scale(prime_field(5).one())


def test_operator_from_unit_tensor():
    lam = QQ.from_int(2)
    op = operator_from_tensor(unit_tensor(lam), 6, -lam)
    for n in range(0, 7):
        mono = UNITAL.monomial(n)
        image = op.apply_monomial(mono)
        assert image.coeff(mono) == lam and len(image.terms()) == 1
    assert rb_check(op, -lam, 6).passed


def test_operator_from_zero_tensor():
    op = operator_from_tensor(TensorElement(UNITAL, 2, {}), 4, QQ.zero())
    assert all(op.apply_monomial(m).is_zero() for m in UNITAL.basis(4))


def test_left_multiplication_tensor_is_not_rota_baxter():
    r = TensorElement(UNITAL, 2, {(UNITAL.monomial(1), ONE): QQ.one()})
    op = operator_from_tensor(r, 6, QQ.zero())
    res = rb_residual(op, ONE, ONE, QQ.zero())
    # R(1)R(1) = x^2 while R(2x) = 2x^2
    import rbalg

    expected = rbalg.Polynomial(UNITAL, {UNITAL.monomial(2): -QQ.one()})
    assert res == expected
    assert not rb_check(op, QQ.zero(), 6).passed


def test_grid_search_weight_one():
    grid = [QQ.zero(), QQ.one(), -QQ.one()]
    solutions = aybe_grid_search(UNITAL, 2, grid, QQ.one())
    assert len(solutions) == 2
    assert TensorElement(UNITAL, 2, {}) in solutions
    assert unit_tensor(QQ.one()) in solutions


def test_grid_search_weight_zero_contains_zero():
    grid = [QQ.zero(), QQ.one()]
    solutions = aybe_grid_search(UNITAL, 1, grid, QQ.zero())
    assert TensorElement(UNITAL, 2, {}) in solutions


def test_grid_search_weight_two_degree_one():
    lam = QQ.from_int(2)
    grid = [QQ.zero(), QQ.one(), lam, -QQ.one()]
    solutions = aybe_grid_search(UNITAL, 1, grid, lam)
    assert sorted(len(s.terms) for s in solutions) == [0, 1]
    assert unit_tensor(lam) in solutions


def test_grid_search_agrees_with_reference_residual():
    # dual route: the precomputed quadratic evaluation must agree with
    # building every tensor and running the reference residual
    import itertools

    grid = [QQ.zero(), QQ.one(), -QQ.one()]
    found = {
        frozenset(s.terms.items()) for s in aybe_grid_search(UNITAL, 1, grid, QQ.one())
    }
    basis = [ONE, UNITAL.monomial(1)]
    cells = [(a, b) for a in basis for b in basis]
    expected = set()
    for assignment in itertools.product(grid, repeat=len(cells)):
        terms = {c: v for c, v in zip(cells, assignment) if not v.is_zero()}
        tensor = TensorElement(UNITAL, 2, terms)
        if aybe_residual(tensor, QQ.one()).is_zero():
            expected.add(frozenset(tensor.terms.items()))
    assert found == expected


def test_grid_search_budget_guards():
    """Degrees 4 and 5 (25 and 36 support cells) run to the end and find
    the zero tensor and weight times the unit tensor, both solutions by
    the benchmark's reference; more than MAX_CELLS cells are refused
    before any plan is compiled, and the node budget bounds the search."""
    ref = load_benchmark_reference()
    grid = [QQ.zero(), QQ.one()]
    for degree in (4, 5):
        solutions = aybe_grid_search(UNITAL, degree, grid, QQ.one())
        assert solutions == [TensorElement(UNITAL, 2, {}), unit_tensor(QQ.one())]
        for r in solutions:
            raw = {(a.exponents, b.exponents): c.value for (a, b), c in r.items()}
            assert ref.aybe_residual(raw, 1, ref.Field()) == {}
    for degree in (16, 31):  # 289 and 1024 cells
        with pytest.raises(SearchBudgetExceeded, match=f"^{(degree + 1) ** 2} support cells"):
            aybe_grid_search(UNITAL, degree, grid, QQ.one())
    with pytest.raises(SearchBudgetExceeded):
        aybe_grid_search(UNITAL, 2, grid, QQ.one(), budget=10)


def test_grid_search_rejects_a_negative_degree_and_foreign_values():
    # a negative degree used to search an empty support and return the zero tensor
    with pytest.raises(InvalidParams, match="^support degree must be >= 0, got -1$"):
        aybe_grid_search(UNITAL, -1, [QQ.zero(), QQ.one()], QQ.one())
    gf5 = FieldSpec.from_string("Fp:5")
    with pytest.raises(MixedFieldSpecs):
        aybe_grid_search(UNITAL, 1, [QQ.zero(), QQ.one()], gf5.zero())
    with pytest.raises(MixedFieldSpecs):
        aybe_grid_search(UNITAL, 1, [gf5.one()], QQ.one())


def test_grid_search_budget_counts_nodes():
    with pytest.raises(SearchBudgetExceeded, match="^AYBE grid budget of 1 nodes exhausted$"):
        aybe_grid_search(UNITAL, 1, [QQ.zero(), QQ.one()], QQ.one(), budget=1)
    # degree 2 on {0, 1} visits 34 nodes, not 2^9 candidates
    assert reference_aybe_nodes(UNITAL, 2, [QQ.zero(), QQ.one()], QQ.one()) == 34


# (field, nvars, degree, grid, weight): weight 0 and characteristics 2 and
# 3 prune differently from weight 1 over Q
NODE_CASES = [
    ("Q", 1, 2, "0,1,-1", 1),
    ("Q", 1, 3, "0,1,-1", 1),
    ("Q", 1, 2, "0,1,-1", 0),
    ("Fp:2", 1, 3, "1,0", 0),
    ("Fp:3", 1, 2, "0,1,2", 0),
    ("Fp:5", 2, 1, "0,1,-1", 0),
    ("Fp:7", 1, 2, "-1,0,2", 1),
]


@pytest.mark.parametrize("field_name,nvars,degree,grid_text,w", NODE_CASES)
def test_grid_search_nodes_match_reference(field_name, nvars, degree, grid_text, w):
    field = FieldSpec.from_string(field_name)
    algebra = AlgebraSpec(field, nvars=nvars, unital=True, truncation=None)
    grid = [field.parse(g) for g in grid_text.split(",")]
    weight = field.from_int(w)
    nodes = reference_aybe_nodes(algebra, degree, grid, weight)
    solutions = aybe_grid_search(algebra, degree, grid, weight, budget=nodes)
    assert all(aybe_residual(s, weight).is_zero() for s in solutions)
    with pytest.raises(SearchBudgetExceeded, match=f"budget of {nodes - 1} nodes"):
        aybe_grid_search(algebra, degree, grid, weight, budget=nodes - 1)


# grids of size 3 only where the reference evaluates 3^4 candidates; the
# 9-cell cases (degree 2, or k[x, y] at degree 1) use grids of size 2
CROSS_CHECK_CASES = [
    (field, nvars, degree, grid)
    for field in ("Q", "Fp:5", "Fp:7", "Fp:101")
    for nvars, degree, grids in (
        (1, 1, ("0,1", "-1,0,1", "1,0,2")),
        (1, 2, ("1,0", "0,-1")),
        (2, 1, ("1,0", "0,-1")),
    )
    for grid in grids
    if nvars == 1 or field in ("Q", "Fp:5")
]


@pytest.mark.parametrize("field_name,nvars,degree,grid_text", CROSS_CHECK_CASES)
def test_grid_search_matches_reference(field_name, nvars, degree, grid_text):
    field = FieldSpec.from_string(field_name)
    algebra = AlgebraSpec(field, nvars=nvars, unital=True, truncation=None)
    grid = [field.parse(g) for g in grid_text.split(",")]
    for w in (0, 1, -1):
        weight = field.from_int(w)
        expected = reference_aybe_grid_search(algebra, degree, grid, weight)
        assert aybe_grid_search(algebra, degree, grid, weight) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_search_matches_reference_on_drawn_grids(data):
    field = FieldSpec.from_string(data.draw(st.sampled_from(["Q", "Fp:5", "Fp:7"])))
    algebra = AlgebraSpec(field, nvars=1, unital=True, truncation=None)
    elements = field_elements(field)
    grid = data.draw(st.lists(elements, min_size=1, max_size=4))
    weight = data.draw(st.one_of(elements, st.sampled_from(grid)))
    expected = reference_aybe_grid_search(algebra, 1, grid, weight)
    assert aybe_grid_search(algebra, 1, grid, weight) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_search_on_integers_matches_the_fraction_reference(data):
    """Over Q the search runs on the grid and the weight times the lcm of
    their denominators; it returns the reference's list, computed on
    Fractions, in its order.  Values and weight carry different
    denominators and signs, and the weight lies off the grid; at the
    weight of the grid's last value c the search also finds c (1 x 1).
    Grids of at most 2 values for the 9-cell cases, as in
    CROSS_CHECK_CASES."""
    nvars, degree, size = data.draw(st.sampled_from([(1, 1, 4), (1, 2, 2), (2, 1, 2)]))
    algebra = AlgebraSpec(QQ, nvars=nvars, unital=True, truncation=None)
    values = rational_elements(max_abs=9, max_den=12)
    grid = data.draw(st.lists(values, min_size=1, max_size=size, unique=True))
    weight = data.draw(values.filter(lambda w: w not in grid))
    for w in (weight, grid[-1]):
        expected = reference_aybe_grid_search(algebra, degree, grid, w)
        assert aybe_grid_search(algebra, degree, grid, w) == expected


def test_grid_search_on_pairwise_coprime_denominators():
    """Grid {0, 1/7, -2/11, 3/13} scales by 1001 and, with the weight 5/17
    off the grid, by 17017; at the weight 3/13 the search also finds
    3/13 times the unit tensor."""
    grid = [QQ.zero(), QQ.element(1, 7), QQ.element(-2, 11), QQ.element(3, 13)]
    for weight, found in ((QQ.element(5, 17), []), (grid[3], [unit_tensor(grid[3])])):
        solutions = aybe_grid_search(UNITAL, 1, grid, weight)
        assert solutions == reference_aybe_grid_search(UNITAL, 1, grid, weight)
        assert solutions == [TensorElement(UNITAL, 2, {}), *found]


def test_grid_search_degree_three():
    grid = [QQ.zero(), QQ.one(), -QQ.one()]
    solutions = aybe_grid_search(UNITAL, 3, grid, QQ.one())  # 16 cells
    assert solutions == [TensorElement(UNITAL, 2, {}), unit_tensor(QQ.one())]
    assert all(aybe_residual(s, QQ.one()).is_zero() for s in solutions)


def test_grid_search_requires_a_unital_algebra():
    non_unital = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    for weight in (QQ.zero(), QQ.one()):
        with pytest.raises(NonUnitalAlgebra, match="require a unital algebra"):
            aybe_grid_search(non_unital, 1, [QQ.zero(), QQ.one()], weight)


def test_tensor_requires_unital_untruncated():
    non_unital = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    with pytest.raises(NonUnitalAlgebra):
        TensorElement(non_unital, 2, {})
    truncated = AlgebraSpec(QQ, nvars=1, unital=True, truncation=4)
    with pytest.raises(ValueError):
        TensorElement(truncated, 2, {})
    with pytest.raises(ValueError, match="untruncated"):
        aybe_grid_search(truncated, 1, [QQ.zero(), QQ.one()], QQ.one())


def test_tensor_keys_must_be_basis_monomials():
    # the key monomials go through AlgebraSpec.admits, like polynomial terms
    bivariate = Monomial((1, 2))
    with pytest.raises(ValueError, match="outside the algebra"):
        TensorElement(UNITAL, 2, {(bivariate, ONE): QQ.one()})
    with pytest.raises(ValueError, match="outside the algebra"):
        TensorElement(UNITAL, 3, {(ONE, ONE, bivariate): QQ.from_int(2)})
    with pytest.raises(ValueError, match="outside the algebra"):
        TensorElement(UNITAL, 2, {(ONE, Monomial(())): QQ.one()})


def test_tensor_json_round_trip():
    x = UNITAL.monomial(1)
    r = TensorElement(UNITAL, 2, {(x, x): QQ.element(2, 3), (ONE, x): -QQ.one()})
    assert TensorElement.from_json_dict(r.to_json_dict()) == r


def test_tensor_json_refuses_a_repeated_key():
    """A key given twice is refused, not overwritten by the second."""
    document = TensorElement(UNITAL, 2, {(ONE, ONE): QQ.one()}).to_json_dict()
    terms = document["terms"] + [{"exps": [[0], [0]], "coeff": "2"}]
    with pytest.raises(TypeError, match=r"^exps \[\[0\], \[0\]\] is repeated$"):
        TensorElement.from_json_dict(dict(document, terms=terms))


def test_multivariate_unit_solution():
    algebra = AlgebraSpec(QQ, nvars=2, unital=True, truncation=None)
    one = algebra.one_monomial()
    lam = QQ.one()
    r = TensorElement(algebra, 2, {(one, one): lam})
    assert aybe_residual(r, lam).is_zero()
    solutions = aybe_grid_search(algebra, 1, [QQ.zero(), QQ.one(), -QQ.one()], lam)
    assert solutions == [TensorElement(algebra, 2, {}), r]
