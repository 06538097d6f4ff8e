import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    DenseOperator,
    MonomialOperatorTable,
    MultivariateFamilyParams,
    MultivariateKind,
    Polynomial,
    WeightZeroFamilyParams,
    construct_integral,
    construct_multivariate,
    construct_splitting,
    construct_weight_one_univariate,
    construct_weight_zero,
    op_left_mul,
    operators_agree,
    prime_field,
    rb_check,
    rb_residual,
    split_by_variables,
    split_positive_degree,
)
from rbalg.errors import (
    CharacteristicObstruction,
    DegreeBoundExceeded,
    DenominatorVanishes,
    InvalidParams,
    NotASubalgebra,
)

from helpers import max_target_shift, random_weight_zero_params

NONUNITAL = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
UNITAL = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)


def test_weight_zero_inverse_degree_family():
    params = WeightZeroFamilyParams(1, {1: (1, QQ.one())})
    R = construct_weight_zero(params, NONUNITAL, 10)
    for n in range(1, 11):
        coeff, dst = R.entries[NONUNITAL.monomial(n)]
        assert dst == NONUNITAL.monomial(n)
        assert coeff == QQ.element(1, n)


def test_weight_zero_two_class_family_passes_at_16():
    params = WeightZeroFamilyParams(2, {1: (0, QQ.zero()), 2: (1, QQ.from_int(2))})
    R = construct_weight_zero(params, NONUNITAL, 16 + max_target_shift(params))
    # even sources land back on themselves with coefficient 1/(a+1)
    coeff, dst = R.entries[NONUNITAL.monomial(4)]
    assert dst == NONUNITAL.monomial(4) and coeff == QQ.element(1, 2)
    assert NONUNITAL.monomial(3) not in R.entries
    assert rb_check(R, QQ.zero(), 16).passed


def test_weight_zero_unital_shift_family():
    params = WeightZeroFamilyParams(1, {0: (2, QQ.one())})
    R = construct_weight_zero(params, UNITAL, 10)
    J = construct_integral(QQ.zero(), UNITAL, 12)
    shifted = op_left_mul(J, UNITAL.monomial(1), QQ.one())
    for n in range(0, 11):
        assert R.entries[UNITAL.monomial(n)] == shifted.entries[UNITAL.monomial(n)]


def test_weight_zero_validation():
    with pytest.raises(InvalidParams):
        WeightZeroFamilyParams(1, {1: (0, QQ.one())}).validate(False)
    with pytest.raises(InvalidParams):
        WeightZeroFamilyParams(1, {1: (2, QQ.zero())}).validate(False)
    with pytest.raises(InvalidParams):
        construct_weight_zero(
            WeightZeroFamilyParams(1, {0: (1, QQ.one())}), NONUNITAL, 4
        )


def test_weight_zero_characteristic_obstruction():
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
    params = WeightZeroFamilyParams(1, {1: (1, field.one())})
    with pytest.raises(CharacteristicObstruction):
        construct_weight_zero(params, algebra, 5)  # denominator 5 vanishes


def test_weight_zero_respects_class_structure():
    rng = random.Random(20240)
    for _ in range(10):
        params = random_weight_zero_params(rng, QQ)
        bound = 12 + max_target_shift(params)
        R = construct_weight_zero(params, NONUNITAL, bound)
        m = params.m
        for n in range(1, bound + 1):
            b = (n - 1) % m + 1
            a = (n - b) // m
            p, q = params.classes[b]
            hit = R.entries.get(NONUNITAL.monomial(n))
            if q.is_zero():
                assert hit is None  # killed classes are killed everywhere
            else:
                coeff, dst = hit
                assert dst.exponents[0] == m * (a + p)  # image exponents per class
        assert rb_check(R, QQ.zero(), 12).passed


def test_weight_one_alpha_one():
    R = construct_weight_one_univariate(QQ.one(), NONUNITAL, 8)
    for n in range(1, 9):
        coeff, dst = R.entries[NONUNITAL.monomial(n)]
        assert dst == NONUNITAL.monomial(n)
        assert coeff == QQ.element(1, 2**n - 1)


def test_weight_one_alpha_minus_one_is_minus_id():
    R = construct_weight_one_univariate(-QQ.one(), NONUNITAL, 8)
    for n in range(1, 9):
        coeff, dst = R.entries[NONUNITAL.monomial(n)]
        assert coeff == -QQ.one() and dst == NONUNITAL.monomial(n)


def test_weight_one_alpha_zero_is_zero():
    R = construct_weight_one_univariate(QQ.zero(), NONUNITAL, 8)
    assert R.is_zero()


def test_weight_one_denominator_vanishes():
    with pytest.raises(DenominatorVanishes) as err:
        construct_weight_one_univariate(QQ.element(-1, 2), NONUNITAL, 8)
    assert err.value.where == 2


def test_weight_one_requires_non_unital():
    with pytest.raises(InvalidParams):
        construct_weight_one_univariate(QQ.one(), UNITAL, 8)


def test_multivariate_weight_one():
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    params = MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, (QQ.one(), QQ.one()))
    R = construct_multivariate(params, algebra, 10)
    coeff, dst = R.entries[algebra.monomial(2, 3)]
    assert dst == algebra.monomial(2, 3)
    assert coeff == QQ.element(1, 2**5 - 1)
    assert rb_check(R, QQ.one(), 10).passed


def test_multivariate_minus_id():
    algebra = AlgebraSpec(QQ, nvars=3, unital=False, truncation=None)
    params = MultivariateFamilyParams(
        MultivariateKind.WEIGHT_ONE, (-QQ.one(), -QQ.one(), -QQ.one())
    )
    R = construct_multivariate(params, algebra, 6)
    assert all(coeff == -QQ.one() and dst == src for src, (coeff, dst) in R.entries.items())


def test_multivariate_weight_zero_denominator_vanishes():
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    params = MultivariateFamilyParams(MultivariateKind.WEIGHT_ZERO, (QQ.one(), -QQ.one()))
    with pytest.raises(DenominatorVanishes) as err:
        construct_multivariate(params, algebra, 6)
    assert err.value.where == (1, 1)


def test_multivariate_weight_zero_valid():
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    params = MultivariateFamilyParams(
        MultivariateKind.WEIGHT_ZERO, (QQ.one(), QQ.from_int(2))
    )
    R = construct_multivariate(params, algebra, 10)
    coeff, _ = R.entries[algebra.monomial(1, 1)]
    assert coeff == QQ.element(2, 3)  # 1/(1/1 + 1/2)
    assert rb_check(R, QQ.zero(), 10).passed


def test_multivariate_parameter_validation():
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    with pytest.raises(InvalidParams):
        construct_multivariate(
            MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, (QQ.one(), QQ.zero())),
            algebra,
            4,
        )
    with pytest.raises(InvalidParams):
        construct_multivariate(
            MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, (QQ.one(),)),
            algebra,
            4,
        )


def test_integration_operator():
    J0 = construct_integral(QQ.zero(), UNITAL, 13)
    assert isinstance(J0, MonomialOperatorTable)
    coeff, dst = J0.entries[UNITAL.monomial(0)]
    assert dst == UNITAL.monomial(1) and coeff == QQ.one()
    assert rb_check(J0, QQ.zero(), 12).passed

    J1 = construct_integral(QQ.one(), UNITAL, 13)
    image_of_one = J1.apply_monomial(UNITAL.monomial(0))
    expected = Polynomial(
        UNITAL, {UNITAL.monomial(1): QQ.one(), UNITAL.monomial(0): -QQ.one()}
    )
    assert image_of_one == expected
    assert rb_check(J1, QQ.zero(), 12).passed


def test_integration_characteristic_obstruction():
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=True, truncation=None)
    with pytest.raises(CharacteristicObstruction):
        construct_integral(field.zero(), algebra, 6)


def _unrefused_integral(a, algebra, bound):
    """The operator of ``construct_integral`` built without its refusals,
    dense: x^n -> (x^(n+1) - a^(n+1))/(n+1), truncated by the algebra."""
    field, one = algebra.field, algebra.monomial(0)
    images = {}
    for n in range(bound + 1):
        inv = field.from_int(n + 1).inverse()
        images[algebra.monomial(n)] = Polynomial(algebra, {algebra.monomial(n + 1): inv, one: -(a ** (n + 1)) * inv})
    return DenseOperator(algebra, field.zero(), bound, images)


def _holds_on_its_domain(R):
    """The identity on every pair of arguments within R's bound, pairs
    whose inner term leaves the domain aside."""
    basis = list(R.algebra.basis(R.degree_bound))
    for i, u in enumerate(basis):
        for v in basis[i:]:
            try:
                if not rb_residual(R, u, v, R.weight).is_zero():
                    return False
            except DegreeBoundExceeded:
                pass
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_integral_over_gf_p_is_refused_exactly_where_it_fails(p):
    """Over GF(p), truncated or not, at every bound up to p + 2: an accepted
    integral satisfies the identity on its domain and passes ``rb_check``
    at every window up to twice its bound that stays within the bound; a
    refused one has a vanishing 1/(n+1) or fails the identity on its
    domain."""
    field = prime_field(p)
    for truncation in (None, *range(1, p + 3)):
        algebra = AlgebraSpec(field, unital=True, truncation=truncation)
        for a in (field.zero(), field.one()) if truncation is None else (field.zero(),):
            for bound in range(min(truncation or p + 2, p + 2) + 1):
                try:
                    J = construct_integral(a, algebra, bound)
                except CharacteristicObstruction:
                    assert p <= bound + 1 or not _holds_on_its_domain(_unrefused_integral(a, algebra, bound))
                    continue
                assert operators_agree(J, _unrefused_integral(a, algebra, bound), bound)
                assert _holds_on_its_domain(J)
                for window in range(2 * bound + 1):
                    try:
                        assert rb_check(J, field.zero(), window).passed
                    except DegreeBoundExceeded:
                        assert window > bound


def test_integral_with_a_base_point_needs_an_untruncated_algebra():
    truncated = AlgebraSpec(QQ, unital=True, truncation=5)
    with pytest.raises(InvalidParams, match="base point a != 0"):
        construct_integral(QQ.one(), truncated, 5)
    assert isinstance(construct_integral(QQ.zero(), truncated, 5), MonomialOperatorTable)


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(13)])
def test_weight_one_families_share_one_formula(field):
    """The univariate weight-one table is the one-variable multivariate one,
    and both refuse the same alphas: where a denominator vanishes within
    the bound, naming the exponent as an int and as a tuple, and over
    GF(p) where the table fails the identity past it, naming the same
    pair."""
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=None)
    alphas = [field.from_int(k) for k in range(1, 7)] + [field.one() / field.from_int(k) for k in (-2, 3, 5)]
    for alpha in alphas:
        params = MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, (alpha,))
        try:
            table = construct_weight_one_univariate(alpha, algebra, 8)
        except DenominatorVanishes as err:
            with pytest.raises(DenominatorVanishes) as again:
                construct_multivariate(params, algebra, 8)
            n = err.where
            assert str(err) == f"(alpha+1)^{n} = alpha^{n} for alpha = {alpha}"
            assert again.value.where == (n,)
            continue
        except CharacteristicObstruction as err:
            with pytest.raises(CharacteristicObstruction) as again:
                construct_multivariate(params, algebra, 8)
            assert (str(again.value), again.value.index) == (str(err), err.index)
            continue
        assert table == construct_multivariate(params, algebra, 8)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_family_tables_over_gf_p_hold_in_their_whole_domain(p):
    """Over GF(p), on k0[x] untruncated or truncated above the bound and on
    k0[x, y] untruncated: every table the weight-zero, weight-one and
    multivariate constructors hand out passes ``rb_check`` at twice its
    bound, and every refusal names the first pair at which the table,
    built without the refusal, fails there."""
    from itertools import product
    from unittest import mock

    from rbalg import construct

    field = prime_field(p)
    builds = []
    for truncation, bound in product((None, 8), range(1, 6)):
        algebra = AlgebraSpec(field, 1, False, truncation)
        for a in range(1, p):
            builds.append((construct_weight_one_univariate, field.from_int(a), algebra, bound))
        for shift, q in product((1, 2), range(1, p)):
            builds.append((construct_weight_zero, WeightZeroFamilyParams(1, {1: (shift, field.from_int(q))}), algebra, bound))
    plane = AlgebraSpec(field, 2, False, None)
    for kind, a, b, bound in product(MultivariateKind, range(1, p), range(1, p), range(1, 4)):
        builds.append((construct_multivariate, MultivariateFamilyParams(kind, (field.from_int(a), field.from_int(b))), plane, bound))
    built = refused = 0
    for build, *args in builds:
        try:
            table = build(*args)
        except DenominatorVanishes:
            continue
        except CharacteristicObstruction as err:
            with mock.patch.object(construct, "_in_domain", lambda table: table):
                try:
                    table = build(*args)
                except CharacteristicObstruction:
                    continue  # a denominator vanishes within the bound
            v = rb_check(table, table.weight, 2 * table.degree_bound).violation
            assert err.index == (v.u.exponents, v.v.exponents)
            refused += 1
            continue
        assert rb_check(table, table.weight, 2 * table.degree_bound).passed
        built += 1
    assert built > 0 and refused > 0


@st.composite
def rational_family_builds(draw):
    """A family constructor with its arguments over Q: the univariate
    weight-zero and weight-one families and both multivariate ones in 1-3
    variables, on an algebra untruncated, truncated at the bound or above
    it.  Parameters are small rationals of both signs, -1/2 among them."""
    values = st.builds(QQ.element, st.integers(-3, 3).filter(bool), st.integers(1, 2))
    family = draw(st.sampled_from(["weight-zero", "weight-one", *MultivariateKind]))
    nvars = 1 if family in ("weight-zero", "weight-one") else draw(st.integers(1, 3))
    bound = draw(st.integers(1, (6, 3, 2)[nvars - 1]))
    truncation = draw(st.sampled_from([None, bound, bound + 1, 2 * bound]))
    algebra = AlgebraSpec(QQ, nvars, family == "weight-zero" and draw(st.booleans()), truncation)
    if family == "weight-zero":
        m = draw(st.integers(1, 3))
        classes = {}
        for b in range(0, m) if algebra.unital else range(1, m + 1):
            shift = draw(st.integers(0, 3))
            classes[b] = (shift, draw(values) if shift else QQ.zero())
        return construct_weight_zero, WeightZeroFamilyParams(m, classes), algebra, bound
    if family == "weight-one":
        return construct_weight_one_univariate, draw(values), algebra, bound
    alphas = tuple(draw(values) for _ in range(nvars))
    return construct_multivariate, MultivariateFamilyParams(family, alphas), algebra, bound


_PLANE = AlgebraSpec(QQ, 2, False, None)


@settings(max_examples=150, deadline=None)
@given(rational_family_builds())
@example((construct_weight_one_univariate, QQ.element(-1, 2), NONUNITAL, 1))
@example((construct_multivariate, MultivariateFamilyParams(MultivariateKind.WEIGHT_ZERO, (QQ.one(), -QQ.one())), _PLANE, 1))
@example((construct_multivariate, MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, (QQ.one(), QQ.from_int(-2))), _PLANE, 1))
def test_family_tables_over_q_hold_in_their_whole_domain(case):
    """Over Q every table a family constructor hands out passes ``rb_check``
    at twice its bound, and a table refused past its bound names the first
    pair at which the same table, built without the refusal, fails there."""
    from unittest import mock

    from rbalg import construct

    build, *args = case
    try:
        table = build(*args)
    except DenominatorVanishes as err:
        with mock.patch.object(construct, "_in_domain", lambda table: table):
            try:
                table = build(*args)
            except DenominatorVanishes:
                return  # a denominator vanishes within the bound
        v = rb_check(table, table.weight, 2 * table.degree_bound).violation
        assert err.where == (v.u.exponents, v.v.exponents)
        return
    assert rb_check(table, table.weight, 2 * table.degree_bound).passed


def test_splitting_operator_examples():
    two_vars = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    R = construct_splitting(split_by_variables([1]), QQ.one(), two_vars, 8)
    assert rb_check(R, QQ.one(), 8).passed
    assert two_vars.monomial(2, 0) not in R.entries
    coeff, dst = R.entries[two_vars.monomial(1, 1)]
    assert coeff == -QQ.one() and dst == two_vars.monomial(1, 1)

    unital_split = construct_splitting(split_positive_degree(), QQ.one(), UNITAL, 6)
    assert UNITAL.one_monomial() not in unital_split.entries
    coeff, dst = unital_split.entries[UNITAL.monomial(3)]
    assert coeff == -QQ.one()


def test_splitting_zero_operator_when_second_part_empty():
    algebra = NONUNITAL
    spec = split_by_variables([])
    R = construct_splitting(spec, QQ.from_int(3), algebra, 6)
    assert R.is_zero()


def test_splitting_closure_validation():
    from rbalg import SplittingSpec

    algebra = NONUNITAL
    # part 2 = {x} alone is not closed: x * x = x^2 leaves it
    spec = SplittingSpec(lambda m: m.exponents[0] == 1)
    with pytest.raises(NotASubalgebra) as err:
        construct_splitting(spec, QQ.one(), algebra, 4)
    assert err.value.part == 2


def test_a_negative_degree_bound_is_refused():
    with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
        construct_weight_one_univariate(QQ.one(), NONUNITAL, -1)
    with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
        MonomialOperatorTable(NONUNITAL, QQ.one(), -1, {})
    assert MonomialOperatorTable(UNITAL, QQ.one(), 0, {}).degree_bound == 0
