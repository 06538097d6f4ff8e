import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    DenseOperator,
    MonomialOperatorTable,
    Polynomial,
    WeightZeroFamilyParams,
    check_unit_constraint,
    construct_integral,
    construct_splitting,
    construct_weight_one_univariate,
    construct_weight_zero,
    op_kernel_image,
    prime_field,
    rb_check,
    rb_multi_residual,
    rb_power_check,
    rb_residual,
    split_by_variables,
    split_positive_degree,
)
from rbalg import rbcheck as rbcheck_mod
from rbalg.errors import (
    CharacteristicObstruction,
    DegreeBoundExceeded,
    DenominatorVanishes,
    InvalidParams,
    NonzeroWeight,
    NotASubalgebra,
    RBAlgebraError,
)
from rbalg.grading import QuotientFamily, quotient_rb_from_family
from rbalg.rbcheck import UnitImageKind, _raw_pair_test

from helpers import (
    field_elements,
    inverse_degree_table,
    random_weight_zero_params,
    reference_rb_check,
)

NONUNITAL = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
UNITAL = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)


def identity_table(algebra, bound, weight):
    return MonomialOperatorTable(
        algebra,
        weight,
        bound,
        {m: (algebra.field.one(), m) for m in algebra.basis(bound)},
    )


def test_residual_vanishes_for_inverse_degree_operator():
    R = inverse_degree_table(8)
    res = rb_residual(R, NONUNITAL.monomial(1), NONUNITAL.monomial(2), QQ.zero())
    assert res.is_zero()


def test_residual_of_identity_operator():
    R = identity_table(NONUNITAL, 8, QQ.zero())
    res = rb_residual(R, NONUNITAL.monomial(1), NONUNITAL.monomial(1), QQ.zero())
    assert res == Polynomial.monomial(NONUNITAL, NONUNITAL.monomial(2), -QQ.one())


def test_residual_truncated_weight_one_table():
    R = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5)
    algebra = R.algebra
    res = rb_residual(R, algebra.monomial(1), algebra.monomial(2), algebra.field.one())
    assert res.is_zero()


def test_check_weight_one_family_passes():
    algebra = NONUNITAL
    R = construct_weight_one_univariate(QQ.one(), algebra, 12)
    report = rb_check(R, QQ.one(), 12)
    assert report.passed
    assert report.checked_pairs > 0


def test_check_identity_fails_at_first_pair():
    R = identity_table(NONUNITAL, 4, QQ.zero())
    report = rb_check(R, QQ.zero(), 4)
    assert not report.passed
    assert report.violation.u == NONUNITAL.monomial(1)
    assert report.violation.v == NONUNITAL.monomial(1)


def test_check_splitting_on_two_variables():
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    R = construct_splitting(split_by_variables([1]), QQ.one(), algebra, 8)
    assert rb_check(R, QQ.one(), 8).passed


def test_power_identity():
    R = inverse_degree_table(16)
    assert rb_power_check(R, NONUNITAL.monomial(1), 3).is_zero()
    J = construct_integral(QQ.zero(), UNITAL, 16)
    assert rb_power_check(J, UNITAL.monomial(1), 2).is_zero()


def test_power_identity_fails_for_identity_operator():
    R = identity_table(NONUNITAL, 8, QQ.zero())
    res = rb_power_check(R, NONUNITAL.monomial(1), 2)
    assert res == Polynomial.monomial(NONUNITAL, NONUNITAL.monomial(2), -QQ.one())


def test_power_identity_requires_weight_zero():
    R = identity_table(NONUNITAL, 8, QQ.one())
    with pytest.raises(NonzeroWeight):
        rb_power_check(R, NONUNITAL.monomial(1), 2)


def test_multi_argument_identity_on_constructed_operators():
    rng = random.Random(7)
    params = WeightZeroFamilyParams(
        2, {1: (0, QQ.zero()), 2: (1, QQ.from_int(2))}
    )
    tables = [
        inverse_degree_table(40),
        construct_weight_zero(params, NONUNITAL, 40),
    ]
    for R in tables:
        for k in (2, 3, 4):
            for _ in range(5):
                monomials = [
                    NONUNITAL.monomial(rng.randint(1, 6)) for _ in range(k)
                ]
                assert rb_multi_residual(R, monomials).is_zero()


def test_multi_argument_identity_multivariate_weight_zero():
    from rbalg import MultivariateFamilyParams, MultivariateKind, construct_multivariate

    rng = random.Random(8)
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    params = MultivariateFamilyParams(
        MultivariateKind.WEIGHT_ZERO, (QQ.one(), QQ.from_int(3))
    )
    R = construct_multivariate(params, algebra, 24)
    for k in (2, 3, 4):
        for _ in range(5):
            monomials = [
                algebra.monomial(rng.randint(0, 2), rng.randint(0, 2))
                for _ in range(k)
            ]
            monomials = [m for m in monomials if m.degree() > 0]
            if len(monomials) >= 2:
                assert rb_multi_residual(R, monomials).is_zero()


def test_kernel_image_of_two_class_family():
    params = WeightZeroFamilyParams(2, {1: (0, QQ.zero()), 2: (1, QQ.from_int(2))})
    R = construct_weight_zero(params, NONUNITAL, 8)
    info = op_kernel_image(R, 8)
    kernel_monos = sorted(p.terms()[0][0].exponents[0] for p in info.kernel)
    assert kernel_monos == [1, 3, 5, 7]
    image_monos = sorted(m.exponents[0] for m, _ in info.image)
    assert image_monos == [2, 4, 6, 8]


def test_kernel_image_of_injective_and_zero_operators():
    R = inverse_degree_table(6)
    info = op_kernel_image(R)
    assert info.kernel == ()
    assert len(info.image) == 6
    zero = MonomialOperatorTable(NONUNITAL, QQ.zero(), 6, {})
    info = op_kernel_image(zero)
    assert len(info.kernel) == 6
    assert info.image == ()


def test_kernel_collision_differences():
    algebra = NONUNITAL
    entries = {
        algebra.monomial(1): (QQ.from_int(2), algebra.monomial(3)),
        algebra.monomial(2): (QQ.from_int(5), algebra.monomial(3)),
    }
    R = MonomialOperatorTable(algebra, QQ.zero(), 2, entries)
    info = op_kernel_image(R)
    assert len(info.kernel) == 1
    diff = info.kernel[0]
    assert R.apply(diff).is_zero()


def test_image_and_kernel_are_closed_for_constructed_operators():
    params = WeightZeroFamilyParams(2, {1: (0, QQ.zero()), 2: (1, QQ.from_int(2))})
    R = construct_weight_zero(params, NONUNITAL, 8)
    info = op_kernel_image(R, 8)
    image = {m for m, _ in info.image}
    kernel = {p.terms()[0][0] for p in info.kernel}
    for u in image:
        for v in image:
            if u.degree() + v.degree() <= 8:
                assert u * v in image
    # at weight 1 the kernel is a subalgebra too; check it on a splitting table
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=None)
    S = construct_splitting(split_by_variables([1]), QQ.one(), algebra, 8)
    s_info = op_kernel_image(S, 8)
    s_kernel = {p.terms()[0][0] for p in s_info.kernel}
    for u in s_kernel:
        for v in s_kernel:
            if u.degree() + v.degree() <= 8:
                assert u * v in s_kernel
    assert kernel  # the weight-zero family above really has a kernel


def test_unit_constraint_classification():
    algebra = UNITAL
    splitting_zero = MonomialOperatorTable(
        algebra,
        QQ.one(),
        4,
        {algebra.monomial(n): (-QQ.one(), algebra.monomial(n)) for n in range(1, 5)},
    )
    assert (
        check_unit_constraint(splitting_zero, QQ.one()).kind
        is UnitImageKind.SPLITTING_ZERO
    )
    minus_id = identity_table(algebra, 4, QQ.one())
    minus_id = MonomialOperatorTable(
        algebra,
        QQ.one(),
        4,
        {m: (-QQ.one(), m) for m in algebra.basis(4)},
    )
    assert (
        check_unit_constraint(minus_id, QQ.one()).kind
        is UnitImageKind.SPLITTING_MINUS_LAMBDA
    )


def test_unit_constraint_violation_witness():
    algebra = UNITAL
    entries = {algebra.one_monomial(): (QQ.one(), algebra.monomial(1))}
    R = MonomialOperatorTable(algebra, QQ.one(), 4, entries)
    result = check_unit_constraint(R, QQ.one())
    assert result.kind is UnitImageKind.VIOLATION
    expected = Polynomial(
        algebra, {algebra.monomial(2): QQ.one(), algebra.monomial(1): -QQ.one()}
    )
    assert result.witness == expected


def test_unit_constraint_bad_scalar():
    algebra = UNITAL
    entries = {algebra.one_monomial(): (QQ.from_int(3), algebra.one_monomial())}
    R = MonomialOperatorTable(algebra, QQ.one(), 4, entries)
    result = check_unit_constraint(R, QQ.one())
    assert result.kind is UnitImageKind.VIOLATION
    assert not result.witness.is_zero()


def test_check_over_prime_field_quotient():
    R = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 4, 7)
    assert rb_check(R, R.algebra.field.zero(), 4).passed


# -- the raw-value kernel against the reference ---------------------------------

SMALL_PRIMES = [prime_field(p) for p in (2, 3, 5, 7)]


def _nonzero(field):
    return field_elements(field).filter(lambda c: not c.is_zero())


@st.composite
def checked_tables(draw):
    """(table, weight, degree): random or family tables, maybe perturbed."""
    field = draw(st.just(QQ) | st.sampled_from(SMALL_PRIMES))
    nvars = draw(st.integers(1, 2))
    unital = draw(st.booleans())
    top = 5 if nvars == 1 else 3
    truncation = draw(st.one_of(st.none(), st.integers(1, top)))
    algebra = AlgebraSpec(field, nvars=nvars, unital=unital, truncation=truncation)
    bound = draw(st.integers(1, truncation or top))
    weight = draw(
        st.sampled_from([field.zero(), field.one()]) | _nonzero(field)
    )
    basis = list(algebra.basis(bound))
    kind = draw(st.sampled_from(["random", "minus_weight", "splitting", "family"]))
    entries = {}
    if kind == "random":
        # untruncated targets may leave the domain
        targets = list(algebra.basis(truncation or bound + 2))
        for src in basis:
            if draw(st.booleans()):
                entries[src] = (draw(_nonzero(field)), draw(st.sampled_from(targets)))
    elif kind == "minus_weight":
        entries = {m: (-weight, m) for m in basis}
    elif kind == "splitting":
        spec = split_by_variables([1]) if nvars == 2 else split_positive_degree()
        try:
            entries = dict(construct_splitting(spec, weight, algebra, bound).entries)
        except NotASubalgebra:
            pass
    elif nvars == 1 and weight.is_zero():
        params = random_weight_zero_params(
            random.Random(draw(st.integers(0, 999))), field, m_max=3, p_max=2
        )
        try:
            entries = dict(construct_weight_zero(params, algebra, bound).entries)
        except (CharacteristicObstruction, InvalidParams):
            pass
    elif nvars == 1 and not unital and not weight.is_zero():
        # weight * (the weight-one family) has weight `weight`
        try:
            family = construct_weight_one_univariate(draw(_nonzero(field)), algebra, bound)
        except DenominatorVanishes:
            family = None
        if family is not None:
            entries = {s: (weight * c, d) for s, (c, d) in family.entries.items()}
    if entries and draw(st.booleans()):
        src = draw(st.sampled_from(sorted(entries)))
        coeff, dst = entries[src]
        if draw(st.booleans()):
            entries[src] = (coeff * draw(_nonzero(field)), dst)  # wrong coefficient
        else:
            entries[src] = (coeff, draw(st.sampled_from(basis)))  # wrong target
    table = MonomialOperatorTable(algebra, weight, bound, entries)
    # now and then a window above the bound, which the reference rejects
    degree = bound + 1 if draw(st.integers(0, 4)) == 0 else draw(st.integers(1, bound))
    return table, weight, degree


def _outcome(check, R, weight, degree):
    try:
        report = check(R, weight, degree)
    except (RBAlgebraError, ValueError) as exc:  # errors must match the reference's
        return ("raised", type(exc), str(exc))
    v = report.violation
    return (report.checked_pairs, None if v is None else (v.u, v.v, v.residual))


def _dense_twin(R):
    images = {
        src: Polynomial.monomial(R.algebra, dst, coeff)
        for src, (coeff, dst) in R.entries.items()
    }
    return DenseOperator(R.algebra, R.weight, R.degree_bound, images)


@settings(max_examples=250, deadline=None)
@given(case=checked_tables())
def test_kernel_matches_reference(case):
    R, weight, degree = case
    got = _outcome(rb_check, R, weight, degree)
    assert got == _outcome(reference_rb_check, R, weight, degree)
    assert got == _outcome(rb_check, _dense_twin(R), weight, degree)


def test_kernel_selection():
    R = inverse_degree_table(6)
    assert _raw_pair_test(R, QQ.zero()) is not None
    assert _raw_pair_test(_dense_twin(R), QQ.zero()) is None
    assert _raw_pair_test(R, prime_field(5).zero()) is None


def test_passing_table_needs_no_reference_residual(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rb_residual(*args)

    monkeypatch.setattr(rbcheck_mod, "rb_residual", counted)
    gf101 = AlgebraSpec(prime_field(101), nvars=1, unital=False, truncation=8)
    bivariate = AlgebraSpec(QQ, nvars=2, unital=False, truncation=4)
    passing = [
        (construct_weight_one_univariate(QQ.one(), NONUNITAL, 10), 10),
        (construct_weight_one_univariate(gf101.field.from_int(3), gf101, 8), 8),
        (quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5), 3),
        (quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 4, 7), 4),
        (construct_splitting(split_by_variables([1]), QQ.from_int(3), bivariate, 4), 4),
    ]
    for R, degree in passing:
        assert rb_check(R, R.weight, degree).passed
    assert calls == []
    # a violation is reported by the reference, for that pair only
    report = rb_check(identity_table(NONUNITAL, 4, QQ.zero()), QQ.zero(), 4)
    assert [args[1:3] for args in calls] == [(report.violation.u, report.violation.v)]


def test_weight_from_another_field_keeps_the_generic_loop():
    R = inverse_degree_table(4)
    weight = prime_field(5).one()
    assert _outcome(rb_check, R, weight, 4) == _outcome(reference_rb_check, R, weight, 4)
    assert _outcome(rb_check, R, weight, 4)[0] == "raised"


def test_domain_errors_come_from_the_reference():
    # untruncated operators that raise degree leave the window at degree 6
    J = construct_integral(QQ.zero(), UNITAL, 6)
    shift_two = construct_weight_zero(
        WeightZeroFamilyParams(1, {1: (2, QQ.one())}), NONUNITAL, 6
    )
    for R in (J, shift_two):
        got = _outcome(rb_check, R, QQ.zero(), 6)
        assert got[:2] == ("raised", DegreeBoundExceeded)
        assert got == _outcome(reference_rb_check, R, QQ.zero(), 6)
