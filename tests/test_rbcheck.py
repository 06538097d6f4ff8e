import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    AutomorphismSpec,
    DenseOperator,
    MonomialOperatorTable,
    MultivariateFamilyParams,
    MultivariateKind,
    Polynomial,
    TensorElement,
    WeightZeroFamilyParams,
    check_unit_constraint,
    construct_integral,
    construct_multivariate,
    construct_splitting,
    construct_weight_one_univariate,
    construct_weight_zero,
    op_conjugate,
    op_kernel_image,
    operator_from_tensor,
    prime_field,
    rb_check,
    rb_multi_residual,
    rb_power_check,
    rb_residual,
    split_by_variables,
    split_positive_degree,
)
from rbalg import construct as construct_mod
from rbalg import rbcheck as rbcheck_mod
from rbalg.errors import (
    CharacteristicObstruction,
    DegreeBoundExceeded,
    DenominatorVanishes,
    InvalidParams,
    MixedFieldSpecs,
    NonzeroWeight,
    NotASubalgebra,
    RBAlgebraError,
)
from rbalg.grading import QuotientFamily, quotient_rb_from_family
from rbalg.poly import BasisIndex
from rbalg.rbcheck import CheckReport, UnitImageKind

from helpers import (
    field_elements,
    inverse_degree_table,
    load_benchmark_reference,
    quadratic_shift_conjugate,
    random_weight_zero_params,
    reference_rb_check,
    scaled_inverse_degree_conjugate,
)


REF = load_benchmark_reference()

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


def test_check_refuses_a_negative_degree():
    R = identity_table(NONUNITAL, 4, QQ.zero())
    for degree in (-1, -3):
        with pytest.raises(ValueError, match=f"check degree must be >= 0, got {degree}"):
            rb_check(R, QQ.zero(), degree)
    assert rb_check(R, QQ.zero(), 0) == CheckReport(0, None)


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


def _unchecked(construct, *args):
    """A family table as the constructor builds it, without its refusal of
    a table that fails the identity past its bound: such tables are what
    the check must catch."""
    with mock.patch.object(construct_mod, "_in_domain", lambda table: table):
        return construct(*args)


def _table_entries(draw, algebra, bound, weight):
    """Entries of a random table, of -weight * id, or of a family table of
    weight ``weight`` (empty where the family does not exist)."""
    field, nvars, truncation = algebra.field, algebra.nvars, algebra.truncation
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
            entries = dict(_unchecked(construct_weight_zero, params, algebra, bound).entries)
        except (CharacteristicObstruction, InvalidParams):
            pass
    elif nvars == 1 and not algebra.unital and not weight.is_zero():
        # weight * (the weight-one family) has weight `weight`
        try:
            family = _unchecked(construct_weight_one_univariate, draw(_nonzero(field)), algebra, bound)
        except DenominatorVanishes:
            family = None
        if family is not None:
            entries = {s: (weight * c, d) for s, (c, d) in family.entries.items()}
    elif nvars == 2 and not algebra.unital:
        # weight * (the weight-one family), or the weight-zero family
        family_kind = MultivariateKind.WEIGHT_ZERO if weight.is_zero() else MultivariateKind.WEIGHT_ONE
        params = MultivariateFamilyParams(family_kind, (draw(_nonzero(field)), draw(_nonzero(field))))
        try:
            family = _unchecked(construct_multivariate, params, algebra, bound)
        except (DenominatorVanishes, InvalidParams):
            family = None
        if family is not None:
            scale = field.one() if weight.is_zero() else weight
            entries = {s: (scale * c, d) for s, (c, d) in family.entries.items()}
    return entries


def _window(draw, bound):
    """A degree window, now and then one past the bound, up to twice it."""
    return draw(st.integers(bound + 1, 2 * bound)) if draw(st.integers(0, 4)) == 0 else draw(st.integers(1, bound))


@st.composite
def checked_tables(draw, fields=st.just(QQ) | st.sampled_from(SMALL_PRIMES)):
    """(table, weight, degree): random or family tables, maybe perturbed."""
    field = draw(fields)
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
    entries = _table_entries(draw, algebra, bound, weight)
    if entries and draw(st.booleans()):
        src = draw(st.sampled_from(sorted(entries)))
        coeff, dst = entries[src]
        if draw(st.booleans()):
            entries[src] = (coeff * draw(_nonzero(field)), dst)  # wrong coefficient
        else:
            entries[src] = (coeff, draw(st.sampled_from(basis)))  # wrong target
    return MonomialOperatorTable(algebra, weight, bound, entries), weight, _window(draw, bound)


def _outcome(check, R, weight, degree):
    try:
        report = check(R, weight, degree)
    except (RBAlgebraError, ValueError) as exc:  # errors must match the reference's
        return ("raised", type(exc), str(exc))
    v = report.violation
    return (report.checked_pairs, report.skipped_pairs, None if v is None else (v.u, v.v, v.residual))


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


# -- truncated tables ----------------------------------------------------------------


@st.composite
def truncated_tables(draw, fields=st.just(QQ) | st.sampled_from(SMALL_PRIMES)):
    """(table, weight, degree) on a truncated algebra: random targets,
    diagonal ones (t_u v = u v = u t_v), shifted ones (t_u v = u t_v) or a
    family table; a bound at or below the truncation; a degree below, at or
    above it."""
    field = draw(fields)
    nvars = draw(st.integers(1, 2))
    truncation = draw(st.integers(1, 6 if nvars == 1 else 4))
    algebra = AlgebraSpec(field, nvars=nvars, unital=draw(st.booleans()), truncation=truncation)
    bound = draw(st.integers(0, truncation))
    weight = draw(st.sampled_from([field.zero(), field.one()]) | _nonzero(field))
    sources = [m for m in algebra.basis(bound) if draw(st.booleans())]
    targets = list(algebra.basis(truncation))
    kind = draw(st.sampled_from(["random", "diagonal", "shift", "family"]))
    if kind == "random":
        entries = {s: (draw(_nonzero(field)), draw(st.sampled_from(targets))) for s in sources}
    elif kind == "diagonal":
        entries = {s: (draw(_nonzero(field)), s) for s in sources}
    elif kind == "shift":
        step = draw(st.sampled_from(targets))
        entries = {s: (draw(_nonzero(field)), s * step) for s in sources if algebra.admits(s * step)}
    else:
        entries = _table_entries(draw, algebra, bound, weight) if bound else {}
    degree = draw(st.integers(0, truncation + 2))
    return MonomialOperatorTable(algebra, weight, bound, entries), weight, degree


# -- dense operators against the reference -------------------------------------

DENSE_FIELDS = [QQ] + [prime_field(p) for p in (2, 3, 5, 7, 101)]


def _random_image(draw, algebra, targets):
    field = algebra.field
    terms = draw(st.lists(st.tuples(st.sampled_from(targets), _nonzero(field)), min_size=1, max_size=3))
    return Polynomial(algebra, dict(terms))


@st.composite
def checked_dense_operators(draw, fields=st.sampled_from(DENSE_FIELDS)):
    """(dense operator, weight, degree) with images of several terms: conjugates
    of tables by x_i -> x_i + c x_i^2 and by x -> x - 1, operators of tensors,
    and random images, maybe with one coefficient perturbed."""
    field = draw(fields)
    weight = draw(st.sampled_from([field.zero(), field.one()]) | _nonzero(field))
    kind = draw(st.sampled_from(["quadratic_shift", "shift", "tensor", "random"]))
    if kind == "quadratic_shift":
        nvars = draw(st.integers(1, 2))
        N = draw(st.integers(1, 5 if nvars == 1 else 3))
        algebra = AlgebraSpec(field, nvars=nvars, unital=False, truncation=N)
        table = MonomialOperatorTable(algebra, weight, N, _table_entries(draw, algebra, N, weight))
        R = quadratic_shift_conjugate(table, draw(_nonzero(field)))
    elif kind == "shift":
        truncation = draw(st.one_of(st.none(), st.integers(1, 5)))
        algebra = AlgebraSpec(field, nvars=1, unital=True, truncation=truncation)
        bound = draw(st.integers(1, truncation or 5))
        if weight.is_zero() and draw(st.booleans()):
            try:
                table = construct_integral(field.zero(), algebra, bound)
            except CharacteristicObstruction:
                table = MonomialOperatorTable(algebra, weight, bound, {})
        else:
            entries = _table_entries(draw, algebra, bound, weight)
            table = MonomialOperatorTable(algebra, weight, bound, entries)
        R = op_conjugate(table, AutomorphismSpec.shift())
    elif kind == "tensor":
        nvars = draw(st.integers(1, 2))
        algebra = AlgebraSpec(field, nvars=nvars, unital=True, truncation=None)
        one = algebra.one_monomial()
        if draw(st.booleans()):
            # solves the equation at weight -w, so u -> -w u has weight w
            terms = {(one, one): -weight}
        else:
            small = list(algebra.basis(1))
            keys = st.tuples(st.sampled_from(small), st.sampled_from(small))
            terms = dict(draw(st.lists(st.tuples(keys, _nonzero(field)), min_size=1, max_size=3)))
        R = operator_from_tensor(TensorElement(algebra, 2, terms), draw(st.integers(1, 4 - nvars)), weight)
    else:
        nvars = draw(st.integers(1, 2))
        top = 4 if nvars == 1 else 3
        truncation = draw(st.one_of(st.none(), st.integers(1, top)))
        algebra = AlgebraSpec(field, nvars=nvars, unital=draw(st.booleans()), truncation=truncation)
        bound = draw(st.integers(1, truncation or top))
        targets = list(algebra.basis(truncation or bound + 2))
        sources = [src for src in algebra.basis(bound) if draw(st.booleans())]
        images = {src: _random_image(draw, algebra, targets) for src in sources}
        R = DenseOperator(algebra, weight, bound, images)
    if R.images and draw(st.booleans()):
        algebra = R.algebra
        src = draw(st.sampled_from(sorted(R.images)))
        extra = _random_image(draw, algebra, list(algebra.basis(algebra.truncation or R.degree_bound + 1)))
        R = DenseOperator(algebra, R.weight, R.degree_bound, {**R.images, src: R.images[src] + extra})
    return R, weight, _window(draw, R.degree_bound)


@settings(max_examples=300, deadline=None)
@given(case=checked_dense_operators())
def test_dense_kernel_matches_reference(case):
    R, weight, degree = case
    assert _outcome(rb_check, R, weight, degree) == _outcome(reference_rb_check, R, weight, degree)


# -- the one kernel, pair by pair ----------------------------------------------------


def _verdicts(R, weight, degree):
    """The kernel's (u, v, verdict) for the pairs of rb_check's window: the
    window read in full with the arguments rb_check gives it."""
    window, calls = rbcheck_mod._pair_verdicts, []

    def spy(*args):
        calls.append(args)
        return window(*args)

    with mock.patch.object(rbcheck_mod, "_pair_verdicts", spy):
        rb_check(R, weight, degree)
    (args,) = calls
    return list(window(*args))


def _window_pairs(R, degree):
    """The pairs of rb_check's window in order: u <= v with both arguments
    within the bound, and on an untruncated algebra deg u + deg v <= degree."""
    algebra = R.algebra
    truncated = algebra.truncation is not None
    basis = list(algebra.basis(min(degree, R.degree_bound)))
    return [(u, v) for i, u in enumerate(basis) for v in basis[i:] if truncated or u.degree() + v.degree() <= degree]


@settings(max_examples=400, deadline=None)
@given(case=checked_tables() | truncated_tables() | checked_dense_operators())
def test_one_kernel_matches_rb_residual_pair_by_pair(case):
    """Tables and dense operators, truncated or not, over Q and GF(p): the
    kernel visits the window's pairs in order and decides each as
    ``rb_residual`` does, None where the residual leaves the domain, else
    whether it vanishes.  ``rb_check`` then reports what
    ``reference_rb_check`` reports."""
    R, weight, degree = case
    got = _verdicts(R, weight, degree)
    assert [(u, v) for u, v, _ in got] == _window_pairs(R, degree)
    for u, v, verdict in got:
        try:
            residual = rb_residual(R, u, v, weight)
        except DegreeBoundExceeded:
            assert verdict is None
        else:
            assert verdict is residual.is_zero()
    assert _outcome(rb_check, R, weight, degree) == _outcome(reference_rb_check, R, weight, degree)


@settings(max_examples=200, deadline=None)
@given(case=checked_tables() | truncated_tables() | checked_dense_operators(), data=st.data())
def test_windows_past_the_bound_match_the_reference(case, data):
    """At degrees bound + 1 .. 2 bound, unital or not, tables and dense
    operators: ``rb_check`` checks the pairs of arguments within the bound,
    as ``reference_rb_check`` does, and raises nothing; on a truncated
    algebra it reports what the bound reports."""
    R, weight, _ = case
    bound = R.degree_bound
    degree = data.draw(st.integers(bound + 1, max(2 * bound, bound + 1)))
    got = _outcome(rb_check, R, weight, degree)
    assert got[0] != "raised"
    assert got == _outcome(reference_rb_check, R, weight, degree)
    if R.algebra.truncation is not None:
        assert got == _outcome(rb_check, R, weight, bound)


def test_untruncated_window_reaches_a_violation_past_the_bound():
    """The weight-zero family over GF(7) with m = 1, p = 2, q = 1 on
    untruncated k0[x], R(x^n) = x^(n+1)/(n+1), fails at (x^2, x^3): both
    arguments lie within the bound 3, the inner term 7/12 x^6 vanishes
    mod 7 and the left side 3 x^7 does not.  Only a window of degree 5 or
    more holds the pair, and the constructor, which checks at twice the
    bound, refuses the table naming it."""
    F7 = prime_field(7)
    algebra = AlgebraSpec(F7, nvars=1, unital=False, truncation=None)
    params = WeightZeroFamilyParams(1, {1: (2, F7.one())})
    with pytest.raises(CharacteristicObstruction, match=r"the pair \(x1\^2, x1\^3\) fails the identity mod 7"):
        construct_weight_zero(params, algebra, 3)
    R = _unchecked(construct_weight_zero, params, algebra, 3)
    for degree in (3, 4):
        assert rb_check(R, F7.zero(), degree).passed
    x = algebra.monomial
    for degree in (5, 6):
        report = rb_check(R, F7.zero(), degree)
        assert report == reference_rb_check(R, F7.zero(), degree)
        assert (report.checked_pairs, report.skipped_pairs) == (2, 3)
        assert (report.violation.u, report.violation.v) == (x(2), x(3))
        assert report.violation.residual == Polynomial.monomial(algebra, x(7), F7.from_int(3))


def test_one_kernel_decides_every_operator():
    """Tables and dense operators, truncated or not, all go through the one
    kernel: on the algebra's ``basis_index`` when it is truncated, else on
    a growing index."""
    kernel, indices = rbcheck_mod._index_verdicts, []

    def counted(index, *args):
        indices.append(index)
        return kernel(index, *args)

    truncated = AlgebraSpec(QQ, nvars=1, unital=False, truncation=6)
    table = construct_weight_one_univariate(QQ.one(), truncated, 6)
    untruncated = construct_weight_one_univariate(QQ.one(), NONUNITAL, 6)
    with mock.patch.object(rbcheck_mod, "_index_verdicts", counted):
        for R in (table, _dense_twin(table), untruncated, _dense_twin(untruncated)):
            assert rb_check(R, QQ.one(), 6) == reference_rb_check(R, QQ.one(), 6)
    assert len(indices) == 4
    assert indices[0] is indices[1] is truncated.basis_index
    assert [index.mul.grow for index in indices] == [False, False, True, True]


def test_window_edges():
    """Where the window ends: untruncated k0[x] at degree bound + 1 has no
    pair with x^(bound+1), as its arguments lie within the bound;
    untruncated k[x] there checks the pairs within the bound whose degrees
    sum to at most bound + 1, and from 2 bound on the window holds every
    pair within the bound; a window of no pair checks nothing."""
    R = construct_weight_one_univariate(QQ.one(), NONUNITAL, 4)
    assert rb_check(R, QQ.one(), 5) == CheckReport(4, None, 2) == reference_rb_check(R, QQ.one(), 5)
    J = construct_integral(QQ.zero(), UNITAL, 4)
    x = UNITAL.monomial
    got = _verdicts(J, QQ.zero(), 5)
    assert [(u, v) for u, v, _ in got] == [(x(a), x(b)) for a in range(3) for b in range(a, min(4, 5 - a) + 1)]
    assert [verdict for _, _, verdict in got] == [True] * 4 + [None] + [True] * 2 + [None] * 4
    assert rb_check(J, QQ.zero(), 5) == CheckReport(6, None, 5) == reference_rb_check(J, QQ.zero(), 5)
    assert rb_check(J, QQ.zero(), 8) == rb_check(J, QQ.zero(), 100) == CheckReport(6, None, 9)
    truncated = AlgebraSpec(QQ, nvars=2, unital=False, truncation=3)
    empty = [(R, 0), (R, 1), (_dense_twin(R), 1), (identity_table(truncated, 3, QQ.one()), 0)]
    for op, degree in empty:
        assert _verdicts(op, QQ.one(), degree) == []
        assert rb_check(op, QQ.one(), degree) == CheckReport(0, None)


def test_index_kernel_reads_the_product_rows_it_needs():
    """A small window on a large truncation builds the product rows of the
    window and its targets, not the whole table."""
    big = AlgebraSpec(QQ, nvars=1, unital=False, truncation=1000)
    R = construct_weight_one_univariate(QQ.one(), big, 4)
    assert rb_check(R, QQ.one(), 4) == CheckReport(4, None, 6)  # products above x^4 leave the domain
    assert sorted(big.basis_index.mul) == [0, 1, 2, 3]


def test_untruncated_check_reads_the_product_entries_it_needs():
    """On an untruncated algebra the index starts with the basis up to the
    highest inner term R can apply to, and grows by the monomials the
    window reaches beyond it; its rows fill only the entries the window
    reads: for a diagonal table, the one product u v of each pair.  A
    target far above the window adds itself and its products, not the
    basis below them."""
    built, of = [], BasisIndex.of

    def spy(*args, **kwargs):
        built.append(of(*args, **kwargs))
        return built[-1]

    algebra = AlgebraSpec(QQ, nvars=3, unital=False)
    params = MultivariateFamilyParams(MultivariateKind.WEIGHT_ONE, tuple(map(QQ.from_int, (1, 2, 3))))
    R = construct_multivariate(params, algebra, 6)
    J = construct_integral(QQ.zero(), UNITAL, 6)
    x1, far = algebra.monomial(1, 0, 0), algebra.monomial(45, 0, 0)
    jump = MonomialOperatorTable(algebra, QQ.zero(), 1, {x1: (QQ.one(), far)})
    with mock.patch.object(BasisIndex, "of", spy):
        report = rb_check(R, QQ.one(), 6)
        assert rb_check(J, QQ.zero(), 3).passed
        assert rb_check(jump, QQ.zero(), 2) == reference_rb_check(jump, QQ.zero(), 2)
    index, shifted, jumped = built
    assert index.monomials == tuple(algebra.basis(6)) and len(index.mul.exponents) == len(index.monomials)
    filled = sum(map(len, index.mul.values()))
    assert report.passed and filled == report.checked_pairs == 388
    assert filled * 4 < len(index.mul) * len(index.monomials)
    # inner terms of the integral's window reach x^4; its images and products x^5
    assert shifted.monomials == tuple(UNITAL.basis(4))
    assert shifted.mul.exponents == [m.exponents for m in UNITAL.basis(5)]
    assert jumped.monomials == tuple(algebra.basis(1))  # R's domain, which holds the window's arguments
    reached = {(45, 0, 0), (45, 0, 1), (45, 1, 0), (46, 0, 0), (90, 0, 0)}  # x1^45, its window products, its square
    assert set(jumped.mul.exponents[len(jumped.monomials) :]) == reached


def test_q_coefficients_are_checked_on_integers():
    """Over Q the kernels read ints: the coefficients and the weight times
    the lcm of their denominators."""
    from fractions import Fraction

    w, coefs = rbcheck_mod._on_integers(Fraction(1, 2), [Fraction(1, 3), 0, Fraction(-5, 4)])
    assert (w, coefs) == (6, [4, 0, -15])
    assert all(type(c) is int for c in (w, *coefs))


def _fraction_form(check, *args):
    """check run with ``_on_integers`` a no-op, so the kernel reads the
    Fractions of the operator and the weight as they are."""
    with mock.patch.object(rbcheck_mod, "_on_integers", lambda w, coefs: (w, coefs)):
        return check(*args)


@settings(max_examples=300, deadline=None)
@given(
    case=checked_tables(fields=st.just(QQ))
    | truncated_tables(fields=st.just(QQ))
    | checked_dense_operators(fields=st.just(QQ))
)
def test_integer_check_matches_the_fraction_form(case):
    """Over Q, truncated or not, tables and dense operators: the kernel on
    ints gives the verdict of every pair, and rb_check the violation,
    checked_pairs and skipped_pairs, that it gives on Fractions."""
    R, weight, degree = case
    assert _verdicts(R, weight, degree) == _fraction_form(_verdicts, R, weight, degree)
    assert _outcome(rb_check, R, weight, degree) == _fraction_form(_outcome, rb_check, R, weight, degree)


def _raw_operator(R):
    if isinstance(R, MonomialOperatorTable):
        return {s.exponents: {d.exponents: c.value} for s, (c, d) in R.entries.items()}
    return {s.exponents: {m.exponents: c.value for m, c in f.terms()} for s, f in R.images.items()}


@settings(max_examples=200, deadline=None)
@given(case=checked_tables() | checked_dense_operators(), data=st.data())
def test_residual_matches_the_benchmark_reference(case, data):
    """``rb_residual`` against ``perfbench/reference.py``, which computes on
    raw values and imports nothing from rbalg."""
    R, weight, _ = case
    algebra = R.algebra
    alg = REF.Algebra(algebra.nvars, algebra.unital, algebra.truncation)
    F = REF.Field(algebra.field.p)
    raw = _raw_operator(R)
    basis = list(algebra.basis(R.degree_bound + 1))
    for u, v in data.draw(st.lists(st.tuples(st.sampled_from(basis), st.sampled_from(basis)), max_size=6)):
        try:
            got = {m.exponents: c.value for m, c in rb_residual(R, u, v, weight).terms()}
        except DegreeBoundExceeded:
            got = "outside"
        try:
            want = REF.rb_residual(raw, R.degree_bound, u.exponents, v.exponents, weight.value, alg, F)
        except REF.OutsideDomain:
            want = "outside"
        assert got == want


def test_passing_table_needs_no_reference_residual(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rb_residual(*args)

    monkeypatch.setattr(rbcheck_mod, "rb_residual", counted)
    gf101 = AlgebraSpec(prime_field(101), nvars=1, unital=False, truncation=8)
    gf53 = AlgebraSpec(prime_field(53), nvars=1, unital=False, truncation=8)
    gf53_family = construct_weight_one_univariate(gf53.field.from_int(3), gf53, 8)
    bivariate = AlgebraSpec(QQ, nvars=2, unital=False, truncation=4)
    unit = TensorElement(UNITAL, 2, {(UNITAL.one_monomial(),) * 2: -QQ.one()})
    passing = [
        (construct_weight_one_univariate(QQ.one(), NONUNITAL, 10), 10),
        (construct_weight_one_univariate(gf101.field.from_int(3), gf101, 8), 8),
        (quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5), 3),
        (quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 4, 7), 4),
        (construct_splitting(split_by_variables([1]), QQ.from_int(3), bivariate, 4), 4),
        # dense operators
        (scaled_inverse_degree_conjugate(8), 8),
        (quadratic_shift_conjugate(gf53_family, gf53.field.from_int(5)), 8),
        (op_conjugate(construct_integral(QQ.zero(), UNITAL, 8), AutomorphismSpec.shift()), 7),
        (construct_integral(QQ.from_int(2), UNITAL, 8), 7),
        (operator_from_tensor(unit, 6, QQ.one()), 6),
    ]
    for R, degree in passing:
        assert rb_check(R, R.weight, degree).passed
    assert calls == []
    # a violation is reported by the reference, for that pair only
    report = rb_check(identity_table(NONUNITAL, 4, QQ.zero()), QQ.zero(), 4)
    assert [args[1:3] for args in calls] == [(report.violation.u, report.violation.v)]


def test_weight_from_another_field_raises():
    """A GF(5) weight on a Q operator raises, zero or not: a foreign zero
    used to be checked as weight zero and report a false violation."""
    R = construct_weight_one_univariate(QQ.one(), NONUNITAL, 6)
    for op in (R, _dense_twin(R)):
        for weight in (prime_field(5).zero(), prime_field(5).one()):
            with pytest.raises(MixedFieldSpecs):
                rb_check(op, weight, 6)
            assert _outcome(reference_rb_check, op, weight, 6)[:2] == ("raised", MixedFieldSpecs)


def test_domain_errors_come_from_the_reference():
    """Pairs whose residual would apply R above its bound are skipped, as
    ``rb_residual`` and the benchmark's domain-only verdict decide."""
    # untruncated operators that raise degree leave the domain at degree 6
    F = REF.Field(None)
    unital, plain = REF.Algebra(1, True, None), REF.Algebra(1, False, None)
    shift_two = construct_weight_zero(WeightZeroFamilyParams(1, {1: (2, QQ.one())}), NONUNITAL, 6)
    cases = [
        (construct_integral(QQ.from_int(a), UNITAL, 6), unital, 12, 4) for a in (0, 1)
    ] + [(shift_two, plain, 6, 3)]
    for R, alg, checked, skipped in cases:
        report = rb_check(R, QQ.zero(), 6)
        assert (report.checked_pairs, report.skipped_pairs, report.passed) == (checked, skipped, True)
        assert report.to_json_dict() == {"status": "pass", "checked_pairs": checked, "skipped_pairs": skipped}
        assert _outcome(rb_check, R, QQ.zero(), 6) == _outcome(reference_rb_check, R, QQ.zero(), 6)
        assert REF.rb_verdict(_raw_operator(R), 6, F.norm(0), alg, F, 6, domain_only=True) == (checked, None)
    # a window past the bound checks the pairs of arguments within it
    J = construct_integral(QQ.zero(), UNITAL, 6)
    assert rb_check(J, QQ.zero(), 7) == CheckReport(12, None, 7) == reference_rb_check(J, QQ.zero(), 7)
