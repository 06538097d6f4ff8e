from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    DenseOperator,
    MonomialOperatorTable,
    PartialProductKind,
    Polynomial,
    ProductStatus,
    QuotientFamily,
    WeightZeroFamilyParams,
    construct_weight_one_univariate,
    construct_weight_zero,
    grading_decompose,
    partial_product,
    prime_field,
    quotient_rb_from_family,
    rb_check,
    semigroup_iso_check,
)
from rbalg.errors import (
    CharacteristicObstruction,
    MixedFieldSpecs,
    NonSplitSpectrum,
    ZeroArgument,
)

from rbalg.grading import _partial_products

from helpers import reference_partial_product, scaled_inverse_degree_conjugate

GF5 = prime_field(5)


def test_partial_products_over_gf5():
    circ = PartialProductKind.CIRC
    star = PartialProductKind.STAR
    assert partial_product(circ, GF5.from_int(1), GF5.from_int(2)) == GF5.from_int(3)
    assert partial_product(circ, GF5.from_int(1), GF5.from_int(3)) is None
    assert partial_product(circ, GF5.from_int(2), GF5.from_int(3)) == GF5.from_int(1)
    assert partial_product(star, GF5.from_int(1), GF5.from_int(3)) == GF5.from_int(2)
    # 3 and 2 are 1/2 and 1/3 mod 5; their sum vanishes
    assert partial_product(star, GF5.from_int(3), GF5.from_int(2)) is None


@st.composite
def partial_product_args(draw):
    """A law and two nonzero values: over Q small fractions, so that
    lam + mu and lam + mu + 1 vanish often; over GF(p) any residues."""
    field = draw(st.sampled_from([QQ] + [prime_field(p) for p in (2, 3, 5, 7, 10007)]))
    if field.p is None:
        values = st.builds(QQ.element, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    else:
        values = st.integers(1, field.p - 1).map(field.from_int)
    return draw(st.sampled_from(PartialProductKind)), draw(values), draw(values)


@settings(max_examples=300, deadline=None)
@given(partial_product_args())
@example((PartialProductKind.CIRC, QQ.element(-1, 2), QQ.element(-1, 2)))
@example((PartialProductKind.STAR, QQ.element(2, 3), QQ.element(-2, 3)))
@example((PartialProductKind.CIRC, GF5.from_int(1), GF5.from_int(3)))
@example((PartialProductKind.STAR, GF5.from_int(3), GF5.from_int(2)))
def test_raw_partial_product_matches_the_field_form(case):
    """A row of one: the same value as lam*mu / (lam + mu + 1) or
    lam*mu / (lam + mu) on FieldElements, as a residue mod p or as the
    reduced pair (num, den > 0) over Q, and None exactly where that
    denominator vanishes."""
    kind, lam, mu = case
    want = reference_partial_product(kind, lam, mu)
    (got,) = _partial_products(kind, lam.value, [mu.value], lam.spec.p)
    if want is None:
        assert got is None and partial_product(kind, lam, mu) is None
        return
    if lam.spec.p is None:
        assert got == (want.value.numerator, want.value.denominator)
    else:
        assert type(got) is int and got == want.value
    assert partial_product(kind, lam, mu) == want


ROW_FIELDS = [QQ, *(prime_field(p) for p in (2, 3, 5, 7, 10007, 65521, 2**31 - 1))]
_F65521, _M31 = ROW_FIELDS[-2:]


@st.composite
def partial_product_rows(draw):
    """A law, a nonzero lam and a row of nonzero values over Q or GF(p) with
    a zero denominator placed first, mid-row or last (where one exists:
    over GF(2) o is never undefined)."""
    field = draw(st.sampled_from(ROW_FIELDS))
    if field.p is None:
        values = st.builds(QQ.element, st.integers(-9, 9).filter(bool), st.integers(1, 5))
    else:
        values = st.integers(1, field.p - 1).map(field.from_int)
    kind, lam = draw(st.sampled_from(PartialProductKind)), draw(values)
    row = draw(st.lists(values, min_size=2, max_size=8))
    pole = -lam - 1 if kind is PartialProductKind.CIRC else -lam  # mu whose denominator vanishes
    if not pole.is_zero():
        at = draw(st.sampled_from([0, len(row) // 2, len(row)]))
        row = [*row[:at], pole, *row[at:]]
    return kind, lam, row


@settings(max_examples=400, deadline=None)
@given(partial_product_rows())
@example((PartialProductKind.CIRC, QQ.element(1, 2), [QQ.element(-3, 2), QQ.one(), QQ.element(-1, 2)]))
@example((PartialProductKind.STAR, _M31.from_int(5), [*map(_M31.from_int, (-5, 7, 2**30, 3))]))
@example((PartialProductKind.STAR, _F65521.from_int(9), [*map(_F65521.from_int, (1, 65520, 2, -9))]))
def test_row_of_partial_products_matches_the_reference(case):
    """The row pass, one inversion for the whole row over GF(p), equals
    ``reference_partial_product`` pair by pair, None at the zero
    denominator wherever it sits in the row."""
    kind, lam, row = case
    p = lam.spec.p
    got = _partial_products(kind, lam.value, [mu.value for mu in row], p)
    assert len(got) == len(row)
    for mu, nu in zip(row, got):
        want = reference_partial_product(kind, lam, mu)
        if want is None:
            assert nu is None
        else:
            assert nu == (want.value if p else (want.value.numerator, want.value.denominator))


def test_partial_product_zero_argument():
    with pytest.raises(ZeroArgument):
        partial_product(PartialProductKind.CIRC, QQ.zero(), QQ.one())


def test_circ_associativity_on_units():
    # both bracketings of 1 o 1 o 1 give 1/7
    a = partial_product(PartialProductKind.CIRC, QQ.one(), QQ.one())
    left = partial_product(PartialProductKind.CIRC, a, QQ.one())
    right = partial_product(PartialProductKind.CIRC, QQ.one(), a)
    assert left == right == QQ.element(1, 7)


def test_semigroup_isomorphisms():
    assert semigroup_iso_check(
        PartialProductKind.CIRC, [Fraction(1), Fraction(2), Fraction(1, 2)]
    ) is None
    assert semigroup_iso_check(PartialProductKind.STAR, [Fraction(1), Fraction(1)]) is None


def test_triple_product_closed_forms():
    # (a o b) o c = abc / ((a+1)(b+1)(c+1) - abc) and
    # (a * b) * c = abc / (ab + ac + bc), wherever defined
    import random

    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (
            QQ.element(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)
        )
        ab = partial_product(PartialProductKind.CIRC, a, b)
        if ab is not None and not ab.is_zero():
            left = partial_product(PartialProductKind.CIRC, ab, c)
            denom = (a + 1) * (b + 1) * (c + 1) - a * b * c
            if left is not None and not denom.is_zero():
                assert left == a * b * c / denom
        ab = partial_product(PartialProductKind.STAR, a, b)
        if ab is not None and not ab.is_zero():
            left = partial_product(PartialProductKind.STAR, ab, c)
            denom = a * b + a * c + b * c
            if left is not None and not denom.is_zero():
                assert left == a * b * c / denom


def test_semigroup_iso_rejects_nonpositive():
    with pytest.raises(ValueError):
        semigroup_iso_check(PartialProductKind.CIRC, [Fraction(-1)])


def test_grading_weight_one_quotient():
    table = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5)
    field = table.algebra.field
    g = grading_decompose(table, field.one())
    assert [x.value for x in g.spectrum] == [1, 2, 3]
    assert g.dimension() == 3
    status = {(c.left.value, c.right.value): c for c in g.products}
    check = status[(1, 2)]
    assert check.status is ProductStatus.CONTAINED
    assert check.product_eigenvalue == field.from_int(3)
    check = status[(1, 3)]
    assert check.status is ProductStatus.ZERO and check.product_eigenvalue is None
    check = status[(2, 3)]
    assert check.status is ProductStatus.ZERO
    assert check.product_eigenvalue == field.from_int(1)
    assert not g.violations()


def test_grading_weight_zero_quotient():
    table = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 3, 5)
    field = table.algebra.field
    g = grading_decompose(table, field.zero())
    assert [x.value for x in g.spectrum] == [1, 2, 3]
    status = {(c.left.value, c.right.value): c for c in g.products}
    check = status[(1, 3)]  # eigenvalues 1 and 3 = 1/2: product 2
    assert check.status is ProductStatus.CONTAINED
    assert check.product_eigenvalue == field.from_int(2)
    check = status[(2, 3)]  # 1/3 and 1/2: sum vanishes
    assert check.status is ProductStatus.ZERO and check.product_eigenvalue is None
    check = status[(1, 2)]  # 1 * 1/3 gives 4, outside the spectrum
    assert check.status is ProductStatus.ZERO
    assert check.product_eigenvalue == field.from_int(4)
    assert not g.violations()


def test_grading_minus_identity():
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=4)
    table = MonomialOperatorTable(
        algebra,
        QQ.one(),
        4,
        {m: (-QQ.one(), m) for m in algebra.basis(4)},
    )
    g = grading_decompose(table, QQ.one())
    assert g.spectrum == [-QQ.one()]
    assert len(g.spaces[-QQ.one()]) == 4
    assert all(c.status is not ProductStatus.VIOLATION for c in g.products)
    # (-1) o (-1) = -1 stays in the spectrum
    assert all(c.product_eigenvalue == -QQ.one() for c in g.products)


def test_grading_requires_truncation():
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    table = MonomialOperatorTable(algebra, QQ.one(), 4, {})
    with pytest.raises(ValueError):
        grading_decompose(table, QQ.one())


def test_grading_rejects_a_weight_from_another_field():
    # a GF(5) one used to select the weight-one law for a Q operator
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=3)
    table = construct_weight_one_univariate(QQ.one(), algebra, 3)
    for weight in (GF5.one(), GF5.zero()):
        with pytest.raises(MixedFieldSpecs):
            grading_decompose(table, weight)


def test_grading_non_diagonal_table_over_gf5():
    algebra = AlgebraSpec(GF5, nvars=1, unital=False, truncation=2)
    # R(x) = x^2, R(x^2) = x^2: matrix [[0,0],[1,1]] with spectrum {0,1}
    entries = {
        algebra.monomial(1): (GF5.one(), algebra.monomial(2)),
        algebra.monomial(2): (GF5.one(), algebra.monomial(2)),
    }
    table = MonomialOperatorTable(algebra, GF5.zero(), 2, entries)
    g = grading_decompose(table, GF5.zero())
    assert sorted(x.value for x in g.spectrum) == [0, 1]
    assert g.dimension() == 2


def test_grading_reduces_products_mod_p():
    algebra = AlgebraSpec(GF5, nvars=1, unital=False, truncation=4)
    x = [algebra.monomial(n) for n in range(1, 5)]
    # R = 4 on x, x^2, x^3 and R(x^4) = 4x + x^2 + 3x^3 + 3x^4: spectrum {3, 4}
    images = {m: Polynomial.monomial(algebra, m, GF5.from_int(4)) for m in x[:3]}
    images[x[3]] = Polynomial(algebra, dict(zip(x, map(GF5.from_int, (4, 1, 3, 3)))))
    g = grading_decompose(DenseOperator(algebra, GF5.zero(), 4, images), GF5.zero())
    (u,) = g.spaces[GF5.from_int(3)]
    assert u == Polynomial(algebra, dict(zip(x, map(GF5.from_int, (1, 4, 2, 1)))))
    # 3 * 3 = 4, and u^2 = x^2 + 8x^3 + 20x^4 before reduction mod 5, so
    # x^2 + 3x^3 after it, lies in A_4 = span{x, x^2, x^3}
    assert [(c.left.value, c.right.value, c.status) for c in g.products] == [
        (3, 3, ProductStatus.CONTAINED),
        (3, 4, ProductStatus.VIOLATION),
        (4, 4, ProductStatus.VIOLATION),
    ]


def test_grading_non_split_spectrum_over_q():
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=2)
    # R(x) = x^2, R(x^2) = -x: characteristic polynomial t^2 + 1
    entries = {
        algebra.monomial(1): (QQ.one(), algebra.monomial(2)),
        algebra.monomial(2): (-QQ.one(), algebra.monomial(1)),
    }
    table = MonomialOperatorTable(algebra, QQ.zero(), 2, entries)
    with pytest.raises(NonSplitSpectrum):
        grading_decompose(table, QQ.zero())


def test_grading_non_split_spectrum_over_gf3():
    field = prime_field(3)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=2)
    # the same matrix mod 3: t^2 + 1 stays irreducible, as -1 is no square
    entries = {
        algebra.monomial(1): (field.one(), algebra.monomial(2)),
        algebra.monomial(2): (-field.one(), algebra.monomial(1)),
    }
    table = MonomialOperatorTable(algebra, field.zero(), 2, entries)
    with pytest.raises(NonSplitSpectrum, match="generalized eigenspaces cover 0 of 2 dimensions"):
        grading_decompose(table, field.zero())


def _univariate_table(p, entries):
    """The weight-zero table R(x^s) = c x^t, (s, c, t) in entries, on
    k0[x]/(x^5) over GF(p)."""
    field = prime_field(p)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=4)
    table = {algebra.monomial(s): (field.from_int(c), algebra.monomial(t)) for s, c, t in entries}
    return MonomialOperatorTable(algebra, field.zero(), 4, table), field


def test_grading_nilpotent_shift_over_a_large_prime():
    # R(x^n) = 2x^(n+1): lower triangular with zero diagonal, char poly t^4
    table, field = _univariate_table(1000003, [(n, 2, n + 1) for n in range(1, 4)])
    g = grading_decompose(table, field.zero())
    assert g.spectrum == [field.zero()]
    assert len(g.spaces[field.zero()]) == 4
    assert g.products == [] and not g.violations()


def test_grading_triangular_table_past_the_scan_cap():
    # R(x) = 2x^2, R(x^3) = x^3 over the largest prime under the cap: no scan of its elements
    table, field = _univariate_table(65521, [(1, 2, 2), (3, 1, 3)])
    g = grading_decompose(table, field.zero())
    assert [lam.value for lam in g.spectrum] == [0, 1]
    assert [len(g.spaces[lam]) for lam in g.spectrum] == [3, 1]


@pytest.mark.parametrize("p", [101, 1000003])
def test_grading_swap_with_char_poly_t2_times_quadratic(p):
    # R(x) = x^2, R(x^2) = 4x: not triangular, char poly t^2 (t^2 - 4), so
    # t^2 is divided out and t^2 - 4 solved in closed form at any p
    table, field = _univariate_table(p, [(1, 1, 2), (2, 4, 1)])
    g = grading_decompose(table, field.zero())
    assert [lam.value for lam in g.spectrum] == [0, 2, p - 2]
    assert [len(g.spaces[lam]) for lam in g.spectrum] == [2, 1, 1]
    assert [c.status for c in g.products] == [ProductStatus.VIOLATION] * 3


@pytest.mark.parametrize("N", [12, 16, 24])
def test_grading_dense_conjugate_with_large_spectrum_over_q(N):
    # psi^-1 R psi for R(x^n) = (2/3) x^n / n and psi(x) = x + x^2; the
    # characteristic polynomial's constant term has too many divisors
    # for a search over divisor pairs
    op = scaled_inverse_degree_conjugate(N)
    g = grading_decompose(op, QQ.zero())
    assert sorted(lam.value for lam in g.spectrum) == sorted(
        Fraction(2, 3 * n) for n in range(1, N + 1)
    )
    assert all(len(g.spaces[lam]) == 1 for lam in g.spectrum)
    assert not g.violations()


def test_grading_dense_shift_style_operator_over_q():
    algebra = AlgebraSpec(QQ, nvars=1, unital=True, truncation=2)
    from rbalg import Polynomial

    # R(1) = 0, R(x) = 1 + x, R(x^2) = x^2: rational split spectrum {0, 1}
    from rbalg import DenseOperator

    images = {
        algebra.monomial(1): Polynomial(
            algebra, {algebra.monomial(0): QQ.one(), algebra.monomial(1): QQ.one()}
        ),
        algebra.monomial(2): Polynomial.monomial(algebra, algebra.monomial(2)),
    }
    op = DenseOperator(algebra, QQ.zero(), 2, images)
    g = grading_decompose(op, QQ.zero())
    assert sorted(x.value for x in g.spectrum) == [0, 1]
    assert g.dimension() == 3


def test_quotient_family_values_and_obstructions():
    table = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5)
    field = table.algebra.field
    expected = {1: 1, 2: 2, 3: 3}
    for n, c in expected.items():
        assert table.entries[table.algebra.monomial(n)][0] == field.from_int(c)
    table9 = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 3, 5)
    expected9 = {1: 1, 2: 3, 3: 2}
    for n, c in expected9.items():
        assert table9.entries[table9.algebra.monomial(n)][0] == table9.algebra.field.from_int(c)
    with pytest.raises(CharacteristicObstruction) as err:
        quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 7)
    assert err.value.index == 3  # 2^3 - 1 = 7
    with pytest.raises(CharacteristicObstruction):
        quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 5, 5)


def test_quotient_consistency_with_family_constructors():
    # the truncated tables are the reductions of the global families
    for N, p in [(3, 5), (4, 11), (6, 13)]:
        field = prime_field(p)
        algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=N)
        via_family = construct_weight_one_univariate(field.one(), algebra, N)
        direct = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, N, p)
        assert via_family.entries == direct.entries
        params = WeightZeroFamilyParams(1, {1: (1, field.one())})
        via_zero = construct_weight_zero(params, algebra, N)
        direct_zero = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, N, p)
        assert via_zero.entries == direct_zero.entries


def test_quotient_tables_pass_rb_check():
    for N, p in [(3, 5), (4, 11), (8, 13)]:
        t1 = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, N, p)
        assert rb_check(t1, t1.algebra.field.one(), N).passed
        t0 = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, N, p)
        assert rb_check(t0, t0.algebra.field.zero(), N).passed


def test_eigenspace_dimensions_sum_for_families():
    field = prime_field(11)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=6)
    table = construct_weight_one_univariate(field.from_int(2), algebra, 6)
    g = grading_decompose(table, field.one())
    assert g.dimension() == algebra.dimension()
    assert not g.violations()
