import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbalg import QQ, AlgebraSpec, Monomial, Polynomial, linear_combination, prime_field
from rbalg.errors import MixedAlgebras, MixedFieldSpecs
from rbalg.poly import BasisIndex

from helpers import parse_polynomial_text, polynomials

NONUNITAL = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
UNITAL = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)
TRUNC3 = AlgebraSpec(QQ, nvars=1, unital=False, truncation=3)


def mono_poly(algebra, *exps):
    return Polynomial.monomial(algebra, algebra.monomial(*exps))


def test_monomial_product():
    x = mono_poly(NONUNITAL, 1)
    x2 = mono_poly(NONUNITAL, 2)
    assert x * x2 == mono_poly(NONUNITAL, 3)


def test_truncated_product_vanishes():
    # in k0[x]/(x^4) the product x * x^3 is zero
    x = mono_poly(TRUNC3, 1)
    x3 = mono_poly(TRUNC3, 3)
    assert (x * x3).is_zero()


def test_difference_of_squares():
    x = mono_poly(UNITAL, 1)
    one = Polynomial.one(UNITAL)
    assert (x - one) * (x + one) == x * x - one


def test_linear_combination_examples():
    x = mono_poly(NONUNITAL, 1)
    x2 = mono_poly(NONUNITAL, 2)
    x3 = mono_poly(NONUNITAL, 3)
    assert linear_combination(x, x, QQ.one(), -QQ.one()).is_zero()
    expected = Polynomial(
        NONUNITAL,
        {NONUNITAL.monomial(2): QQ.from_int(2), NONUNITAL.monomial(3): QQ.from_int(3)},
    )
    assert linear_combination(x2, x3, QQ.from_int(2), QQ.from_int(3)) == expected
    assert linear_combination(x3, x3, QQ.element(1, 3), QQ.element(2, 3)) == x3


def test_non_unital_rejects_constant():
    with pytest.raises(ValueError):
        Polynomial(NONUNITAL, {NONUNITAL.monomial(0): QQ.one()})
    with pytest.raises(ValueError):
        Polynomial.one(NONUNITAL)


def test_negative_exponents_are_refused():
    # x1^-1 x2^3 has degree 2, but it is no basis monomial: it printed as x2^3
    bivariate = AlgebraSpec(QQ, nvars=2)
    assert not bivariate.admits(Monomial((-1, 3)))
    with pytest.raises(ValueError, match="not a basis monomial"):
        Polynomial(bivariate, {Monomial((-1, 3)): QQ.one()})
    with pytest.raises(ValueError, match="not a basis monomial"):
        Polynomial(UNITAL, {Monomial((-1,)): QQ.one()})


@pytest.mark.parametrize("exponent", [1.5, 1.0, True, False, "1"], ids=repr)
def test_non_integer_exponents_are_refused(exponent):
    """Only an int is an exponent: a float, even 1.0, or a bool from a JSON
    document is refused when the monomial is built, and never admitted."""
    bivariate = AlgebraSpec(QQ, nvars=2)
    assert not UNITAL.admits(Monomial((exponent,)))
    assert not bivariate.admits(Monomial((1, exponent)))
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        UNITAL.monomial(exponent)
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        bivariate.monomial(exponent, 2)
    assert UNITAL.monomial(1) == Monomial((1,))


def test_basis_index_of_a_truncated_algebra():
    algebra = AlgebraSpec(prime_field(5), nvars=2, unital=True, truncation=3)
    index = algebra.basis_index
    assert algebra.basis_index is index
    assert index.monomials == tuple(algebra.basis(3))
    exponents = [m.exponents for m in index.monomials]
    assert index.degrees == tuple(map(sum, exponents))
    assert all(index.position[e] == i for i, e in enumerate(exponents))
    for i, a in enumerate(index.monomials):
        for j, b in enumerate(index.monomials):
            k = index.mul[i][j]
            assert (index.monomials[k] if k is not None else None) == (a * b if algebra.admits(a * b) else None)
    # the same index built from the list of monomials, rows and all
    again = BasisIndex.of(index.monomials)
    assert again[:3] == index[:3]
    assert [again.mul[i] for i in range(len(exponents))] == [index.mul[i] for i in range(len(exponents))]
    with pytest.raises(ValueError, match="finite-dimensional"):
        AlgebraSpec(QQ, nvars=2).basis_index


def test_mixed_algebras_rejected():
    with pytest.raises(MixedAlgebras):
        mono_poly(NONUNITAL, 1) * mono_poly(TRUNC3, 1)


def test_scale_rejects_a_scalar_from_another_field():
    # a foreign zero used to return 0 while a foreign nonzero raised
    x = mono_poly(NONUNITAL, 1)
    for c in (prime_field(5).zero(), prime_field(5).one()):
        with pytest.raises(MixedFieldSpecs):
            x.scale(c)
        with pytest.raises(MixedFieldSpecs):
            Polynomial.zero(NONUNITAL).scale(c)


def test_scalar_multiplication():
    """A field element or an int on either side of * scales the
    polynomial: the same as ``scale``; a zero scalar gives zero, a scalar
    from another field is refused, and any other operand too."""
    f = Polynomial(NONUNITAL, {NONUNITAL.monomial(1): QQ.one(), NONUNITAL.monomial(3): QQ.from_int(-2)})
    three = QQ.from_int(3)
    assert f * three == three * f == f * 3 == 3 * f == f.scale(three)
    assert f * 3 == Polynomial(NONUNITAL, {NONUNITAL.monomial(1): three, NONUNITAL.monomial(3): QQ.from_int(-6)})
    assert (f * 0).is_zero() and (QQ.zero() * f).is_zero()
    with pytest.raises(MixedFieldSpecs):
        f * prime_field(5).one()
    with pytest.raises(TypeError):
        "x" * f
    with pytest.raises(TypeError):
        1.5 * f


def test_zero_coefficients_dropped():
    p = Polynomial(NONUNITAL, {NONUNITAL.monomial(1): QQ.zero()})
    assert p.is_zero()
    q = mono_poly(NONUNITAL, 1) - mono_poly(NONUNITAL, 1)
    assert q.is_zero() and len(q.terms()) == 0


def test_text_round_trip():
    p = Polynomial(
        UNITAL,
        {
            UNITAL.monomial(0): QQ.element(5, 2),
            UNITAL.monomial(2): QQ.element(-3, 7),
        },
    )
    assert parse_polynomial_text(UNITAL, p.to_text()) == p
    assert parse_polynomial_text(UNITAL, "0").is_zero()


def test_multivariate_text():
    algebra = AlgebraSpec(QQ, nvars=3, unital=False, truncation=None)
    p = Polynomial(
        algebra,
        {
            algebra.monomial(2, 0, 1): QQ.element(3, 7),
            algebra.monomial(0, 1, 0): QQ.one(),
        },
    )
    assert p.to_text() == "1*x2 + 3/7*x1^2*x3"
    assert parse_polynomial_text(algebra, p.to_text()) == p


def test_json_round_trip():
    algebra = AlgebraSpec(prime_field(7), nvars=2, unital=False, truncation=5)
    p = Polynomial(
        algebra,
        {
            algebra.monomial(1, 1): algebra.field.from_int(3),
            algebra.monomial(0, 2): algebra.field.from_int(6),
        },
    )
    assert Polynomial.from_json_terms(algebra, p.to_json_terms()) == p


def test_json_terms_refuse_a_repeated_monomial():
    """A monomial given twice is refused, not overwritten by the second."""
    algebra = AlgebraSpec(QQ, nvars=2, unital=False, truncation=5)
    terms = [{"exponents": [1, 1], "coeff": "3"}, {"exponents": [0, 2], "coeff": "1"}]
    with pytest.raises(TypeError, match=r"^exponents \[1, 1\] is repeated$"):
        Polynomial.from_json_terms(algebra, terms + [{"exponents": [1, 1], "coeff": "0"}])


def test_basis_enumeration_order():
    degrees = [m.degree() for m in TRUNC3.basis(10)]
    assert degrees == [1, 2, 3]
    bivariate = AlgebraSpec(QQ, nvars=2, unital=True, truncation=None)
    basis = list(bivariate.basis(2))
    assert [m.exponents for m in basis] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]


def test_dimension():
    assert TRUNC3.dimension() == 3
    assert AlgebraSpec(QQ, 2, False, 2).dimension() == 5
    with pytest.raises(ValueError):
        NONUNITAL.dimension()


@pytest.mark.parametrize(
    "algebra",
    [
        NONUNITAL,
        AlgebraSpec(prime_field(13), nvars=2, unital=True, truncation=None),
    ],
)
class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_commutativity_and_associativity(self, algebra, data):
        f = data.draw(polynomials(algebra))
        g = data.draw(polynomials(algebra))
        h = data.draw(polynomials(algebra))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_distributivity(self, algebra, data):
        f = data.draw(polynomials(algebra))
        g = data.draw(polynomials(algebra))
        h = data.draw(polynomials(algebra))
        assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncated_product_agrees_with_truncated_full_product(data):
    full = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    cut = AlgebraSpec(QQ, nvars=1, unital=False, truncation=5)
    f = data.draw(polynomials(full, max_degree=5))
    g = data.draw(polynomials(full, max_degree=5))
    product = f * g
    reduced = Polynomial(
        cut, {cut.monomial(*m.exponents): c for m, c in product.terms() if m.degree() <= 5}
    )
    f_cut = Polynomial(cut, {cut.monomial(*m.exponents): c for m, c in f.terms()})
    g_cut = Polynomial(cut, {cut.monomial(*m.exponents): c for m, c in g.terms()})
    assert f_cut * g_cut == reduced


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_non_unital_closure(data):
    f = data.draw(polynomials(NONUNITAL, max_degree=6))
    g = data.draw(polynomials(NONUNITAL, max_degree=6))
    product = f * g
    assert all(m.degree() >= 2 for m, _ in product.terms())
