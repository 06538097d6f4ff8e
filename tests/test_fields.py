import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbalg import QQ, FieldSpec, prime_field
from rbalg.errors import (
    DivisionByZero,
    MixedFieldSpecs,
    NonInvertibleModP,
    ZeroDenominator,
)

from helpers import field_elements

GF5 = prime_field(5)


def test_rational_reduction_to_lowest_terms():
    assert QQ.element(2, 4) == QQ.element(1, 2)
    assert str(QQ.element(2, 4)) == "1/2"
    assert str(QQ.element(-3, -6)) == "1/2"
    assert str(QQ.element(4, 2)) == "2"


def test_gf5_inverse_denominators():
    # 1/(2^3 - 1) = 1/7 and 7 = 2 mod 5 with inverse 3
    assert GF5.element(1, 7) == GF5.from_int(3)
    # 1/3 with 3^(-1) = 2 mod 5
    assert GF5.element(1, 3) == GF5.from_int(2)


def test_arithmetic_examples():
    assert QQ.element(1, 2) + QQ.element(1, 3) == QQ.element(5, 6)
    assert GF5.from_int(2) * GF5.from_int(4) == GF5.from_int(3)
    assert GF5.from_int(3) / GF5.from_int(4) == GF5.from_int(2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        QQ.element(1, 0)
    with pytest.raises(ZeroDenominator):
        GF5.element(1, 0)


def test_denominator_divisible_by_p_rejected():
    with pytest.raises(NonInvertibleModP):
        GF5.element(1, 10)
    with pytest.raises(NonInvertibleModP):
        GF5.element(5, 5)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.one() / QQ.zero()
    with pytest.raises(DivisionByZero):
        GF5.zero().inverse()


def test_reflected_subtraction_and_division():
    """An int on the left of - and / is read into the field: 3 - a and
    1 / a, over Q and GF(5); a zero divisor still raises, and an operand
    that is neither an int nor an element is refused."""
    for field in (QQ, GF5):
        a = field.from_int(2)
        assert 3 - a == field.from_int(3) - a == field.one()
        assert 1 / a == a.inverse()
        assert 0 - a == -a
        with pytest.raises(DivisionByZero):
            1 / field.zero()
        with pytest.raises(TypeError):
            "3" - a
        with pytest.raises(TypeError):
            1.5 / a


def test_mixed_specs_rejected():
    with pytest.raises(MixedFieldSpecs):
        QQ.one() + GF5.one()


def test_prime_validation():
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        prime_field((1 << 31) + 11)
    assert prime_field(2).p == 2
    assert prime_field(2147483647).p == 2147483647


def test_rendering_and_parsing():
    assert str(GF5.from_int(3)) == "3 mod 5"
    assert GF5.parse("3 mod 5") == GF5.from_int(3)
    assert GF5.parse("1/7") == GF5.from_int(3)
    assert QQ.parse("-7/3") == QQ.element(-7, 3)
    assert QQ.parse("4") == QQ.from_int(4)
    with pytest.raises(MixedFieldSpecs):
        prime_field(7).parse("3 mod 5")


def test_field_spec_strings():
    assert FieldSpec.from_string("Q") == QQ
    assert FieldSpec.from_string("Fp:5") == GF5
    assert GF5.to_string() == "Fp:5"
    with pytest.raises(ValueError):
        FieldSpec.from_string("R")


def test_powers():
    assert QQ.element(2, 3) ** 3 == QQ.element(8, 27)
    assert QQ.element(2, 3) ** -1 == QQ.element(3, 2)
    assert GF5.from_int(2) ** 4 == GF5.from_int(1)


@pytest.mark.parametrize("field", [QQ, prime_field(13)])
class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ring_axioms(self, field, data):
        a = data.draw(field_elements(field))
        b = data.draw(field_elements(field))
        c = data.draw(field_elements(field))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inverses(self, field, data):
        a = data.draw(field_elements(field))
        assert a + (-a) == field.zero()
        if not a.is_zero():
            assert a * a.inverse() == field.one()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_canonical_form_idempotent(self, field, data):
        a = data.draw(field_elements(field))
        assert field.parse(str(a)) == a
        assert hash(field.parse(str(a))) == hash(a)
