import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    AutomorphismSpec,
    DenseOperator,
    Monomial,
    MonomialOperatorTable,
    Polynomial,
    TensorElement,
    construct_integral,
    construct_splitting,
    op_compose,
    op_conjugate,
    op_left_mul,
    op_rescale_weight,
    operator_from_json,
    operators_agree,
    prime_field,
    rb_check,
    split_by_variables,
    split_constant_part,
)
from rbalg.errors import (
    DegreeBoundExceeded,
    InvalidAutomorphism,
    MixedAlgebras,
    ZeroWeight,
)
from rbalg.cli import main
from rbalg.grading import QuotientFamily, quotient_rb_from_family
from rbalg.operators import on_positions
from rbalg.poly import BasisIndex

from helpers import dense_to_table, field_elements, inverse_degree_table, polynomials

NONUNITAL = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
UNITAL = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)


def test_apply_inverse_degree_table():
    R = inverse_degree_table(8)
    f = Polynomial(
        NONUNITAL,
        {NONUNITAL.monomial(1): QQ.from_int(2), NONUNITAL.monomial(3): QQ.from_int(6)},
    )
    expected = Polynomial(
        NONUNITAL,
        {NONUNITAL.monomial(1): QQ.from_int(2), NONUNITAL.monomial(3): QQ.from_int(2)},
    )
    assert R.apply(f) == expected


def test_apply_zero_table():
    R = MonomialOperatorTable(NONUNITAL, QQ.zero(), 8, {})
    f = Polynomial(NONUNITAL, {NONUNITAL.monomial(2): QQ.from_int(7)})
    assert R.apply(f).is_zero()


def test_apply_truncated_gf5_table():
    R = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5)
    algebra = R.algebra
    f = Polynomial.monomial(algebra, algebra.monomial(3))
    assert R.apply(f) == Polynomial.monomial(
        algebra, algebra.monomial(3), algebra.field.from_int(3)
    )


def test_apply_above_bound_is_an_error():
    R = inverse_degree_table(4)
    with pytest.raises(DegreeBoundExceeded):
        R.apply_monomial(NONUNITAL.monomial(5))


def test_compose_with_identity():
    R = inverse_degree_table(6)
    identity = MonomialOperatorTable(
        NONUNITAL,
        QQ.zero(),
        6,
        {NONUNITAL.monomial(n): (QQ.one(), NONUNITAL.monomial(n)) for n in range(1, 7)},
    )
    assert op_compose(R, identity).entries == R.entries


def test_compose_shift_then_scale():
    R = inverse_degree_table(9)
    S = MonomialOperatorTable(
        NONUNITAL,
        QQ.zero(),
        8,
        {NONUNITAL.monomial(n): (QQ.one(), NONUNITAL.monomial(n + 1)) for n in range(1, 9)},
    )
    composed = op_compose(R, S)
    coeff, dst = composed.entries[NONUNITAL.monomial(2)]
    assert (coeff, dst) == (QQ.element(1, 3), NONUNITAL.monomial(3))


def test_compose_requires_headroom():
    R = inverse_degree_table(6)
    S = MonomialOperatorTable(
        NONUNITAL,
        QQ.zero(),
        6,
        {NONUNITAL.monomial(n): (QQ.one(), NONUNITAL.monomial(n + 1)) for n in range(1, 7)},
    )
    with pytest.raises(DegreeBoundExceeded):
        op_compose(R, S)


def test_table_rejects_monomials_of_the_wrong_arity():
    wrong = Monomial((1, 1))
    with pytest.raises(ValueError, match="not a basis monomial"):
        MonomialOperatorTable(NONUNITAL, QQ.zero(), 4, {NONUNITAL.monomial(1): (QQ.one(), wrong)})
    with pytest.raises(ValueError, match="outside the operator domain"):
        MonomialOperatorTable(NONUNITAL, QQ.zero(), 4, {wrong: (QQ.one(), NONUNITAL.monomial(1))})


def test_table_refuses_negative_exponents():
    bivariate = AlgebraSpec(QQ, nvars=2, unital=False, truncation=4)
    x1, negative = bivariate.monomial(1, 0), Monomial((-1, 3))
    with pytest.raises(ValueError, match="outside the operator domain"):
        MonomialOperatorTable(bivariate, QQ.zero(), 4, {negative: (QQ.one(), x1)})
    with pytest.raises(ValueError, match="not a basis monomial"):
        MonomialOperatorTable(bivariate, QQ.zero(), 4, {x1: (QQ.one(), negative)})
    with pytest.raises(ValueError, match="outside the operator domain"):
        DenseOperator(bivariate, QQ.zero(), 4, {negative: Polynomial.monomial(bivariate, x1)})


def test_weight_from_another_field_is_rejected_by_both_operator_kinds():
    image = {NONUNITAL.monomial(1): Polynomial.monomial(NONUNITAL, NONUNITAL.monomial(2))}
    with pytest.raises(MixedAlgebras):
        MonomialOperatorTable(NONUNITAL, prime_field(5).one(), 4, {})
    with pytest.raises(MixedAlgebras):
        DenseOperator(NONUNITAL, prime_field(5).one(), 4, image)


def _images(R, position):
    """{source position: {target position: raw value}} from ``on_positions``."""
    tgt, coef, more = on_positions(R, position)
    return {i: {t: coef[i], **dict(more.get(i, ()))} for i, t in enumerate(tgt) if t >= 0}


def test_on_positions_reads_one_term_per_image_term():
    R = inverse_degree_table(3)
    position = {(n,): n - 1 for n in (1, 2, 3)}
    assert on_positions(R, position) == ([0, 1, 2], [1, Fraction(1, 2), Fraction(1, 3)], {})
    assert on_positions(R, {(1,): 0, (2,): 1}) == ([0, 1], [1, Fraction(1, 2)], {})  # x^3 has no position
    # the shifted integral: R(1) = x + 1, R(x) = (x^2 - 1)/2
    dense = op_conjugate(construct_integral(QQ.zero(), UNITAL, 1), AutomorphismSpec.shift())
    assert _images(dense, {(n,): n for n in range(3)}) == {
        0: {0: 1, 1: 1},
        1: {0: Fraction(-1, 2), 2: Fraction(1, 2)},
    }


@st.composite
def table_and_dense(draw):
    """A monomial table and the dense operator with the same one-term
    images, over Q or GF(p), unital or not, truncated or not."""
    field = draw(st.sampled_from([QQ, prime_field(5), prime_field(7)]))
    truncation = draw(st.sampled_from([None, 3, 5]))
    algebra = AlgebraSpec(field, draw(st.integers(1, 2)), draw(st.booleans()), truncation)
    bound = draw(st.integers(0, truncation or 4))
    targets = list(algebra.basis(truncation or bound + 2))
    coeffs = field_elements(field).filter(lambda c: not c.is_zero())
    entries = {
        src: (draw(coeffs), draw(st.sampled_from(targets)))
        for src in algebra.basis(bound)
        if draw(st.booleans())
    }
    weight = draw(field_elements(field))
    images = {src: Polynomial.monomial(algebra, dst, c) for src, (c, dst) in entries.items()}
    return (
        MonomialOperatorTable(algebra, weight, bound, entries),
        DenseOperator(algebra, weight, bound, images),
    )


@settings(max_examples=200, deadline=None)
@given(ops=table_and_dense(), data=st.data())
def test_table_and_dense_operator_agree(ops, data):
    """Both operator kinds give the same images and raise the same errors."""
    table, dense = ops
    algebra, bound, weight = table.algebra, table.degree_bound, table.weight
    position = BasisIndex.of(algebra.basis(algebra.truncation or bound + 2)).position
    assert on_positions(table, position) == on_positions(dense, position)
    for m in algebra.basis(bound):
        assert table.apply_monomial(m) == dense.apply_monomial(m)
    f = data.draw(polynomials(algebra, max_degree=bound))
    assert table.apply(f) == dense.apply(f)

    above = Monomial((bound + 1,) + (0,) * (algebra.nvars - 1))
    foreign = Polynomial.zero(replace(algebra, unital=not algebra.unital))
    for op in ops:
        with pytest.raises(DegreeBoundExceeded):
            op.apply_monomial(above)
        if algebra.admits(above):
            with pytest.raises(DegreeBoundExceeded):
                op.apply(f + Polynomial.monomial(algebra, above))
        with pytest.raises(MixedAlgebras):
            op.apply(foreign)

    target, one = next(algebra.basis(bound + 1)), algebra.field.one()
    bad_sources = [Monomial((1,) * (algebra.nvars + 1)), above]
    if not algebra.unital:
        bad_sources.append(Monomial((0,) * algebra.nvars))
    for src in bad_sources:
        with pytest.raises(ValueError, match="outside the operator domain"):
            MonomialOperatorTable(algebra, weight, bound, {src: (one, target)})
        with pytest.raises(ValueError, match="outside the operator domain"):
            DenseOperator(algebra, weight, bound, {src: Polynomial.monomial(algebra, target, one)})


def test_compose_mixed_algebras():
    R = inverse_degree_table(6)
    other = AlgebraSpec(prime_field(7), nvars=1, unital=False, truncation=None)
    S = MonomialOperatorTable(other, other.field.zero(), 6, {})
    with pytest.raises(MixedAlgebras):
        op_compose(R, S)


def test_left_mul_shifts_the_integration_operator():
    # with J(x^n) = x^(n+1)/(n+1), J o l_{x^2} sends x^n to x^(n+3)/(n+3)
    J = construct_integral(QQ.zero(), UNITAL, 12)
    shifted = op_left_mul(J, UNITAL.monomial(2), QQ.one())
    assert shifted.degree_bound == 10
    for n in range(0, 11):
        coeff, dst = shifted.entries[UNITAL.monomial(n)]
        assert dst == UNITAL.monomial(n + 3)
        assert coeff == QQ.element(1, n + 3)


def test_left_mul_by_x_reproduces_degree_shift():
    # J o l_x agrees with x^n -> x^(n+2)/(n+2)
    J = construct_integral(QQ.zero(), UNITAL, 12)
    composed = op_left_mul(J, UNITAL.monomial(1), QQ.one())
    for n in range(0, 12):
        coeff, dst = composed.entries[UNITAL.monomial(n)]
        assert dst == UNITAL.monomial(n + 2)
        assert coeff == QQ.element(1, n + 2)


def test_left_mul_zero_scalar_gives_zero_operator():
    R = inverse_degree_table(8)
    zeroed = op_left_mul(R, NONUNITAL.monomial(1), QQ.zero())
    assert zeroed.is_zero()


def test_inverse_degree_table_from_integration():
    # restricting J to positive degrees after a left shift: R o l_x = J
    R = inverse_degree_table(12)
    composed = op_left_mul(R, NONUNITAL.monomial(1), QQ.one())
    for n in range(1, 12):
        coeff, dst = composed.entries[NONUNITAL.monomial(n)]
        assert dst == NONUNITAL.monomial(n + 1)
        assert coeff == QQ.element(1, n + 1)


def test_rescale_weight():
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=4)
    lam = QQ.from_int(2)
    table = construct_splitting(split_by_variables([0]), lam, algebra)
    rescaled = op_rescale_weight(table)
    assert rescaled.weight == QQ.one()
    coeff, _ = rescaled.entries[algebra.monomial(1)]
    assert coeff == -QQ.one()
    # rescaling preserves the Rota-Baxter property at weight 1
    assert rb_check(table, lam, 4).passed
    assert rb_check(rescaled, QQ.one(), 4).passed


def test_rescale_weight_zero_rejected():
    R = inverse_degree_table(4)
    with pytest.raises(ZeroWeight):
        op_rescale_weight(R)


def test_scaling_conjugation_fixes_diagonal_tables():
    R = inverse_degree_table(6)
    conj = op_conjugate(R, AutomorphismSpec.scaling((QQ.from_int(3),)))
    assert conj.entries == R.entries


def test_scaling_conjugation_is_a_group_action():
    algebra = NONUNITAL
    entries = {
        algebra.monomial(1): (QQ.from_int(2), algebra.monomial(3)),
        algebra.monomial(2): (QQ.element(1, 5), algebra.monomial(4)),
    }
    R = MonomialOperatorTable(algebra, QQ.zero(), 4, entries)
    c = QQ.element(2, 7)
    forward = op_conjugate(R, AutomorphismSpec.scaling((c,)))
    assert forward.entries != R.entries
    back = op_conjugate(forward, AutomorphismSpec.scaling((c.inverse(),)))
    assert back.entries == R.entries


def test_identity_scaling_is_a_no_op():
    R = MonomialOperatorTable(
        NONUNITAL, QQ.zero(), 4, {NONUNITAL.monomial(1): (QQ.one(), NONUNITAL.monomial(2))}
    )
    conj = op_conjugate(R, AutomorphismSpec.scaling((QQ.one(),)))
    assert conj.entries == R.entries


def test_shift_conjugation_of_constant_image_table():
    # R'(x^n) = 1 for every n; conjugating by x -> x - 1 yields the
    # operator fixing 1 and killing every positive power.
    one_mono = UNITAL.one_monomial()
    entries = {UNITAL.monomial(n): (QQ.one(), one_mono) for n in range(0, 7)}
    table = MonomialOperatorTable(UNITAL, -QQ.one(), 6, entries)
    shifted = op_conjugate(table, AutomorphismSpec.shift())
    splitting = construct_splitting(split_constant_part(), -QQ.one(), UNITAL, 6)
    assert operators_agree(shifted, splitting, 6)


def test_shift_requires_unital_univariate():
    R = inverse_degree_table(4)
    with pytest.raises(InvalidAutomorphism):
        op_conjugate(R, AutomorphismSpec.shift())
    with pytest.raises(InvalidAutomorphism):
        AutomorphismSpec.scaling((QQ.zero(),))
    with pytest.raises(InvalidAutomorphism):
        op_conjugate(R, AutomorphismSpec.scaling((QQ.one(), QQ.one())))


def test_json_round_trip_monomial_and_dense():
    R = quotient_rb_from_family(QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 3, 5)
    again = operator_from_json(R.to_json_dict())
    assert again == R
    J = construct_integral(QQ.one(), UNITAL, 5)
    again_dense = operator_from_json(J.to_json_dict())
    assert operators_agree(J, again_dense, 5)
    assert again_dense.weight == J.weight


def test_operator_json_refuses_a_repeated_source():
    """A source given twice is refused by either kind of operator, not
    overwritten by the second."""
    table = inverse_degree_table(4).to_json_dict()
    extra = {"src": [2], "dst": [2], "coeff": "5"}
    for entries in ([extra, *table["entries"]], [*table["entries"], extra]):
        with pytest.raises(TypeError, match=r"^src \[2\] is repeated$"):
            operator_from_json(dict(table, entries=entries))
    dense = construct_integral(QQ.one(), UNITAL, 3).to_json_dict()
    images = dense["images"] + [{"src": [1], "poly": []}]
    with pytest.raises(TypeError, match=r"^src \[1\] is repeated$"):
        operator_from_json(dict(dense, images=images))


def cli_exit(document: dict, *argv: str) -> int:
    """The exit code of ``rbalg`` with document in a JSON file whose path
    stands for each DOC in argv; the output is dropped, and an exception
    the CLI does not turn into an exit code propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main([path if arg == "DOC" else arg for arg in argv])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_accepted_objects_load_back_from_json(data):
    """What a constructor accepts, its JSON gives back: a monomial with a
    negative exponent is refused, where it used to print as another one
    and write JSON that did not load.  The CLI reads the printed JSON:
    ``check`` of a monomial table, ``aybe check`` of a tensor and, on a
    truncated algebra, ``grade`` of a diagonal table exit 0 or 1, never 2."""
    field = data.draw(st.sampled_from([QQ, prime_field(5)]))
    nvars = data.draw(st.integers(1, 2))
    unital = data.draw(st.booleans())
    truncation = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    weight = data.draw(st.sampled_from(["0", "1"]))
    algebra = AlgebraSpec(field, nvars=nvars, unital=unital, truncation=truncation)
    monos = st.lists(st.integers(-1, 3), min_size=nvars, max_size=nvars).map(lambda e: Monomial(tuple(e)))
    coeffs = field_elements(field).filter(lambda c: not c.is_zero())
    bound = truncation or 4
    terms = data.draw(st.dictionaries(monos, coeffs, max_size=3))
    entries = data.draw(st.dictionaries(monos, st.tuples(coeffs, monos), max_size=3))
    constructors = [
        lambda: Polynomial(algebra, terms),
        lambda: MonomialOperatorTable(algebra, field.zero(), bound, entries),
        lambda: DenseOperator(
            algebra, field.zero(), bound,
            {s: Polynomial.monomial(algebra, d, c) for s, (c, d) in entries.items()},
        ),
    ]
    if unital and truncation is None:
        keys = data.draw(st.dictionaries(st.tuples(monos, monos), coeffs, max_size=3))
        constructors.append(lambda: TensorElement(algebra, 2, keys))
    if truncation is not None:
        diagonal = {m: (c, m) for m, c in terms.items()}
        constructors.append(lambda: MonomialOperatorTable(algebra, field.zero(), bound, diagonal))
    for build in constructors:
        try:
            obj = build()
        except ValueError:
            continue
        if isinstance(obj, Polynomial):
            assert Polynomial.from_json_terms(algebra, obj.to_json_terms()) == obj
            continue
        document = obj.to_json_dict()
        if isinstance(obj, TensorElement):
            assert TensorElement.from_json_dict(document) == obj
            assert cli_exit(document, "aybe", "check", "--r", "DOC", "--weight", weight) in (0, 1)
            continue
        assert operator_from_json(document).to_json_dict() == document
        if isinstance(obj, MonomialOperatorTable):
            assert cli_exit(document, "check", "--operator", "DOC", "--weight", weight) in (0, 1)
            if truncation is not None and obj.is_diagonal():
                assert cli_exit(document, "grade", "--operator", "DOC", "--weight", weight) in (0, 1)


def test_dense_to_table_detection():
    J0 = construct_integral(QQ.zero(), UNITAL, 5)
    J1 = construct_integral(QQ.one(), UNITAL, 5)
    assert isinstance(J0, MonomialOperatorTable)
    assert dense_to_table(J1) is None


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_apply_is_linear(data):
    R = inverse_degree_table(16)
    f = data.draw(polynomials(NONUNITAL, max_degree=8))
    g = data.draw(polynomials(NONUNITAL, max_degree=8))
    a = data.draw(st.integers(-9, 9).map(QQ.from_int))
    b = data.draw(st.integers(-9, 9).map(QQ.from_int))
    assert R.apply(f.scale(a) + g.scale(b)) == R.apply(f).scale(a) + R.apply(g).scale(b)
