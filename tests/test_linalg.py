"""The spectral layer of rbalg.linalg against the code it replaced.

The references in ``helpers`` are the trace-recurrence characteristic
polynomial, one determinant per element of GF(p), divisor enumeration
of rational roots and eigenspaces as kernels of (A - lam)^n, all on
FieldElements; linalg works on raw values, so its inputs are converted
to raw values and its results back to FieldElements.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    identity_matrix,
    mat_mul,
    mat_sub_scalar_identity,
    quadratic_shift_conjugate,
    raw_matrix,
    reference_char_poly,
    reference_grading_decompose,
    reference_in_span,
    reference_kernel_basis,
    reference_prime_field_roots,
    reference_rational_roots,
)
from helpers import _reference_nonzero_roots
from rbalg import (
    QQ,
    AlgebraSpec,
    DenseOperator,
    MonomialOperatorTable,
    MultivariateFamilyParams,
    MultivariateKind,
    Polynomial,
    WeightZeroFamilyParams,
    construct_weight_one_univariate,
    construct_multivariate,
    construct_weight_zero,
    grading_decompose,
    linalg,
    prime_field,
)
from rbalg.errors import NonSplitSpectrum, RBAlgebraError, SearchBudgetExceeded
from rbalg.fields import FieldElement

PRIMES = (2, 3, 5, 7, 53)
FIELDS = (QQ,) + tuple(prime_field(p) for p in PRIMES)


def small_elements(field, low=0):
    if field.p is None:
        numerators = st.integers(low, 9) | st.integers(-9, -low)
        return st.builds(QQ.element, numerators, st.integers(1, 4))
    return st.integers(low, field.p - 1).map(field.from_int)


@st.composite
def matrices(draw, fields=FIELDS, max_n=6, rows=None):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(0, max_n))
    m = n if rows is None else draw(rows)
    entry = small_elements(field)
    # zeros often, so that eliminations meet missing pivots
    entry = st.one_of(st.just(field.zero()), entry)
    mat = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return field, mat


def elements(values, field):
    return [FieldElement(field, x) for x in values]


def dense(vec, n, field):
    """A sparse raw vector of ``kernel_basis`` as n FieldElements."""
    return [FieldElement(field, vec[j]) if j in vec else field.zero() for j in range(n)]


def evaluate(coeffs, v):
    acc = v.spec.zero()
    for c in coeffs:
        acc = acc * v + c
    return acc


def polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=50, deadline=None)
@given(matrices(fields=FIELDS[1:], max_n=7))
def test_char_poly_over_prime_fields_is_det_of_t_minus_a(case):
    # includes p <= n, where the trace recurrence divides by zero
    field, mat = case
    n = len(mat)
    coeffs = elements(linalg.char_poly(raw_matrix(mat), field.p), field)
    assert len(coeffs) == n + 1 and coeffs[0].is_one()
    for v in range(field.p):
        t = field.from_int(v)
        t_minus_a = [
            [(t if i == j else field.zero()) - mat[i][j] for j in range(n)] for i in range(n)
        ]
        assert evaluate(coeffs, t) == FieldElement(field, linalg.det(raw_matrix(t_minus_a), field.p))


@settings(max_examples=60, deadline=None)
@given(matrices(fields=(QQ,), max_n=6))
def test_char_poly_over_q_matches_trace_recurrence(case):
    field, mat = case
    assert elements(linalg.char_poly(raw_matrix(mat), None), field) == reference_char_poly(mat, field)


big = st.integers(-(10**15), 10**15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(Fraction, big, st.integers(1, 10**15)) | st.integers(-3, 3).map(Fraction),
            st.integers(1, 3),
        ),
        max_size=4,
    ),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(1, 10**15) | st.integers(-(10**15), -1), st.integers(1, 10**6)),
)
def test_rational_roots_finds_exactly_the_planted_roots(planted, a, scale):
    # scale * prod (t - r_i)^e_i * (t^2 + a): t^2 + a has no rational root
    poly = [scale]
    for r, e in planted:
        for _ in range(e):
            poly = polymul(poly, [Fraction(1), -r])
    poly = polymul(poly, [Fraction(1), Fraction(0), a])
    roots = linalg.rational_roots(poly)
    assert roots == sorted({r for r, _ in planted})


def test_rational_roots_of_linear_and_constant_polynomials():
    assert linalg.rational_roots([Fraction(3), Fraction(-2)]) == [Fraction(2, 3)]
    assert linalg.rational_roots([Fraction(1), Fraction(0), Fraction(0)]) == [Fraction(0)]
    assert linalg.rational_roots([Fraction(5)]) == []


def test_roots_scan_prime_fields_up_to_the_cap():
    """Degree 3 and up is scanned, up to the cap; degree 2 and below is
    solved in closed form in every prime field."""
    big = 65521  # the largest prime below the cap of 65536
    assert linalg.roots([1, 0, 0, big - 8], big) == [2, 32173, 33346]
    assert linalg.roots([1, 0, big - 4], big) == [2, 65519]
    with pytest.raises(SearchBudgetExceeded, match=r"GF\(65537\) is beyond desk scale"):
        linalg.roots([1, 0, 0, 65537 - 8], 65537)
    assert linalg.roots([1, 1], 65537) == [65536]


SMALL_PRIMES = tuple(p for p in range(2, 102) if all(p % d for d in range(2, p)))
LARGE_PRIMES = (65537, 1000003, 998244353, 1000000007, 2**31 - 1)  # 998244353 = 119 * 2^23 + 1


def low_degree(draw_value):
    """Coefficients, leading first, of a polynomial of degree 1 or 2."""
    return st.tuples(draw_value, draw_value, draw_value, st.booleans()).filter(
        lambda c: c[0] or (c[3] and c[1])
    ).map(lambda c: list(c[:3]) if c[0] else list(c[1:3]))


@settings(max_examples=300, deadline=None)
@example((2, [1, 1, 1]))
@example((2, [1, 0, 1]))
@example((2, [1, 1, 0]))
@example((2, [1, 1]))
@example((3, [1, 0, 1]))
@example((3, [1, 0, 2]))
@given(st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), low_degree(st.integers(0, p - 1)))
))
def test_low_degree_roots_match_the_scan(case):
    """Degree 1 and 2 in closed form against Horner evaluation at every
    element of GF(p), p <= 101, GF(2) and GF(3) included."""
    p, coeffs = case
    degree = len(coeffs) - 1
    scan = [v for v in range(p) if sum(c * v ** (degree - i) for i, c in enumerate(coeffs)) % p == 0]
    assert linalg.roots(coeffs, p) == scan


@settings(max_examples=300, deadline=None)
@given(
    low_degree(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
    | st.tuples(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)).filter(bool),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    ).map(lambda c: [c[0], -c[0] * (c[1] + c[2]), c[0] * c[1] * c[2]])  # planted roots
)
def test_low_degree_roots_match_the_reference_over_q(coeffs):
    """Over Q the nonzero roots are the solver's FieldElement reference
    roots, 0 is a root exactly when the constant term vanishes, and
    every root is a Fraction, also for int coefficients."""
    got = linalg.roots(coeffs, None)
    assert all(type(r) is Fraction for r in got)
    assert got == sorted(got) and len(set(got)) == len(got)
    *rest, a0 = [QQ.element(c.numerator, c.denominator) for c in coeffs]
    a2, a1 = rest if len(rest) == 2 else (QQ.zero(), rest[0])
    want = [r.value for r in _reference_nonzero_roots(a2, a1, a0)]
    assert [r for r in got if r] == want
    assert (Fraction(0) in got) == (coeffs[-1] == 0)
    ints = [int(c) for c in coeffs]
    if ints == coeffs and ints[0]:
        assert all(type(r) is Fraction for r in linalg.roots(ints, None))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LARGE_PRIMES).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, p - 1),
        st.integers(0, p - 1),
        st.integers(0, p - 1),
        st.booleans(),
    )
))
def test_low_degree_roots_over_large_primes(case):
    """In prime fields up to 2^31 - 1, beyond any scan: every reported
    root is a root, a quadratic planted with roots r and s reports
    exactly them, and one with no root has a non-residue discriminant."""
    p, a, r, s, planted = case
    if planted:
        coeffs = [a, -a * (r + s) % p, a * r * s % p]
    else:
        coeffs = [a, r, s]
    got = linalg.roots(coeffs, p)
    assert got == sorted(set(got))
    assert all((coeffs[0] * x * x + coeffs[1] * x + coeffs[2]) % p == 0 for x in got)
    if planted:
        assert got == sorted({r, s})
    if not got:
        disc = (coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2]) % p
        assert pow(disc, (p - 1) // 2, p) == p - 1
    assert linalg.roots([a, r], p) == [-r * pow(a, -1, p) % p]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES).flatmap(
    lambda p: st.tuples(
        st.just(p),
        low_degree(st.integers(0, p - 1)).filter(lambda c: c[-1]),
        st.integers(1, 4),
    )
))
def test_roots_divide_out_the_power_of_t(case):
    """t^k f with f(0) != 0 and f of degree 1 or 2 has the root 0 and then
    f's roots, in every prime field, beyond the scan's cap too; for
    p <= 101 against Horner evaluation at every element."""
    p, rest, k = case
    coeffs = rest + [0] * k
    got = linalg.roots(coeffs, p)
    assert got == [0] + linalg.roots(rest, p)
    if p <= 101:
        assert got == [v for v in range(p) if not sum(c * pow(v, len(coeffs) - 1 - i, p) for i, c in enumerate(coeffs)) % p]


def test_roots_of_the_grading_repros_beyond_the_cap():
    """The characteristic polynomials t^4 and t^2 (t^2 - 4) of two
    gradings over GF(1000003); a cubic factor is still scanned."""
    p = 1000003
    assert linalg.roots([1, 0, 0, 0, 0], p) == [0]
    assert linalg.roots([1, 0, p - 4, 0, 0], p) == [0, 2, p - 2]
    with pytest.raises(SearchBudgetExceeded, match=r"GF\(1000003\) is beyond desk scale"):
        linalg.roots([1, 0, 0, p - 8, 0], p)


@settings(max_examples=60, deadline=None)
@given(matrices(fields=(QQ,), max_n=5))
def test_rational_roots_match_divisor_enumeration(case):
    field, mat = case
    coeffs = linalg.char_poly(raw_matrix(mat), None)
    assert elements(linalg.rational_roots(coeffs), field) == reference_rational_roots(
        elements(coeffs, field)
    )


@settings(max_examples=60, deadline=None)
@given(matrices(fields=FIELDS, max_n=5))
def test_roots_and_multiplicities_match_generalized_eigenspaces(case):
    field, mat = case
    n = len(mat)
    p = field.p
    coeffs = linalg.char_poly(raw_matrix(mat), p)
    roots = elements(linalg.roots(coeffs, p), field)
    if field.p is None:
        assert roots == reference_rational_roots(reference_char_poly(mat, field))
    else:
        assert roots == reference_prime_field_roots(mat, field)
    for lam in roots:
        power = linalg.mat_pow(raw_matrix(mat_sub_scalar_identity(mat, lam)), n, p)
        assert linalg.root_multiplicity(coeffs, lam.value, p) == len(linalg.kernel_basis(power, p))


@settings(max_examples=80, deadline=None)
@given(matrices(fields=FIELDS, max_n=6, rows=st.integers(1, 6)))
def test_kernel_basis_matches_reference(case):
    field, mat = case
    n = len(mat[0])
    basis = linalg.kernel_basis(raw_matrix(mat), field.p)
    assert [dense(vec, n, field) for _, vec in basis] == reference_kernel_basis(mat, field)
    for lead, vec in basis:
        assert vec[lead] == 1 and not any(vec.get(other) for other, _ in basis if other != lead)


@settings(max_examples=80, deadline=None)
@given(matrices(fields=FIELDS, max_n=5, rows=st.integers(1, 4)), st.data())
def test_in_span_matches_rank_test(case, data):
    # the span is the kernel of the drawn matrix, in kernel_basis form
    field, mat = case
    n = len(mat[0])
    if n == 0:
        return
    basis = linalg.kernel_basis(raw_matrix(mat), field.p)
    vectors = [dense(vec, n, field) for _, vec in basis]
    coeffs = data.draw(st.lists(small_elements(field), min_size=len(vectors), max_size=len(vectors)))
    inside = [sum((c * v[i] for c, v in zip(coeffs, vectors)), field.zero()) for i in range(n)]
    anywhere = data.draw(st.lists(small_elements(field), min_size=n, max_size=n))

    def sparse(vec):
        return {j: x.value for j, x in enumerate(vec) if x}

    assert linalg.in_span(basis, sparse(inside), field.p)
    assert linalg.in_span(basis, sparse(anywhere), field.p) == reference_in_span(vectors, anywhere, field)


def test_mat_pow_matches_repeated_products():
    field = prime_field(7)
    mat = [[field.from_int((3 * i + j * j) % 7) for j in range(4)] for i in range(4)]
    product = identity_matrix(field, 4)
    for k in range(6):
        assert [elements(row, field) for row in linalg.mat_pow(raw_matrix(mat), k, 7)] == product
        product = mat_mul(product, mat, field)


@st.composite
def operators(draw):
    """Dense operators on k[x]/(x^(N+1)) or k0[x]/(x^(N+1)), N <= 6:
    conjugates of family tables; lower-triangular ones (never lowering a
    degree) and upper-triangular ones (never raising one: images into x^0
    on a unital algebra), their diagonals drawn from {0, 1, 2} so that
    eigenvalues repeat or drawn freely so that most are simple; and
    unstructured ones."""
    field = draw(st.sampled_from(FIELDS))
    N = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["conjugate", "lower", "upper", "dense"]))
    weight = draw(st.sampled_from([field.zero(), field.one()]))
    if kind == "conjugate":
        algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=N)
        c = draw(small_elements(field))
        nonzero = small_elements(field, low=1)
        try:
            if weight.is_one():
                table = construct_weight_one_univariate(draw(nonzero), algebra, N)
            else:
                params = WeightZeroFamilyParams(1, {1: (1, draw(nonzero))})
                table = construct_weight_zero(params, algebra, N)
        except RBAlgebraError:  # a family denominator vanishes mod p
            assume(False)
        return quadratic_shift_conjugate(table, c), weight
    algebra = AlgebraSpec(field, nvars=1, unital=draw(st.booleans()), truncation=N)
    basis = list(algebra.basis(N))
    repeated = draw(st.booleans())
    images = {}
    for i, src in enumerate(basis):
        terms = {}
        for j, dst in enumerate(basis):
            if kind == "lower" and j < i or kind == "upper" and j > i:
                continue
            if kind != "dense" and j == i:
                value = field.from_int(draw(st.integers(0, 2))) if repeated else draw(small_elements(field))
            else:
                value = draw(st.one_of(st.just(field.zero()), small_elements(field)))
            if not value.is_zero():
                terms[dst] = value
        images[src] = Polynomial(algebra, terms)
    return DenseOperator(algebra, weight, N, images), weight


def assert_same_grading(got, expected, field):
    assert got.spectrum == expected.spectrum
    assert got.spaces == expected.spaces
    assert got.products == expected.products
    if field.p is None:
        # equal FieldElements may still hold an int where a Fraction belongs
        values = [lam.value for lam in got.spectrum]
        polys = [u for basis in got.spaces.values() for u in basis]
        for check in got.products:
            values += [check.left.value, check.right.value]
            if check.product_eigenvalue is not None:
                values.append(check.product_eigenvalue.value)
            polys += list(check.witness or ())
        values += [c.value for u in polys for _, c in u.terms()]
        assert all(type(v) is Fraction for v in values)


@settings(max_examples=200, deadline=None)
@given(operators())
def test_grading_decompose_matches_reference(case):
    op, weight = case
    try:
        expected = reference_grading_decompose(op, weight)
    except ValueError as err:  # the divisor enumeration gives up
        assume("divisor enumeration" not in str(err))
        raise
    except NonSplitSpectrum as err:
        with pytest.raises(NonSplitSpectrum) as got:
            grading_decompose(op, weight)
        assert str(got.value) == str(err)
        return
    assert_same_grading(grading_decompose(op, weight), expected, op.algebra.field)


@settings(max_examples=150, deadline=None)
@given(matrices(max_n=7), st.booleans(), st.data())
def test_triangular_eigenvector_is_the_kernel_vector(case, lower, data):
    """Substitution gives kernel_basis(A - lam) exactly, term order
    included, for every simple diagonal entry of a triangular matrix."""
    field, mat = case
    n = len(mat)
    if not n:
        return
    p = field.p
    raw = [[x if (j <= i if lower else j >= i) else field.zero().value for j, x in enumerate(row)]
           for i, row in enumerate(raw_matrix(mat))]
    if data.draw(st.booleans()):  # few distinct values, so that some repeat
        for i in range(n):
            raw[i][i] = field.from_int(data.draw(st.integers(0, 2))).value
    diagonal = [raw[i][i] for i in range(n)]
    for i, lam in enumerate(diagonal):
        if diagonal.count(lam) > 1:
            continue
        shifted = [[x - lam if j == k else x for k, x in enumerate(row)] for j, row in enumerate(raw)]
        if p is not None:
            shifted = [[x % p for x in row] for row in shifted]
        (want,) = linalg.kernel_basis(shifted, p)
        got = linalg.triangular_eigenvector(raw, i, lower, p)
        assert got[0] == want[0] and list(got[1].items()) == list(want[1].items())
        if p is None:
            assert all(type(x) is Fraction for x in got[1].values())


def test_triangular_operators_skip_the_characteristic_polynomial(monkeypatch):
    """A triangular operator with a distinct diagonal grades with no
    characteristic polynomial, root search or kernel; a matrix that is
    neither lower nor upper triangular still reaches char_poly."""
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=6)
    lower = quadratic_shift_conjugate(construct_weight_one_univariate(QQ.one(), algebra, 6), QQ.element(-3, 2))
    field = prime_field(101)
    unital = AlgebraSpec(field, nvars=1, unital=True, truncation=3)
    x = [unital.monomial(n) for n in range(4)]
    # R(x^n) = (n + 1) x^n plus terms of lower degree: upper triangular
    images = [{0: 1}, {0: 7, 1: 2}, {0: 5, 2: 3}, {0: 9, 2: 1, 3: 4}]
    upper = DenseOperator(unital, field.zero(), 3, {
        x[n]: Polynomial(unital, {x[k]: field.from_int(c) for k, c in image.items()})
        for n, image in enumerate(images)
    })
    cases = [(lower, QQ.one()), (upper, field.zero())]
    expected = [reference_grading_decompose(op, weight) for op, weight in cases]

    def refuse(name):
        def call(*args):
            raise RuntimeError(f"linalg.{name} was called")
        return call

    for name in ("char_poly", "roots", "kernel_basis"):
        monkeypatch.setattr(linalg, name, refuse(name))
    for (op, weight), want in zip(cases, expected):
        got = grading_decompose(op, weight)
        assert len(got.spectrum) == got.dimension()
        assert_same_grading(got, want, op.algebra.field)
    swap = MonomialOperatorTable(unital, field.zero(), 3, {
        x[1]: (field.one(), x[2]), x[2]: (field.one(), x[1]),
    })
    with pytest.raises(RuntimeError, match=r"linalg\.char_poly was called"):
        grading_decompose(swap, field.zero())


DIAGONAL_PRIMES = tuple(prime_field(p) for p in (5, 7, 10007, 2**31 - 1))


@st.composite
def diagonal_tables(draw):
    """Diagonal monomial tables on truncated k[x] or k[x, y], unital or not:
    coefficients from a few values, so that eigenvalues repeat and
    eigenspaces have dimension above 1, with some entries absent; or
    members of the multivariate families, whose products land in their
    eigenspaces, sometimes with one coefficient changed.  GF(10007) and
    GF(2^31 - 1) bring residues far above the row lengths."""
    field = draw(st.just(QQ) | st.sampled_from(DIAGONAL_PRIMES))
    nvars = draw(st.integers(1, 2))
    unital = draw(st.booleans())
    T = draw(st.integers(1, 6 if nvars == 1 else 4))
    algebra = AlgebraSpec(field, nvars=nvars, unital=unital, truncation=T)
    weight = draw(st.sampled_from([field.zero(), field.one()]))
    if field.p is None:
        pairs = [(1, 1), (-1, 1), (2, 1), (1, 2), (-1, 2), (1, 3), (1, 7)]
        values = st.sampled_from([QQ.element(a, b) for a, b in pairs])
    else:
        values = st.integers(1, field.p - 1).map(field.from_int)
    basis = list(algebra.basis(T))
    if not unital and draw(st.booleans()):
        kind = MultivariateKind.WEIGHT_ONE if weight.is_one() else MultivariateKind.WEIGHT_ZERO
        params = MultivariateFamilyParams(kind, tuple(draw(values) for _ in range(nvars)))
        try:
            entries = dict(construct_multivariate(params, algebra, T).entries)
        except RBAlgebraError:  # a family denominator vanishes
            assume(False)
        if draw(st.booleans()):
            m = draw(st.sampled_from(basis))
            entries[m] = (draw(values), m)
    else:
        entries = {m: (c, m) for m in basis if (c := draw(st.one_of(st.none(), values))) is not None}
    return MonomialOperatorTable(algebra, weight, T, entries), weight


@settings(max_examples=300, deadline=None)
@given(diagonal_tables())
def test_diagonal_grading_matches_reference(case):
    """The diagonal path, which reads membership from the eigenvalue number
    of the product monomial, against products of Polynomials and the rank
    test."""
    op, weight = case
    assert op.is_diagonal()
    got = grading_decompose(op, weight)
    assert_same_grading(got, reference_grading_decompose(op, weight), op.algebra.field)
