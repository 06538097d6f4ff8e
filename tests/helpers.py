"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    DenseOperator,
    MonomialOperatorTable,
    Polynomial,
    WeightZeroFamilyParams,
    construct_weight_zero,
    rb_residual,
)
from rbalg import grading, linalg
from rbalg.errors import NonSplitSpectrum
from rbalg.fields import FieldKind
from rbalg.rbcheck import CheckReport, RBViolation


def rational_elements(max_abs=20, max_den=8):
    return st.builds(
        lambda n, d: QQ.element(n, d),
        st.integers(-max_abs, max_abs),
        st.integers(1, max_den),
    )


def gf_elements(field):
    return st.integers(0, field.p - 1).map(field.from_int)


def field_elements(field):
    if field.p is None:
        return rational_elements()
    return gf_elements(field)


def polynomials(algebra, max_degree=8, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(algebra.nvars)])

    def build(pairs):
        terms = {}
        for raw_exps, coeff in pairs:
            degree = sum(raw_exps)
            if degree > max_degree:
                continue
            if not algebra.unital and degree == 0:
                continue
            mono = algebra.monomial(*raw_exps)
            terms[mono] = coeff
        return Polynomial(algebra, terms)

    return st.lists(
        st.tuples(exps, field_elements(algebra.field)), max_size=max_terms
    ).map(build)


def inverse_degree_table(bound, algebra=None):
    """R(x^n) = x^n / n on the non-unital univariate rationals."""
    if algebra is None:
        algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    field = algebra.field
    entries = {}
    top = bound if algebra.truncation is None else min(bound, algebra.truncation)
    for n in range(1, top + 1):
        mono = algebra.monomial(n)
        entries[mono] = (field.from_int(n).inverse(), mono)
    return MonomialOperatorTable(algebra, field.zero(), bound, entries)


def random_weight_zero_params(rng: random.Random, field, m_max=4, p_max=3):
    """Random family parameters with at least one live residue class."""
    m = rng.randint(1, m_max)
    classes = {}
    live = rng.randint(1, m)
    for b in range(1, m + 1):
        if b != live and rng.random() < 0.3:
            classes[b] = (0, field.zero())
        else:
            p = rng.randint(1, p_max)
            if field.p is None:
                q = field.element(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 5))
            else:
                q = field.from_int(rng.randint(1, field.p - 1))
            classes[b] = (p, q)
    return WeightZeroFamilyParams(m, classes)


def max_target_shift(params: WeightZeroFamilyParams) -> int:
    return max(
        (params.m * p for p, q in params.classes.values() if not q.is_zero()),
        default=0,
    )


def reference_rb_check(R, weight, degree):
    """``rb_check`` evaluated pair by pair with ``rb_residual`` alone.

    The same pairs in the same order, but no raw-value kernel: an oracle
    that stays independent of the fast path it judges.
    """
    algebra = R.algebra
    truncated = algebra.truncation is not None
    top = min(degree, algebra.truncation) if truncated else degree
    basis = list(algebra.basis(top))
    checked = 0
    for i, u in enumerate(basis):
        for v in basis[i:]:
            if not truncated and u.degree() + v.degree() > top:
                continue
            checked += 1
            residual = rb_residual(R, u, v, weight)
            if not residual.is_zero():
                return CheckReport(checked, RBViolation(u, v, residual))
    return CheckReport(checked, None)


def quadratic_shift_conjugate(R, c):
    """psi^-1 R psi for the automorphism psi(x) = x + c x^2 of k0[x]/(x^(N+1)).

    A dense operator with the spectrum of R whenever c is nonzero.
    """
    algebra = R.algebra
    N = algebra.truncation
    x = Polynomial.monomial(algebra, algebra.monomial(1))
    psi_x = x + (x * x).scale(c)
    psi = {1: psi_x}
    for i in range(2, N + 1):
        psi[i] = psi[i - 1] * psi_x
    # psi is unitriangular; invert it by back substitution from the top degree
    inv = {}
    for i in range(N, 0, -1):
        acc = Polynomial.monomial(algebra, algebra.monomial(i))
        for mono, coeff in psi[i].terms():
            if mono.exponents[0] > i:
                acc = acc - inv[mono.exponents[0]].scale(coeff)
        inv[i] = acc
    images = {}
    for i in range(1, N + 1):
        image = Polynomial.zero(algebra)
        for mono, coeff in R.apply(psi[i]).terms():
            image = image + inv[mono.exponents[0]].scale(coeff)
        images[algebra.monomial(i)] = image
    return DenseOperator(algebra, R.weight, R.degree_bound, images)


def scaled_inverse_degree_conjugate(N):
    """Conjugate under x -> x + x^2 of R(x^n) = (2/3) x^n / n on
    Q0[x]/(x^(N+1)), weight 0: a dense operator with spectrum {2/(3n)}."""
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=N)
    params = WeightZeroFamilyParams(1, {1: (1, QQ.element(2, 3))})
    return quadratic_shift_conjugate(construct_weight_zero(params, algebra, N), QQ.one())


# -- the spectral code that linalg.char_poly and linalg.rational_roots replaced,
# kept as oracles for the new routines


def reference_char_poly(mat, spec):
    """det(tI - A) by the trace recurrence, leading first.

    Divides by 1..n, so it is valid in characteristic zero only.
    """
    n = len(mat)
    coeffs = [spec.one()]
    m = linalg.identity_matrix(spec, n)
    for k in range(1, n + 1):
        m = linalg.mat_mul(mat, m, spec)
        trace = spec.zero()
        for i in range(n):
            trace = trace + m[i][i]
        ck = -(trace / spec.from_int(k))
        coeffs.append(ck)
        for i in range(n):
            m[i][i] = m[i][i] + ck
    return coeffs


def reference_prime_field_roots(mat, spec):
    """Eigenvalues in GF(p): one determinant per field element."""
    return [
        spec.from_int(v)
        for v in range(spec.p)
        if linalg.det(linalg.mat_sub_scalar_identity(mat, spec.from_int(v)), spec).is_zero()
    ]


def _divisors(n, cap=200_000):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
        if d > cap:
            raise ValueError("constant term too large for divisor enumeration")
    return sorted(set(out))


def reference_rational_roots(coeffs):
    """Rational roots by trying every +-p/q with p | constant, q | leading."""
    spec = coeffs[0].spec
    work = [c.value for c in coeffs]
    roots = set()
    while len(work) > 1 and work[-1] == 0:
        roots.add(Fraction(0))
        work = work[:-1]
    if len(work) > 1:
        denom = lcm(*(f.denominator for f in work))
        ints = [int(f * denom) for f in work]
        for p in _divisors(ints[-1]):
            for q in _divisors(ints[0]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    total = Fraction(0)
                    for c in work:
                        total = total * cand + c
                    if total == 0:
                        roots.add(cand)
    return [spec.from_fraction(r) for r in sorted(roots)]


def reference_kernel_basis(mat, spec):
    """Null space basis by Gauss-Jordan elimination on FieldElements."""
    rows = [row[:] for row in mat]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [spec.zero()] * ncols
        vec[free] = spec.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][free]
        basis.append(vec)
    return basis


def reference_in_span(vectors, target, spec):
    """Rank test: appending target as a column adds one kernel vector
    exactly when target lies in the span of the columns."""
    if all(x.is_zero() for x in target):
        return True
    mat = [[v[i] for v in vectors] for i in range(len(target))]
    augmented = [row + [t] for row, t in zip(mat, target)]
    return len(reference_kernel_basis(augmented, spec)) == len(reference_kernel_basis(mat, spec)) + 1


def reference_matrix_decomposition(R):
    """Generalized eigenspaces as ker (A - lam)^n, n = dim A, for every
    eigenvalue found by the reference root finders above."""
    algebra = R.algebra
    spec = algebra.field
    basis = list(algebra.basis(algebra.truncation))
    n = len(basis)
    mat = R.as_matrix(basis)
    if spec.kind is FieldKind.PRIME:
        candidates = reference_prime_field_roots(mat, spec)
    else:
        candidates = reference_rational_roots(reference_char_poly(mat, spec))
    spaces = {}
    covered = 0
    for lam in candidates:
        power = linalg.mat_pow(linalg.mat_sub_scalar_identity(mat, lam), n, spec)
        vectors = reference_kernel_basis(power, spec)
        if vectors:
            spaces[lam] = [
                Polynomial(algebra, {m: c for m, c in zip(basis, vec) if not c.is_zero()})
                for vec in vectors
            ]
            covered += len(vectors)
    if covered != n:
        raise NonSplitSpectrum(f"generalized eigenspaces cover {covered} of {n} dimensions")
    return sorted(spaces, key=lambda e: e.sort_key()), spaces


def reference_grading_decompose(R, weight):
    """``grading_decompose`` on the reference spectra and the rank test."""
    with (
        mock.patch.object(grading, "_matrix_decomposition", reference_matrix_decomposition),
        mock.patch.object(linalg, "span_basis", lambda vectors, spec: vectors),
        mock.patch.object(linalg, "in_span", reference_in_span),
    ):
        return grading.grading_decompose(R, weight)
