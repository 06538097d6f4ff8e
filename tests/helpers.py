"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    DenseOperator,
    MonomialOperatorTable,
    Polynomial,
    TensorElement,
    WeightZeroFamilyParams,
    aybe_residual,
    construct_weight_one_univariate,
    construct_weight_zero,
    rb_residual,
)
from rbalg import classify, linalg
from rbalg.classify import (
    ABSENT,
    CoefficientStrategy,
    FamilyMatch,
    MatchKind,
)
from rbalg.construct import residue_class, residues
from rbalg.errors import (
    CharacteristicObstruction,
    DegreeBoundExceeded,
    DenominatorVanishes,
    InvalidParams,
    NonSplitSpectrum,
    NonUnitalAlgebra,
    SearchBudgetExceeded,
)
from rbalg.fields import FieldElement, FieldKind, FieldSpec
from rbalg.laurent import Laurent
from rbalg.poly import Monomial, _accumulate
from rbalg.grading import (
    GradingDecomposition,
    PartialProductKind,
    ProductCheck,
    ProductStatus,
)
from rbalg.rbcheck import CheckReport, RBViolation


def from_fraction(spec: FieldSpec, q: Fraction) -> FieldElement:
    return spec.element(q.numerator, q.denominator)


def parse_polynomial_text(algebra: AlgebraSpec, text: str) -> Polynomial:
    """Inverse of ``Polynomial.to_text``."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero(algebra)
    terms: Dict[Monomial, FieldElement] = {}
    for part in text.split(" + "):
        coeff_text, _, mono_text = part.partition("*")
        coeff = algebra.field.parse(coeff_text)
        exps = [0] * algebra.nvars
        if mono_text not in ("", "1"):
            for factor in mono_text.split("*"):
                name, _, power = factor.partition("^")
                exps[int(name[1:]) - 1] += int(power) if power else 1
        _accumulate(terms, Monomial(tuple(exps)), coeff)
    return Polynomial(algebra, terms)


def dense_to_table(op: DenseOperator) -> Optional[MonomialOperatorTable]:
    """Monomial form of a dense operator, or None if any image has >1 term."""
    entries = {}
    for src, poly in op.images.items():
        terms = poly.terms()
        if len(terms) != 1:
            return None
        mono, coeff = terms[0]
        entries[src] = (coeff, mono)
    return MonomialOperatorTable(op.algebra, op.weight, op.degree_bound, entries)


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
    that stays independent of the fast path it judges.  The window holds
    the arguments within the bound; a pair whose residual applies R above
    it is outside the domain and skipped.
    """
    algebra = R.algebra
    truncated = algebra.truncation is not None
    top = min(degree, algebra.truncation) if truncated else degree
    basis = [m for m in algebra.basis(top) if m.degree() <= R.degree_bound]
    checked = skipped = 0
    for i, u in enumerate(basis):
        for v in basis[i:]:
            if not truncated and u.degree() + v.degree() > degree:
                continue
            try:
                residual = rb_residual(R, u, v, weight)
            except DegreeBoundExceeded:
                skipped += 1
                continue
            checked += 1
            if not residual.is_zero():
                return CheckReport(checked, RBViolation(u, v, residual), skipped)
    return CheckReport(checked, None, skipped)


def quadratic_shift_conjugate(R, c):
    """psi^-1 R psi for the automorphism psi(x_i) = x_i + c x_i^2 of the
    non-unital truncated algebra, for an operator defined up to the truncation.

    A dense operator with the spectrum of R whenever c is nonzero.
    """
    algebra = R.algebra
    basis = list(algebra.basis(algebra.truncation))
    psi = {}
    for m in basis:
        image = None
        for i, e in enumerate(m.exponents):
            x = Polynomial.monomial(algebra, algebra.monomial(*(int(j == i) for j in range(algebra.nvars))))
            for _ in range(e):
                factor = x + (x * x).scale(c)
                image = factor if image is None else image * factor
        psi[m] = image
    # psi(m) is m plus terms of higher degree; invert by back substitution from the top
    inv = {}
    for m in reversed(basis):
        acc = Polynomial.monomial(algebra, m)
        for mono, coeff in psi[m].terms():
            if mono != m:
                acc = acc - inv[mono].scale(coeff)
        inv[m] = acc
    images = {}
    for m in basis:
        image = Polynomial.zero(algebra)
        for mono, coeff in R.apply(psi[m]).terms():
            image = image + inv[mono].scale(coeff)
        images[m] = image
    return DenseOperator(algebra, R.weight, R.degree_bound, images)


def scaled_inverse_degree_conjugate(N):
    """Conjugate under x -> x + x^2 of R(x^n) = (2/3) x^n / n on
    Q0[x]/(x^(N+1)), weight 0: a dense operator with spectrum {2/(3n)}."""
    algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=N)
    params = WeightZeroFamilyParams(1, {1: (1, QQ.element(2, 3))})
    return quadratic_shift_conjugate(construct_weight_zero(params, algebra, N), QQ.one())


# -- the spectral code that linalg.char_poly and linalg.rational_roots replaced,
# kept as oracles for the new routines, with the FieldElement matrix helpers
# it runs on


def identity_matrix(spec, n):
    zero, one = spec.zero(), spec.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, spec):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    zero = spec.zero()
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            c = row[t]
            if c.is_zero():
                continue
            brow = b[t]
            for j in range(m):
                if not brow[j].is_zero():
                    acc[j] = acc[j] + c * brow[j]
    return out


def mat_pow(a, k, spec):
    result = None
    base = a
    while k > 0:
        if k & 1:
            result = [row[:] for row in base] if result is None else mat_mul(result, base, spec)
        k >>= 1
        if k:
            base = mat_mul(base, base, spec)
    return identity_matrix(spec, len(a)) if result is None else result


def mat_sub_scalar_identity(a, lam):
    out = [row[:] for row in a]
    for i in range(len(a)):
        out[i][i] = out[i][i] - lam
    return out


def raw_matrix(mat):
    return [[x.value for x in row] for row in mat]


def reference_char_poly(mat, spec):
    """det(tI - A) by the trace recurrence, leading first.

    Divides by 1..n, so it is valid in characteristic zero only.
    """
    n = len(mat)
    coeffs = [spec.one()]
    m = identity_matrix(spec, n)
    for k in range(1, n + 1):
        m = mat_mul(mat, m, spec)
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
        if not linalg.det(raw_matrix(mat_sub_scalar_identity(mat, spec.from_int(v))), spec.p)
    ]


def reference_scan_roots(coeffs, p):
    """The roots in GF(p) of a polynomial, leading coefficient first, by
    Horner evaluation at every element, ascending."""
    roots = []
    for v in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * v + c) % p
        if not acc:
            roots.append(v)
    return roots


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
    return [from_fraction(spec, r) for r in sorted(roots)]


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
    index = {m: i for i, m in enumerate(basis)}
    mat = [[spec.zero()] * n for _ in basis]
    for j, m in enumerate(basis):
        for mono, coeff in R.apply_monomial(m).terms():
            mat[index[mono]][j] = coeff
    if spec.kind is FieldKind.PRIME:
        candidates = reference_prime_field_roots(mat, spec)
    else:
        candidates = reference_rational_roots(reference_char_poly(mat, spec))
    spaces = {}
    covered = 0
    for lam in candidates:
        power = mat_pow(mat_sub_scalar_identity(mat, lam), n, spec)
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


def reference_diagonal_decomposition(R):
    """Eigenspaces of a diagonal table: each basis monomial spans a line."""
    algebra = R.algebra
    spaces = {}
    for m in algebra.basis(algebra.truncation):
        hit = R.entries.get(m)
        lam = algebra.field.zero() if hit is None else hit[0]
        spaces.setdefault(lam, []).append(Polynomial.monomial(algebra, m))
    spectrum = sorted(spaces, key=lambda e: e.sort_key())
    return spectrum, spaces


def reference_partial_product(kind, lam, mu):
    """lam*mu / (lam + mu + 1) (o) or lam*mu / (lam + mu) (*) on
    FieldElements, None when the denominator vanishes."""
    denom = lam + mu + 1 if kind is PartialProductKind.CIRC else lam + mu
    return None if denom.is_zero() else lam * mu / denom


def reference_grading_decompose(R, weight):
    """``grading_decompose`` as it was on Polynomials and FieldElements: the
    reference spectra, products by ``Polynomial`` multiplication, expanded
    into dense coordinates and tested with the rank test."""
    algebra = R.algebra
    if algebra.truncation is None:
        raise ValueError("grading needs a finite-dimensional (truncated) algebra")
    if weight.is_one():
        kind = PartialProductKind.CIRC
    elif weight.is_zero():
        kind = PartialProductKind.STAR
    else:
        raise ValueError("grade at weight 0 or 1 (rescale other weights first)")

    if isinstance(R, MonomialOperatorTable) and R.is_diagonal():
        spectrum, spaces = reference_diagonal_decomposition(R)
    else:
        spectrum, spaces = reference_matrix_decomposition(R)

    basis_all = list(algebra.basis(algebra.truncation))
    index = {m: i for i, m in enumerate(basis_all)}
    spec = algebra.field

    def coords(p: Polynomial):
        vec = [spec.zero()] * len(basis_all)
        for m, c in p.terms():
            vec[index[m]] = c
        return vec

    products = []
    targets = {}
    nonzero = [lam for lam in spectrum if not lam.is_zero()]
    for i, lam in enumerate(nonzero):
        for mu in nonzero[i:]:
            nu = reference_partial_product(kind, lam, mu)
            forced_zero = nu is None or nu not in spaces
            if not forced_zero and nu not in targets:
                targets[nu] = [coords(p) for p in spaces[nu]]
            status = ProductStatus.ZERO
            witness = None
            if lam == mu:
                pairs = itertools.combinations_with_replacement(spaces[lam], 2)
            else:
                pairs = itertools.product(spaces[lam], spaces[mu])
            any_contained = False
            for u, v in pairs:
                w = u * v
                if w.is_zero():
                    continue
                if forced_zero:
                    status = ProductStatus.VIOLATION
                    witness = (u, v, w)
                    break
                if reference_in_span(targets[nu], coords(w), spec):
                    any_contained = True
                else:
                    status = ProductStatus.VIOLATION
                    witness = (u, v, w)
                    break
            if status is not ProductStatus.VIOLATION and any_contained:
                status = ProductStatus.CONTAINED
            products.append(ProductCheck(lam, mu, status, nu, witness))
    return GradingDecomposition(spectrum, spaces, products)


# -- the coefficient solver on FieldElements, before raw values and linalg.roots

_REFERENCE_SOLVER_PRIME_CAP = 4096


def _reference_fraction_sqrt(value: Fraction) -> Optional[Fraction]:
    """Square root of a non-negative rational if it is rational, else None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _reference_substitute(terms, values, field: FieldSpec):
    """Split an equation into (constant, linear, quadratic) given values."""
    const = field.zero()
    linear: Dict[int, FieldElement] = {}
    quad: Dict[Tuple[int, int], FieldElement] = {}
    one = field.one()
    for sign, variables in terms:
        coeff = one if sign > 0 else -one
        unknown = []
        for var in variables:
            val = values.get(var)
            if val is None:
                unknown.append(var)
            else:
                coeff = coeff * val
        if not unknown:
            const = const + coeff
        elif len(unknown) == 1:
            x = unknown[0]
            linear[x] = linear.get(x, field.zero()) + coeff
        else:
            key = tuple(sorted(unknown))
            quad[key] = quad.get(key, field.zero()) + coeff
    linear = {x: c for x, c in linear.items() if not c.is_zero()}
    quad = {k: c for k, c in quad.items() if not c.is_zero()}
    return const, linear, quad


def _reference_nonzero_roots(a2: FieldElement, a1: FieldElement, a0: FieldElement):
    """Roots of a2 x^2 + a1 x + a0 in the field, zero excluded."""
    field = a2.spec
    if a2.is_zero():
        if a1.is_zero():
            return [] if not a0.is_zero() else None  # None: vacuous, no info
        root = -a0 / a1
        return [] if root.is_zero() else [root]
    if field.kind is FieldKind.RATIONALS:
        disc = a1 * a1 - 4 * a2 * a0
        sqrt = _reference_fraction_sqrt(disc.value)
        if sqrt is None:
            return []
        s = from_fraction(field, sqrt)
        roots = {(-a1 + s) / (2 * a2), (-a1 - s) / (2 * a2)}
        return sorted((r for r in roots if not r.is_zero()), key=lambda r: r.sort_key())
    p = field.p
    if p > _REFERENCE_SOLVER_PRIME_CAP:
        raise SearchBudgetExceeded(
            f"quadratic root enumeration over GF({p}) is beyond desk scale"
        )
    c2, c1, c0 = a2.value, a1.value, a0.value
    return [field.from_int(v) for v in range(1, p) if (c2 * v * v + c1 * v + c0) % p == 0]


def reference_solve_coefficients(
    equations,
    unknowns: Sequence,
    field: FieldSpec,
    strategy: CoefficientStrategy,
):
    """All full nonzero assignments: (values, seeded, orphans) triples."""
    solutions = []
    unknown_order = list(unknowns)

    def recurse(values: dict, seeded: tuple):
        values = dict(values)
        while True:
            progress = False
            active = []
            for terms in equations:
                const, linear, quad = _reference_substitute(terms, values, field)
                varset = set(linear)
                for pair in quad:
                    varset.update(pair)
                if not varset:
                    if not const.is_zero():
                        return
                    continue
                if len(varset) == 1:
                    (x,) = varset
                    a2 = quad.get((x, x), field.zero())
                    a1 = linear.get(x, field.zero())
                    roots = _reference_nonzero_roots(a2, a1, const)
                    if roots is None:
                        continue
                    if not roots:
                        return
                    if len(roots) == 1:
                        values[x] = roots[0]
                        progress = True
                    else:
                        for root in roots:
                            branched = dict(values)
                            branched[x] = root
                            recurse(branched, seeded)
                        return
                else:
                    active.append(varset)
            if progress:
                continue
            remaining = [x for x in unknown_order if x not in values]
            if not remaining:
                solutions.append((values, seeded, ()))
                return
            mentioned = set()
            for varset in active:
                mentioned.update(varset)
            seedable = [x for x in remaining if x in mentioned]
            if not seedable:
                # truncation artifacts: no constraint mentions them at all
                for x in remaining:
                    values[x] = field.one()
                solutions.append((values, seeded, tuple(remaining)))
                return
            if len(seeded) >= strategy.max_seeds:
                return
            x = seedable[0]
            for value in strategy.grid:
                if value.is_zero():
                    continue
                branched = dict(values)
                branched[x] = value
                recurse(branched, seeded + (x,))
            return

    recurse({}, ())
    return solutions


# -- family matching by rebuilding the family member ---------------------------


def reference_match_weight_zero(table: MonomialOperatorTable):
    """For each m dividing the target gcd, largest first, each class takes
    (p, q) from its least defined source, and the member they build must
    reproduce the table (a class with p <= 0 never does)."""
    algebra = table.algebra
    field = algebra.field
    g = gcd(*(dst.exponents[0] for _, dst in table.entries.values()))
    if g == 0:
        return None
    entries = sorted(table.entries.items(), reverse=True)  # the least source of a class writes last
    for m in (d for d in range(g, 0, -1) if g % d == 0):
        classes = {b: (0, field.zero()) for b in residues(m, algebra.unital)}
        for src, (coeff, dst) in entries:  # x^(m*a+b) -> x^T gives p = T/m - a, q = coeff*T
            b, a = residue_class(src.exponents[0], m, algebra.unital)
            classes[b] = (dst.exponents[0] // m - a, coeff * field.from_int(dst.exponents[0]))
        try:
            params = WeightZeroFamilyParams(m, classes)
            rebuilt = construct_weight_zero(params, algebra, table.degree_bound)
        except (InvalidParams, CharacteristicObstruction):
            continue  # no family member with this m: some p_b <= 0, or a denominator vanishes
        if rebuilt.entries == table.entries:
            return FamilyMatch(MatchKind.WEIGHT_ZERO_FAMILY, params=params)
    return None


def reference_match_weight_one(table: MonomialOperatorTable):
    """alpha = R(x), and the member of the family it builds must reproduce
    the table."""
    algebra = table.algebra
    if algebra.unital or not table.is_diagonal():
        return None
    hit = table.entries.get(algebra.monomial(1))
    if hit is None:
        return None
    alpha = hit[0]
    try:
        rebuilt = construct_weight_one_univariate(alpha, algebra, table.degree_bound)
    except (DenominatorVanishes, CharacteristicObstruction):
        return None
    if rebuilt.entries == table.entries:
        return FamilyMatch(MatchKind.WEIGHT_ONE_FAMILY, alpha=alpha)
    return None


def reference_match_family(table: MonomialOperatorTable):
    """``match_family`` with both family matchers rebuilding the member."""
    with (
        mock.patch.object(classify, "_match_weight_zero", reference_match_weight_zero),
        mock.patch.object(classify, "_match_weight_one", reference_match_weight_one),
    ):
        return classify.match_family(table)


def reference_diagonal_equations(algebra, weight, degree_bound):
    """The pair constraints a_u a_v = (a_u + a_v + weight) a_uv of an
    injective diagonal table, built from monomial products: basis indices
    as unknowns, one equation per pair whose product lies in the window."""
    basis = list(algebra.basis(degree_bound))
    index = {m: i for i, m in enumerate(basis)}
    equations = []
    truncated = algebra.truncation is not None
    for i, u in enumerate(basis):
        for v in basis[i:]:
            w = u * v
            d = w.degree()
            if truncated and d > algebra.truncation:
                continue  # product vanishes; constraint is vacuous
            if d > degree_bound:
                continue  # outside the checked window
            iu, iv, iw = index[u], index[v], index[w]
            terms = [(1, (iu, iv)), (-1, (iu, iw)), (-1, (iv, iw))]
            if weight.is_one():
                terms.append((-1, (iw,)))
            equations.append(terms)
    return equations


# -- the shape DFS as rescanning loops -----------------------------------------

UNASSIGNED = -2


def _pair_reads(t, u: int, v: int, lam_one: bool, D: int) -> set:
    """The sources whose targets the check of the pair (x^u, x^v) reads:
    v and the inner indices."""
    tu, tv = t[u], t[v]
    reads = {v}
    if tu >= 0 and tu + v <= D:
        reads.add(tu + v)
    if tv >= 0 and u + tv <= D:
        reads.add(u + tv)
    if lam_one and u + v <= D:
        reads.add(u + v)
    return reads


def _pair_consistent(t, u: int, v: int, lam_one: bool, D: int, merge: bool = True) -> bool:
    """Degree bookkeeping of the identity for the pair (x^u, x^v).

    Sound filter: returns False only when no nonzero coefficient
    assignment can satisfy the pair, using certainty of single-term
    groups (products of nonzero entries never vanish).  With merge, the
    inner term R(R(x^u) x^v) when tu == 0, or R(x^u R(x^v)) when tv == 0,
    is a_u*a_v at degree tu + tv if both targets are present: the left
    side's own product.  It is summed into the left side, which one such
    term cancels and two leave at -1.  Without merge it is a group like
    any other, which may meet the left side.
    """
    tu, tv = t[u], t[v]
    groups = {}
    twins = 0
    if tu >= 0:
        ia = tu + v
        if merge and tu == 0 and tv >= 0:
            twins += 1
        elif ia <= D:
            groups.setdefault(ia, []).append("q")
    if tv >= 0:
        ib = u + tv
        if merge and tv == 0 and tu >= 0:
            twins += 1  # for a square with tu == 0, the term above again
        elif ib <= D:
            groups.setdefault(ib, []).append("q")
    if lam_one:
        ic = u + v
        if ic <= D:
            groups.setdefault(ic, []).append("l")
    lhs_degree = tu + tv if (tu >= 0 and tv >= 0 and tu + tv <= D and twins != 1) else None
    degs = {}
    for i, tags in groups.items():
        ti = t[i]
        if ti == ABSENT:
            continue
        if len(tags) == 1:
            certain = True
        elif u == v and tags == ["q", "q"]:
            certain = True  # the two quadratic terms coincide: 2*a_u*a_i
        else:
            certain = False  # merged coefficients may cancel
        degs.setdefault(ti, []).append(certain)
    if lhs_degree is not None and lhs_degree not in degs:
        return False
    for d, flags in degs.items():
        if d == lhs_degree:
            continue
        if len(flags) == 1 and flags[0]:
            return False
    return True


def _respects_kernel_image_structure(t, sources: Sequence[int]) -> bool:
    """Weight-one structure filter for a complete shape: no present
    target may be an absent source.  Nonzero-weight operators on the
    full algebra have disjoint kernel and image (both subalgebras), so a
    shape whose image meets its kernel is a quotient-only artifact.  On a
    partial shape (unassigned entries UNASSIGNED) it judges the assigned
    sources among themselves.
    """
    for n in sources:
        target = t[n]
        if target >= 0 and t[target] == ABSENT:
            return False
    return True


def _respects_class_closure(t, sources: Sequence[int], D: int, unital: bool) -> bool:
    """Weight-zero residue-class structure check for a complete shape.

    With m* the gcd of the present targets, any extendable table has,
    within each source class mod m*, a constant target shift, and its
    absent members are exactly those whose shifted target overflows the
    bound.  Mixed classes with an in-range hole cannot come from an
    operator on the full algebra; the quotient-only solutions this
    removes are deliberate (the search mirrors the full-algebra class
    structure).  Given the assigned sources of a partial shape, it judges
    them with m* the gcd of their present targets.
    """
    present = [(n, t[n]) for n in sources if t[n] >= 0]
    if not present:
        return True
    m_star = gcd(*(target for _, target in present))
    if m_star == 0:
        return True  # every image is the constant; no class structure
    min_target = 0 if unital else 1
    by_class: Dict[int, List[int]] = {}
    for n in sources:
        by_class.setdefault(n % m_star, []).append(n)
    for members in by_class.values():
        shift = None
        for n in members:
            if t[n] >= 0:
                if shift is None:
                    shift = t[n] - n
                elif t[n] - n != shift:
                    return False
        if shift is None:
            continue  # fully absent class
        for n in members:
            if t[n] == ABSENT and min_target <= n + shift <= D:
                return False
    return True


def _structure_admits(t, assigned, s: int, x: int, D: int, unital: bool, lam_one: bool) -> bool:
    """Whether the structure rule lets the unassigned source s take x,
    given the assigned sources.  Weight one: the assigned sources and s
    pass the kernel/image filter.  Weight zero: when some assigned present
    target shares s's class mod g, the gcd of the assigned present
    targets, x is s plus that member's shift, or ABSENT when that is out
    of range."""
    if lam_one:
        before, t[s] = t[s], x
        ok = _respects_kernel_image_structure(t, [*assigned, s])
        t[s] = before
        return ok
    present = [n for n in assigned if t[n] >= 0]
    g = gcd(*(t[n] for n in present))
    for n in present:
        if g and (s - n) % g == 0:
            target = s + t[n] - n
            return x == (target if (0 if unital else 1) <= target <= D else ABSENT)
    return True


def _starved(t, sources, pos: int, choices, lam_one: bool, D: int, unital: bool, rule: bool = True) -> bool:
    """Whether some source s after sources[pos] has no target x among
    choices[s] that the structure rule (when rule) admits and for which
    every pair whose only unassigned read it is holds with t[s] = x."""
    k = sources[pos]
    assigned = sources[: pos + 1]
    watching: Dict[int, list] = {}
    for ui in range(pos + 1):
        for vi in range(ui, pos + 1):
            u, v = sources[ui], sources[vi]
            unassigned = [r for r in _pair_reads(t, u, v, lam_one, D) if r > k]
            if len(unassigned) == 1:
                watching.setdefault(unassigned[0], []).append((u, v))
    for s in sources[pos + 1 :]:
        pairs = watching.get(s, [])
        before = t[s]
        admissible = False
        for x in choices[s]:
            if rule and not _structure_admits(t, assigned, s, x, D, unital, lam_one):
                continue
            t[s] = x
            if all(_pair_consistent(t, u, v, lam_one, D) for u, v in pairs):
                admissible = True
            t[s] = before
            if admissible:
                break
        if not admissible:
            return True
    return False


def reference_shapes(D, unital, lam_one, budget, stats, forward=False, below=None, rule=True, unit=True):
    """``classify._surviving_shapes`` as the old loop: at every node and
    option, rescan all earlier pairs for those whose last reference is the
    current source and re-derive each one's bookkeeping from ``t``, and
    filter complete shapes by the structure rule.  With forward, an option
    is pruned too when the assigned sources break the structure rule, or
    when ``_starved`` finds a later source with no admissible target; then
    every complete shape passes the filter.

    With below, the shapes at bound D - 1 (indexed by exponent), each is
    extended to D: a present target is the source's one option, an absent
    source and x^D take ABSENT or D.  Without rule the structure rule is
    not applied and complete shapes are not counted as enumerated.  With
    unit, at weight one on k[x], x^0 takes no option but ABSENT and 0 (the
    unit lemma of ``classify``), at every bound."""
    min_src = 0 if unital else 1
    sources = list(range(min_src, D + 1))
    t = [ABSENT] * (D + 1)
    options = [ABSENT] + list(range(min_src, D + 1))
    choices = {}

    def dfs(pos: int):
        stats.nodes_visited += 1
        if stats.nodes_visited > budget:
            raise SearchBudgetExceeded(f"shape budget of {budget} nodes exhausted")
        if pos == len(sources):
            stats.shapes_enumerated += rule
            if lam_one:
                structural_ok = _respects_kernel_image_structure(t, sources)
            else:
                structural_ok = _respects_class_closure(t, sources, D, unital)
            if rule and not structural_ok:
                stats.shapes_pruned += 1
                return
            yield tuple(t)
            return
        k = sources[pos]
        for option in choices[k]:
            t[k] = option
            ok = True
            # check pairs newly decided by this assignment
            for ui in range(pos + 1):
                u = sources[ui]
                for vi in range(ui, pos + 1):
                    v = sources[vi]
                    if max(_pair_reads(t, u, v, lam_one, D)) != k:
                        continue
                    if not _pair_consistent(t, u, v, lam_one, D):
                        ok = False
                        break
                if not ok:
                    break
            if ok and forward:
                assigned = sources[: pos + 1]
                if rule and lam_one:
                    ok = _respects_kernel_image_structure(t, assigned)
                elif rule:
                    ok = _respects_class_closure(t, assigned, D, unital)
                ok = ok and not _starved(t, sources, pos, choices, lam_one, D, unital, rule)
            if ok:
                yield from dfs(pos + 1)
            else:
                stats.shapes_pruned += 1
        t[k] = UNASSIGNED

    for seed in [None] if below is None else below:
        for s in sources:
            t[s] = UNASSIGNED
            if seed is None:
                choices[s] = options
            else:
                choices[s] = [seed[s]] if s < D and seed[s] >= 0 else [ABSENT, D]
            if unit and lam_one and s == 0:
                choices[s] = [x for x in choices[s] if x in (ABSENT, 0)]
        yield from dfs(0)


def load_benchmark_reference():
    """``perfbench/reference.py``, the benchmark's independent oracle, as a
    module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def shape_exponents(index, shape):
    """A shape of ``classify._surviving_shapes``, on the positions of a
    univariate ``basis_index``, indexed as the references index theirs:
    t[n] is the exponent of x^n's target or ABSENT, and t[0] is ABSENT
    when x^0 is no source."""
    deg = index.degrees  # on k0[x], the exponent at each position
    t = [ABSENT] * (deg[-1] + 1)
    for n, target in enumerate(shape):
        t[deg[n]] = ABSENT if target == ABSENT else deg[target]
    return tuple(t)


def reference_forward_shapes(D, unital, lam_one, budget, stats, below=None, rule=True, unit=True):
    """``classify._surviving_shapes`` as a rescanning loop with forward
    checking: ``reference_shapes`` that also prunes an option breaking the
    structure rule among the assigned sources or leaving some later source
    no target.  It reads every product from exponents."""
    return reference_shapes(D, unital, lam_one, budget, stats, True, below, rule, unit)


def reference_surviving_shapes(index, lam_one, budget, stats, size=None, below=None, pairs=None):
    """``classify._surviving_shapes`` by ``reference_forward_shapes``, its
    shapes moved between the positions of index and exponents: a drop-in
    for it, so the deepening driver can run on the reference.  It compiles
    no pairs, so the deepening's cache, pairs, is ignored."""
    size = len(index.degrees) if size is None else size
    deg = index.degrees[:size]  # on k0[x], the exponent of each position
    if below is not None:
        below = [shape_exponents(index._replace(degrees=deg[:-1]), t) for t in below]
    rule = size == len(index.degrees)
    for t in reference_forward_shapes(deg[-1], deg[0] == 0, lam_one, budget, stats, below, rule):
        yield tuple(ABSENT if t[d] == ABSENT else index.position[(t[d],)] for d in deg)


def reference_grid_solve(equations, unknowns, field, strategy, grid):
    """``classify._solve_coefficients`` without symbols, by
    ``reference_solve_coefficients``: one group of raw values per grid
    instance, so the search re-verifies each instance with ``rb_check``.
    The raw grid is dropped; the reference seeds from the strategy itself."""
    return [
        ({x: v.value for x, v in values.items()}, seeded, orphans)
        for values, seeded, orphans in reference_solve_coefficients(equations, unknowns, field, strategy)
    ]


def solver_instances(groups, field, grid):
    """The (values, seeded, orphans) instances of the solver's groups, in
    order, each value a FieldElement."""
    return [
        ({x: FieldElement(field, v) for x, v in raw.items()}, seeded, orphans)
        for values, seeded, orphans in groups
        for raw in classify._instances(values, seeded, grid, field.p)
    ]


@contextmanager
def search_checks():
    """Within the block, (symbolic, held) for each check a search makes
    through ``classify._pair_verdicts``: symbolic when the values checked
    are a group's Laurent polynomials in its seeds, held when no pair of
    the window fails."""
    window, calls = classify._pair_verdicts, []

    def spy(algebra, bound, degree, read, w, *rest):
        verdicts = list(window(algebra, bound, degree, read, w, *rest))
        symbolic = any(type(c) is Laurent for c in read(None)[1])  # a search's reader ignores the positions
        calls.append((symbolic, False not in [verdict for _, _, verdict in verdicts]))
        return iter(verdicts)

    with mock.patch.object(classify, "_pair_verdicts", spy):
        yield calls


def per_instance_enumerate_monomial_rb(algebra, weight, degree_bound, strategy=None):
    """``enumerate_monomial_rb`` on the per-instance path: the search's own
    shapes, solved by ``reference_grid_solve``, each table checked alone."""
    with mock.patch.object(classify, "_solve_coefficients", reference_grid_solve):
        return classify.enumerate_monomial_rb(algebra, weight, degree_bound, strategy)


def reference_enumerate_monomial_rb(algebra, weight, degree_bound, strategy=None):
    """``enumerate_monomial_rb`` driven by ``reference_surviving_shapes``
    (at weight one through the search's own deepening, level by level) and
    ``reference_grid_solve``."""
    with (
        mock.patch.object(classify, "_surviving_shapes", reference_surviving_shapes),
        mock.patch.object(classify, "_solve_coefficients", reference_grid_solve),
    ):
        return classify.enumerate_monomial_rb(algebra, weight, degree_bound, strategy)


def reference_aybe_grid_search(
    algebra: AlgebraSpec,
    support_degree: int,
    grid: List[FieldElement],
    weight: FieldElement,
    max_cells: int = 16,
    budget: int = 2_000_000,
) -> List[TensorElement]:
    """All tensors with the given support and grid coefficients that
    solve the equation exactly.  A falsification-style witness over a
    finite grid, not a symbolic solution of the equation.

    The residual is quadratic in the cell coefficients: cells i, j add
    c_i c_j at (a_i a_j, b_j, b_i) and at (a_j, a_i, b_i b_j), subtract it
    at (a_i, b_i a_j, b_j), and each cell adds -weight c_i at (a_i, 1, b_i).
    The grid is walked in reflected Gray-code order, one cell moving one
    grid step at a time, on raw values (Fractions over Q): each step adds
    only the moved cell's linear, square and cross terms to the residual
    and keeps count of its nonzero keys.  The solutions are returned in the
    order of ``itertools.product`` over the cells' grid indices.
    """
    if not algebra.unital:
        raise NonUnitalAlgebra("tensor computations require a unital algebra")
    basis = list(algebra.basis(support_degree))
    cells = [(a, b) for a in basis for b in basis]
    ncells = len(cells)
    if ncells > max_cells:
        raise SearchBudgetExceeded(
            f"{ncells} support cells exceed the cap of {max_cells}"
        )
    size = len(grid)
    total = size ** ncells
    if total > budget:
        raise SearchBudgetExceeded(
            f"{total} candidate tensors exceed the budget of {budget}"
        )
    # quad[i, j], i <= j: the integer coefficient of c_i c_j at each key
    quad: Dict[Tuple[int, int], Dict[tuple, int]] = {}
    for i, (a_i, b_i) in enumerate(cells):
        for j, (a_j, b_j) in enumerate(cells):
            terms = quad.setdefault((min(i, j), max(i, j)), {})
            for key, sign in (
                (((a_i * a_j).exponents, b_j.exponents, b_i.exponents), 1),
                ((a_i.exponents, (b_i * a_j).exponents, b_j.exponents), -1),
                ((a_j.exponents, a_i.exponents, (b_i * b_j).exponents), 1),
            ):
                terms[key] = terms.get(key, 0) + sign
    square = [[(k, c) for k, c in quad[i, i].items() if c] for i in range(ncells)]
    cross = [
        [(j, [(k, c) for k, c in quad[min(i, j), max(i, j)].items() if c]) for j in range(ncells) if j != i]
        for i in range(ncells)
    ]
    one_exps = algebra.one_monomial().exponents
    linear = [(a.exponents, one_exps, b.exponents) for a, b in cells]
    p = algebra.field.p
    values = [g.value for g in grid]
    raw_weight = weight.value
    residual: Dict[tuple, object] = {}
    nonzero = 0

    def add(key, delta):
        nonlocal nonzero
        old = residual.get(key, 0)
        new = old + delta if p is None else (old + delta) % p
        nonzero += (new != 0) - (old != 0)
        residual[key] = new

    start = values[0]  # every cell starts at the grid's first value
    for terms in quad.values():
        for key, c in terms.items():
            add(key, c * start * start)
    for key in linear:
        add(key, -raw_weight * start)
    # a move of one cell from grid value x to y changes its square term by
    # y^2 - x^2, its cross term with a cell at grid value e by (y - x) e and
    # its linear term by -weight (y - x): each product computed once
    moves: Dict[tuple, object] = {}

    def move(c, x, y, e):
        if (c, x, y, e) not in moves:
            vx, vy = values[x], values[y]
            m = vy * vy - vx * vx if e == "square" else -raw_weight * (vy - vx) if e == "linear" else (vy - vx) * values[e]
            moves[c, x, y, e] = c * m
        return moves[c, x, y, e]

    digits, steps = [0] * ncells, [1] * ncells
    found = [] if nonzero else [tuple(digits)]
    for t in range(1, total):
        i = ncells - 1  # the cell that moves: the lowest nonzero base-size digit of t
        while t % size == 0:
            t //= size
            i -= 1
        x = digits[i]
        y = digits[i] = x + steps[i]
        if y in (0, size - 1):
            steps[i] = -steps[i]
        if values[x] != values[y]:
            for key, c in square[i]:
                add(key, move(c, x, y, "square"))
            for j, terms in cross[i]:
                if values[digits[j]]:
                    for key, c in terms:
                        add(key, move(c, x, y, digits[j]))
            add(linear[i], move(1, x, y, "linear"))
        if not nonzero:
            found.append(tuple(digits))
    return [
        TensorElement(algebra, 2, {cells[i]: grid[g] for i, g in enumerate(indices) if not grid[g].is_zero()})
        for indices in sorted(found)
    ]


def reference_aybe_nodes(algebra, support_degree, grid, weight) -> int:
    """Nodes of the pruned AYBE grid search, rebuilt from ``aybe_residual``.

    Cell k touches a key of A x A x A when the key has a nonzero integer
    coefficient in cell k's linear term, in its self-product, or in the
    bilinear cross term with an earlier cell.  Assigning cell k is one
    node; the search goes deeper only if the residual of the partial
    tensor vanishes on every key that no later cell touches.
    """
    basis = list(algebra.basis(support_degree))
    cells = [(a, b) for a in basis for b in basis]
    over_q = AlgebraSpec(QQ, nvars=algebra.nvars, unital=True, truncation=None)

    def quadratic(terms):
        return aybe_residual(TensorElement(over_q, 2, terms), QQ.zero())

    units = [quadratic({cell: QQ.one()}) for cell in cells]
    last: Dict[tuple, int] = {}
    for k, cell in enumerate(cells):
        touched = set(units[k].terms)
        touched.add((cell[0], over_q.one_monomial(), cell[1]))
        for i in range(k):
            cross = quadratic({cells[i]: QQ.one(), cell: QQ.one()}) - units[i] - units[k]
            touched |= set(cross.terms)
        for key in touched:
            last[key] = k

    def visit(prefix) -> int:
        k = len(prefix)
        if k == len(cells):
            return 0
        nodes = 0
        for value in grid:
            nodes += 1
            terms = dict(zip(cells, prefix + [value]))
            residual = aybe_residual(TensorElement(algebra, 2, terms), weight)
            if all(last[key] > k for key in residual.terms):
                nodes += visit(prefix + [value])
        return nodes

    return visit([])
