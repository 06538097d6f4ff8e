"""Exact dense linear algebra over a FieldSpec.

Small matrices only (desk scale).  Matrices are lists of rows of
FieldElement; column j of an operator matrix holds the image of the j-th
basis vector.  The public functions take and return FieldElements; the
eliminations inside them run on raw values (Fractions over Q, ints
reduced mod p over GF(p)), with ``p`` None standing for Q.

Kernels and span membership come from the reduced row echelon form,
determinants from Gaussian elimination, and the characteristic
polynomial from a Hessenberg reduction, in every characteristic.
Polynomial roots are found by Horner evaluation over GF(p) and by p-adic
lifting plus rational reconstruction over Q; ``roots`` serves both the
grading of spectra and the coefficient solver of the shape search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, Optional, Tuple

from .errors import SearchBudgetExceeded
from .fields import FieldElement, FieldSpec

_ROOT_SCAN_CAP = 65536  # largest p whose elements ``roots`` tries one by one

Matrix = List[List[FieldElement]]
Vector = List[FieldElement]
SpanBasis = List[Tuple[int, List[tuple]]]


def identity_matrix(spec: FieldSpec, n: int) -> Matrix:
    zero, one = spec.zero(), spec.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix, spec: FieldSpec) -> Matrix:
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


def mat_pow(a: Matrix, k: int, spec: FieldSpec) -> Matrix:
    result = None
    base = a
    while k > 0:
        if k & 1:
            result = [row[:] for row in base] if result is None else mat_mul(result, base, spec)
        k >>= 1
        if k:
            base = mat_mul(base, base, spec)
    return identity_matrix(spec, len(a)) if result is None else result


def mat_sub_scalar_identity(a: Matrix, lam: FieldElement) -> Matrix:
    out = [row[:] for row in a]
    for i in range(len(a)):
        out[i][i] = out[i][i] - lam
    return out


# -- raw-value helpers ------------------------------------------------------------


def _inv(x, p):
    return Fraction(1) / x if p is None else pow(x, -1, p)


def _axpy(a: list, f, b: list, p) -> list:
    """a - f*b elementwise."""
    if p is None:
        return [x - f * y if y else x for x, y in zip(a, b)]
    return [(x - f * y) % p if y else x for x, y in zip(a, b)]


def _horner(coeffs: list, v, p):
    """Value at v of the polynomial with these coefficients, leading first."""
    acc = 0
    for c in coeffs:
        acc = acc * v + c if p is None else (acc * v + c) % p
    return acc


def _divmod_poly(a: list, b: list, p) -> Tuple[list, list]:
    """Quotient and remainder of a by b, leading coefficients first.

    The remainder has no leading zeros, so the zero polynomial is [].
    """
    rem = list(a)
    inv = _inv(b[0], p)
    steps = len(a) - len(b) + 1
    quot = []
    for i in range(steps):
        q = rem[i] * inv if p is None else rem[i] * inv % p
        quot.append(q)
        if q:
            for k in range(1, len(b)):
                rem[i + k] = rem[i + k] - q * b[k] if p is None else (rem[i + k] - q * b[k]) % p
    rem = rem[max(steps, 0):]
    while rem and not rem[0]:
        rem.pop(0)
    return quot, rem


def _gcd_poly(a: list, b: list, p) -> list:
    """Greatest common divisor of two nonzero polynomials, up to a unit."""
    while b:
        a, b = b, _divmod_poly(a, b, p)[1]
    return a


def _derivative(f: list, p) -> list:
    d = len(f) - 1
    out = [c * (d - i) for i, c in enumerate(f[:-1])]
    if p is not None:
        out = [c % p for c in out]
    while out and not out[0]:
        out.pop(0)
    return out


def _rref(rows: List[list], p) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form of raw rows (modified in place) and pivots."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # rows r and below vanish left of column c, so only the tail changes
        inv = _inv(rows[r][c], p)
        tail = rows[r][c:]
        tail = [x * inv for x in tail] if p is None else [x * inv % p for x in tail]
        rows[r] = rows[r][:c] + tail
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = rows[i][:c] + _axpy(rows[i][c:], rows[i][c], tail, p)
        pivots.append(c)
        r += 1
    return rows, pivots


# -- kernels, spans, determinants -------------------------------------------------


def kernel_basis(mat: Matrix, spec: FieldSpec) -> List[Vector]:
    """Basis of the null space of mat, deterministic order.

    One vector per free column of the reduced row echelon form, which
    depends only on the null space, so equal kernels give equal bases.
    """
    if not mat:
        return []
    p = spec.p
    ncols = len(mat[0])
    rows, pivots = _rref([[x.value for x in row] for row in mat], p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    zero, one = spec.zero(), spec.one()
    basis = []
    for free in free_cols:
        vec = [zero] * ncols
        vec[free] = one
        for r, pc in enumerate(pivots):
            x = rows[r][free]
            if x:
                vec[pc] = FieldElement(spec, -x if p is None else -x % p)
        basis.append(vec)
    return basis


def span_basis(vectors: List[Vector], spec: FieldSpec) -> SpanBasis:
    """The reduced row echelon basis of span(vectors), for repeated
    membership tests with ``in_span``: one (pivot column, [(column, raw
    value), ...]) pair per row, listing the row's nonzero entries."""
    rows, pivots = _rref([[x.value for x in v] for v in vectors], spec.p)
    return [(c, [(j, x) for j, x in enumerate(row) if x]) for c, row in zip(pivots, rows)]


def in_span(basis: SpanBasis, target: Vector, spec: FieldSpec) -> bool:
    """True when target lies in the span described by ``span_basis``.

    Each echelon row clears its pivot column of the target; the target
    is in the span exactly when nothing is left.
    """
    p = spec.p
    rest = [x.value for x in target]
    for pivot, row in basis:
        f = rest[pivot]
        if f:
            for j, x in row:
                rest[j] = rest[j] - f * x if p is None else (rest[j] - f * x) % p
    return not any(rest)


def det(mat: Matrix, spec: FieldSpec) -> FieldElement:
    n = len(mat)
    rows = [row[:] for row in mat]
    result = spec.one()
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return spec.zero()
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result = result * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                factor = rows[i][c] * inv
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[c])]
    return result


# -- characteristic polynomial and its roots ----------------------------------------


def char_poly(mat: Matrix, spec: FieldSpec) -> List[FieldElement]:
    """Coefficients [1, c1, ..., cn] of det(tI - A), leading first.

    Valid in every characteristic, with O(n^3) field operations and no
    division by integers: A is brought to upper Hessenberg form H by
    similarity transforms, then (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9) the characteristic polynomials
    p_m of the leading m x m blocks of H satisfy p_0 = 1 and

        p_m = (t - h_mm) p_(m-1) - sum_(i<m) h_im (h_(i+1)i ... h_m(m-1)) p_(i-1).
    """
    p = spec.p
    n = len(mat)
    h = [[x.value for x in row] for row in mat]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = _inv(h[m][m - 1], p)
        for j in range(m + 1, n):
            u = h[j][m - 1] * inv if p is None else h[j][m - 1] * inv % p
            if not u:
                continue
            # row_j -= u row_m, then column_m += u column_j keeps it similar
            h[j] = _axpy(h[j], u, h[m], p)
            for row in h:
                row[m] = row[m] + u * row[j] if p is None else (row[m] + u * row[j]) % p
    zero, one = spec.zero().value, spec.one().value
    polys = [[one]]  # p_m, lowest coefficient first
    for m in range(n):
        prev = polys[m]
        new = [zero] + prev
        for k, c in enumerate(prev):
            new[k] -= h[m][m] * c
        chain = one
        for i in range(m - 1, -1, -1):
            chain = chain * h[i + 1][i] if p is None else chain * h[i + 1][i] % p
            if not chain:
                break
            coef = h[i][m] * chain
            if coef:
                for k, c in enumerate(polys[i]):
                    new[k] -= coef * c
        if p is not None:
            new = [c % p for c in new]
        polys.append(new)
    return [FieldElement(spec, c) for c in reversed(polys[n])]


def root_multiplicity(coeffs: List[FieldElement], root: FieldElement) -> int:
    """How often t - root divides the polynomial, by synthetic division."""
    linear = [root.spec.one().value, (-root).value]
    work = [c.value for c in coeffs]
    m = 0
    while len(work) > 1:
        quot, rem = _divmod_poly(work, linear, root.spec.p)
        if rem:
            break
        work, m = quot, m + 1
    return m


def _squarefree_integer(f: List[Fraction]) -> List[int]:
    """Primitive integer polynomial with the distinct roots of f, all simple."""
    g = _gcd_poly(f, _derivative(f, None), None)
    if len(g) > 1:
        f = _divmod_poly(f, g, None)[0]
    den = lcm(*(c.denominator for c in f))
    ints = [c.numerator * (den // c.denominator) for c in f]
    content = gcd(*ints)
    return [c // content for c in ints]


def _separable_prime(g: List[int]) -> int:
    """Least prime dividing neither the leading coefficient nor the
    discriminant of g, i.e. keeping g's degree and squarefreeness mod p."""
    p = 1
    while True:
        p += 1
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)) or g[0] % p == 0:
            continue
        gp = [c % p for c in g]
        dg = _derivative(gp, p)
        if dg and len(_gcd_poly(gp, dg, p)) == 1:
            return p


def _reconstruct(a: int, modulus: int, num_bound: int) -> Optional[Fraction]:
    """r/s with r = s*a mod modulus and |r| <= num_bound, by the extended
    Euclidean algorithm stopped at the first remainder within the bound
    (von zur Gathen & Gerhard, Modern Computer Algebra, Thm. 5.26)."""
    r0, r1, s0, s1 = modulus, a, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return Fraction(r1, s1) if s1 else None


def rational_roots(coeffs: List[FieldElement]) -> List[FieldElement]:
    """All rational roots of a polynomial over Q, ascending.

    The factor t^k gives the root 0.  The rest is replaced by g, its
    squarefree part with denominators cleared: a primitive integer
    polynomial with the same nonzero roots, each simple.  For the least
    prime p dividing neither lead(g) nor disc(g), g mod p keeps its
    degree and has only simple roots.  Each root mod p, found by Horner
    evaluation, is Hensel-lifted to a root mod p^k > 2 |lead(g)| |g(0)|
    by Newton steps, and rational reconstruction turns that into the
    only candidate r/s with |r| <= |g(0)| and |s| <= |lead(g)| in that
    residue class.  A candidate is kept only if it is an exact root.

    Complete: a rational root r/s in lowest terms has r | g(0) and
    s | lead(g), so s is a unit mod p and r/s reduces to a root of g mod
    p.  That root is simple, so it lifts uniquely, the lift is r/s mod
    p^k, and reconstruction returns r/s.
    """
    spec = coeffs[0].spec
    work = [c.value for c in coeffs]
    roots = []
    if len(work) > 1 and work[-1] == 0:
        roots.append(Fraction(0))
        while work[-1] == 0:
            work.pop()
    if len(work) > 1:
        g = _squarefree_integer(work)
        dg = _derivative(g, None)
        p = _separable_prime(g)
        bound = 2 * abs(g[0]) * abs(g[-1])
        for a in range(p):
            if _horner(g, a, p):
                continue
            modulus = p
            while modulus <= bound:
                modulus *= modulus
                a = (a - _horner(g, a, modulus) * pow(_horner(dg, a, modulus), -1, modulus)) % modulus
            cand = _reconstruct(a, modulus, abs(g[-1]))
            if cand is not None and _horner(work, cand, None) == 0:
                roots.append(cand)
    return [spec.from_fraction(r) for r in sorted(roots)]


def roots(coeffs: List[FieldElement]) -> List[FieldElement]:
    """All roots in the field, ascending: ``rational_roots`` over Q, and
    Horner evaluation at every element over GF(p) for p up to the cap."""
    spec = coeffs[0].spec
    p = spec.p
    if p is None:
        return rational_roots(coeffs)
    if p > _ROOT_SCAN_CAP:
        raise SearchBudgetExceeded(f"root enumeration over GF({p}) is beyond desk scale")
    raw = [c.value for c in coeffs]
    return [FieldElement(spec, v) for v in range(p) if not _horner(raw, v, p)]
