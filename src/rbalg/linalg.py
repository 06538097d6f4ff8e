"""Exact dense linear algebra over a FieldSpec.

Small matrices only (desk scale): Gaussian elimination for kernels,
membership and determinants, matrix powers by repeated squaring, the
characteristic polynomial by the trace recurrence (characteristic zero
only), and rational root extraction for spectra over the rationals.
Matrices are lists of rows of FieldElement; column j of an operator
matrix holds the image of the j-th basis vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import List, Optional

from .fields import FieldElement, FieldSpec

Matrix = List[List[FieldElement]]
Vector = List[FieldElement]


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
    result = identity_matrix(spec, len(a))
    base = a
    while k > 0:
        if k & 1:
            result = mat_mul(result, base, spec)
        base = mat_mul(base, base, spec)
        k >>= 1
    return result


def mat_sub_scalar_identity(a: Matrix, lam: FieldElement) -> Matrix:
    out = [row[:] for row in a]
    for i in range(len(a)):
        out[i][i] = out[i][i] - lam
    return out


def _row_reduce(mat: Matrix, spec: FieldSpec):
    """Reduced row echelon form (in place on a copy) plus pivot columns."""
    rows = [row[:] for row in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_basis(mat: Matrix, spec: FieldSpec) -> List[Vector]:
    """Basis of the null space of mat, deterministic order."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = _row_reduce(mat, spec)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    zero, one = spec.zero(), spec.one()
    basis = []
    for free in free_cols:
        vec = [zero] * ncols
        vec[free] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][free]
        basis.append(vec)
    return basis


def rank(mat: Matrix, spec: FieldSpec) -> int:
    if not mat:
        return 0
    _, pivots = _row_reduce(mat, spec)
    return len(pivots)


def in_span(vectors: List[Vector], target: Vector, spec: FieldSpec) -> bool:
    """True when target lies in the span of the given vectors."""
    if all(x.is_zero() for x in target):
        return True
    if not vectors:
        return False
    cols = [list(v) for v in vectors]
    mat = [[col[i] for col in cols] for i in range(len(target))]
    augmented = [mat[i] + [target[i]] for i in range(len(target))]
    return rank(mat, spec) == rank(augmented, spec)


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


def char_poly(mat: Matrix, spec: FieldSpec) -> List[FieldElement]:
    """Coefficients [1, c1, ..., cn] of det(tI - A), leading first.

    Uses the trace recurrence, which divides by 1..n, so it requires
    characteristic zero (the prime-field paths enumerate roots instead).
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


def _divisors(n: int, cap: int = 200_000) -> List[int]:
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


def rational_roots(coeffs: List[FieldElement]) -> List[FieldElement]:
    """All rational roots of a monic-leading polynomial over the rationals."""
    spec = coeffs[0].spec
    fracs = [c.value for c in coeffs]
    work = list(fracs)
    roots = set()
    while len(work) > 1 and work[-1] == 0:
        roots.add(Fraction(0))
        work = work[:-1]
    if len(work) > 1:
        denom_lcm = 1
        for f in work:
            denom_lcm = lcm(denom_lcm, f.denominator)
        ints = [int(f * denom_lcm) for f in work]
        lead, const = ints[0], ints[-1]
        for p in _divisors(const):
            for q in _divisors(lead):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if cand in roots:
                        continue
                    total = Fraction(0)
                    for c in work:
                        total = total * cand + c
                    if total == 0:
                        roots.add(cand)
    return [spec.from_fraction(r) for r in sorted(roots)]


def exact_fraction_sqrt(value: Fraction) -> Optional[Fraction]:
    """Square root of a non-negative rational if it is rational, else None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
