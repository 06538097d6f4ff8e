"""Exact dense linear algebra on raw values.

Every function takes and returns raw values only: Fractions over Q and
ints reduced mod p over GF(p), with ``p`` None standing for Q.  Callers
build FieldElements, if they need them, from the results.  Small
matrices only (desk scale).  Matrices are lists of rows; column j of an
operator matrix holds the image of the j-th basis vector.  Polynomials
are coefficient lists, leading coefficient first.

Kernels come from the reduced row echelon form, as sparse vectors in a
form that makes span membership a matter of clearing leads, and the
eigenvector of a simple diagonal entry of a triangular matrix comes in
the same form by substitution; the characteristic polynomial from a
Hessenberg reduction, in every characteristic; determinants, kept as an
independent check of it, from Gaussian elimination.

``roots``, the one root routine, serves the grading and the coefficient
solver alike: t^k and a linear rest in closed form in both fields, a
longer rest by gcd(f, t^p - t) and equal-degree splitting over GF(p),
for primes of any size, and over Q by the same splitting mod a small
prime, p-adic lifting and rational reconstruction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, Optional, Tuple

Matrix = List[list]
# kernel vectors as (lead, {column: raw value}), zero entries left out
Basis = List[Tuple[int, Dict[int, object]]]


# -- raw-value helpers ------------------------------------------------------------


def _zero_one(p):
    """The raw 0 and 1: Fractions over Q, ints mod p."""
    return (Fraction(0), Fraction(1)) if p is None else (0, 1)


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


# -- matrices, kernels, determinants ----------------------------------------------


def _mat_mul(a: Matrix, b: Matrix, p) -> Matrix:
    zero = _zero_one(p)[0]
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [zero] * m
        for c, brow in zip(row, b):
            if c:
                acc = _axpy(acc, -c, brow, p)
        out.append(acc)
    return out


def mat_pow(a: Matrix, k: int, p) -> Matrix:
    result = None
    base = a
    while k > 0:
        if k & 1:
            result = [row[:] for row in base] if result is None else _mat_mul(result, base, p)
        k >>= 1
        if k:
            base = _mat_mul(base, base, p)
    if result is None:
        zero, one = _zero_one(p)
        return [[one if i == j else zero for j in range(len(a))] for i in range(len(a))]
    return result


def kernel_basis(mat: Matrix, p) -> Basis:
    """Basis of the null space of mat, deterministic order.

    One vector per free column c of the reduced row echelon form, as the
    pair (c, {column: raw value}) with zero entries left out.  Each
    vector is 1 at its own lead c and 0 at the other leads, and the basis
    depends only on the null space, so equal kernels give equal bases.
    """
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = _rref(list(mat), p)
    pivot_set = set(pivots)
    one = _zero_one(p)[1]
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        vec = {free: one}
        for r, pc in enumerate(pivots):
            x = rows[r][free]
            if x:
                vec[pc] = -x if p is None else -x % p
        basis.append((free, vec))
    return basis


def triangular_eigenvector(mat: Matrix, i: int, lower: bool, p) -> Tuple[int, Dict[int, object]]:
    """The eigenvector of a triangular matrix for its diagonal entry i, a
    simple eigenvalue, in ``kernel_basis`` form, by substitution.

    Row j of (A - lam) v = 0 gives v_j = (sum of a_jk v_k over k past j
    toward i) / (lam - a_jj), a_jj != lam when j != i.  From v_i = 1,
    forward substitution (lower) fills j > i and backward substitution
    (upper) fills j < i; the other coordinates vanish.  The lead is the
    largest index of the support, where the vector is scaled to 1: the
    first column of A - lam that depends on the ones before it.
    """
    lam = mat[i][i]
    zero, one = _zero_one(p)
    v = [zero] * len(mat)
    v[i] = one
    for j in range(i + 1, len(mat)) if lower else range(i - 1, -1, -1):
        row = mat[j]
        s = sum(row[k] * v[k] for k in (range(i, j) if lower else range(j + 1, i + 1)) if row[k])
        if s:
            v[j] = s / (lam - row[j]) if p is None else s * pow(lam - row[j], -1, p) % p
    lead = max(j for j, x in enumerate(v) if x)
    inv = _inv(v[lead], p)
    vec = {lead: one}
    for j, x in enumerate(v):
        if x and j != lead:
            vec[j] = x * inv if p is None else x * inv % p
    return lead, vec


def in_span(basis: Basis, target: Dict[int, object], p) -> bool:
    """True when the sparse vector target lies in the span of a basis in
    ``kernel_basis`` form.

    A combination of the basis vectors has its coefficient on each vector
    at that vector's lead, so subtracting target[lead] times every vector
    leaves nothing exactly when target is in the span.
    """
    rest = dict(target)
    for lead, vec in basis:
        f = rest.get(lead)
        if f:
            for j, x in vec.items():
                y = rest.get(j, 0) - f * x
                rest[j] = y if p is None else y % p
    return not any(rest.values())


def det(mat: Matrix, p):
    """Determinant by Gaussian elimination."""
    n = len(mat)
    rows = list(mat)
    zero, result = _zero_one(p)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        pivot = rows[c][c]
        result = result * pivot if p is None else result * pivot % p
        inv = _inv(pivot, p)
        for i in range(c + 1, n):
            if rows[i][c]:
                rows[i] = _axpy(rows[i], rows[i][c] * inv, rows[c], p)
    return result if p is None else result % p


# -- characteristic polynomial and its roots ----------------------------------------


def char_poly(mat: Matrix, p) -> list:
    """Coefficients [1, c1, ..., cn] of det(tI - A), leading first.

    Valid in every characteristic, with O(n^3) field operations and no
    division by integers: A is brought to upper Hessenberg form H by
    similarity transforms, then (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9) the characteristic polynomials
    p_m of the leading m x m blocks of H satisfy p_0 = 1 and

        p_m = (t - h_mm) p_(m-1) - sum_(i<m) h_im (h_(i+1)i ... h_m(m-1)) p_(i-1).
    """
    n = len(mat)
    h = [list(row) for row in mat]
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
    zero, one = _zero_one(p)
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
    return polys[n][::-1]


def root_multiplicity(coeffs: list, root, p) -> int:
    """How often t - root divides the polynomial, by synthetic division."""
    linear = [1, -root if p is None else -root % p]
    work = list(coeffs)
    m = 0
    while len(work) > 1:
        quot, rem = _divmod_poly(work, linear, p)
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


def rational_roots(coeffs: list) -> List[Fraction]:
    """All rational roots of a polynomial over Q, ascending.

    A factor t^k or a rest of degree 1 goes to ``roots``.  Any other
    polynomial is replaced by g, its squarefree part with denominators
    cleared: a primitive integer polynomial with the same roots, each
    simple.  For the least prime p dividing neither lead(g) nor disc(g),
    g mod p keeps its degree and has only simple roots.  Each root mod p,
    from ``_prime_roots``, is Hensel-lifted to a root mod
    p^k > 2 |lead(g)| |g(0)| by Newton steps, and rational reconstruction
    turns that into the only candidate r/s with |r| <= |g(0)| and
    |s| <= |lead(g)| in that residue class.  A candidate is kept only if
    it is an exact root.

    Complete: a rational root r/s in lowest terms has r | g(0) and
    s | lead(g), so s is a unit mod p and r/s reduces to a root of g mod
    p.  That root is simple, so it lifts uniquely, the lift is r/s mod
    p^k, and reconstruction returns r/s.
    """
    if len(coeffs) < 3 or not coeffs[-1]:
        return roots(coeffs, None)  # t^k and a linear rest in closed form
    g = _squarefree_integer(coeffs)
    dg = _derivative(g, None)
    p = _separable_prime(g)
    bound = 2 * abs(g[0]) * abs(g[-1])
    found = []
    for a in _prime_roots([c % p for c in g], p):
        modulus = p
        while modulus <= bound:
            modulus *= modulus
            a = (a - _horner(g, a, modulus) * pow(_horner(dg, a, modulus), -1, modulus)) % modulus
        cand = _reconstruct(a, modulus, abs(g[-1]))
        if cand is not None and _horner(coeffs, cand, None) == 0:
            found.append(cand)
    return sorted(found)


def _power_mod(s: int, e: int, k: int, f: list, p: int) -> list:
    """(t + s)^e - t^k mod f over GF(p), squaring from the top bit of e."""
    r = [1]
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(r) - 1)
        for i, x in enumerate(r):
            for j, y in enumerate(r):
                sq[i + j] += x * y
        if bit == "1":  # times t + s
            sq = [a + s * b for a, b in zip(sq + [0], [0] + sq)]
        r = _divmod_poly([c % p for c in sq], f, p)[1]
    r = [0] * (k + 1 - len(r)) + r
    r[-1 - k] -= 1
    return _divmod_poly([c % p for c in r], f, p)[1]


def _prime_roots(f: list, p: int, s: Optional[int] = None) -> List[int]:
    """The distinct roots in GF(p) of f, reduced with a nonzero lead.

    GF(2) has its two elements tried.  For p odd, g = gcd(f, t^p - t) is
    the product of t - r over the distinct roots r.  Equal-degree
    splitting (Cantor-Zassenhaus; von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 14) takes gcd(g, (t + s)^((p-1)/2) - 1), the
    t - r with r + s a nonzero square, for the shifts s = 0, 1, ... in
    turn, not at random.  Some s < p separates any r != r', or the nonzero
    squares would be closed under adding r - r'; the shifts before s
    separate no two roots of a factor, so each factor goes on from s + 1.
    """
    if p == 2:
        return [v for v in (0, 1) if not _horner(f, v, 2)]
    if s is None:
        f, s = _gcd_poly(f, _power_mod(0, p, 1, f, p), p), 0
    while len(f) > 2:
        h = _gcd_poly(f, _power_mod(s, p // 2, 0, f, p), p)
        s += 1
        if 1 < len(h) < len(f):
            return _prime_roots(h, p, s) + _prime_roots(_divmod_poly(f, h, p)[0], p, s)
    return [-f[1] * pow(f[0], -1, p) % p] if len(f) == 2 else []


def roots(coeffs: list, p) -> list:
    """All roots in the field, ascending, of a nonzero polynomial: in both
    fields t^k gives the root 0 and a linear rest is solved in closed form;
    a longer rest goes to ``rational_roots`` over Q, to ``_prime_roots``
    over GF(p), p of any size."""
    work = list(coeffs) if p is None else [c % p for c in coeffs]
    while work and not work[0]:
        work.pop(0)
    found = []
    if len(work) > 1 and not work[-1]:
        found.append(_zero_one(p)[0])
        while not work[-1]:
            work.pop()
    if len(work) == 2:
        found.append(Fraction(-work[1]) / work[0] if p is None else -work[1] * pow(work[0], -1, p) % p)
    elif len(work) > 2:
        found += rational_roots(work) if p is None else _prime_roots(work, p)
    return sorted(found)
