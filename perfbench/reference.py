"""Reference evaluator used to judge the program's outputs.

It works on raw data only: a monomial is an exponent tuple, a scalar is a
``fractions.Fraction`` (over Q, ``p is None``) or an int reduced mod p, and
a linear operator is a dict ``source -> {target: coefficient}``.  Nothing
here imports ``rbalg``, so a fault in the program's arithmetic, polynomial
or operator layers cannot hide itself by also appearing in its judge.

An algebra is described by ``Algebra(nvars, unital, truncation)``; when
``truncation`` is set, monomials of total degree above it are zero (the
quotient by the degree-(N+1) monomials).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

Mono = Tuple[int, ...]
Vec = Dict[Mono, object]
Op = Dict[Mono, Vec]


@dataclass(frozen=True)
class Algebra:
    nvars: int
    unital: bool
    truncation: Optional[int]


class Field:
    """Q when ``p`` is None, else GF(p); values are Fractions or ints."""

    def __init__(self, p: Optional[int] = None):
        self.p = p

    def norm(self, v):
        return Fraction(v) if self.p is None else v % self.p

    def inv(self, v):
        return 1 / Fraction(v) if self.p is None else pow(v, -1, self.p)


def degree(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def basis(alg: Algebra, top: int) -> List[Mono]:
    """Basis monomials of degree <= top, ordered by (degree, exponents)."""
    if alg.truncation is not None:
        top = min(top, alg.truncation)
    out = []
    for d in range(0 if alg.unital else 1, top + 1):
        out.extend(sorted(m for m in product(range(d + 1), repeat=alg.nvars) if sum(m) == d))
    return out


def _add_into(acc: Vec, m: Mono, c, F: Field) -> None:
    total = F.norm(acc.get(m, 0) + c)
    if total:
        acc[m] = total
    else:
        acc.pop(m, None)


def vec_mul(a: Vec, b: Vec, alg: Algebra, F: Field) -> Vec:
    out: Vec = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            if alg.truncation is None or degree(m) <= alg.truncation:
                _add_into(out, m, c1 * c2, F)
    return out


def vec_axpy(acc: Vec, c, v: Vec, F: Field) -> None:
    for m, x in v.items():
        _add_into(acc, m, c * x, F)


class OutsideDomain(Exception):
    """The operator was asked for a monomial above its degree bound."""


def apply(R: Op, bound: int, v: Vec, F: Field) -> Vec:
    out: Vec = {}
    for m, c in v.items():
        if degree(m) > bound:
            raise OutsideDomain(m)
        vec_axpy(out, c, R.get(m, {}), F)
    return out


def rb_residual(R: Op, bound: int, u: Mono, v: Mono, w, alg: Algebra, F: Field) -> Vec:
    """R(u)R(v) - R(R(u)v + uR(v) + w uv) for basis monomials u, v."""
    pu, pv = {u: F.norm(1)}, {v: F.norm(1)}
    Ru, Rv = apply(R, bound, pu, F), apply(R, bound, pv, F)
    inner = vec_mul(Ru, pv, alg, F)
    vec_axpy(inner, 1, vec_mul(pu, Rv, alg, F), F)
    vec_axpy(inner, w, vec_mul(pu, pv, alg, F), F)
    out = vec_mul(Ru, Rv, alg, F)
    vec_axpy(out, -1, apply(R, bound, inner, F), F)
    return out


def _stays_in_domain(R: Op, bound: int, u: Mono, v: Mono, alg: Algebra) -> bool:
    args = [mono_mul(u, v)]
    args += [mono_mul(m, v) for m in R.get(u, {})]
    args += [mono_mul(u, m) for m in R.get(v, {})]
    return all(
        degree(m) <= bound
        for m in args
        if alg.truncation is None or degree(m) <= alg.truncation
    )


def pairs(alg: Algebra, top: int) -> Iterator[Tuple[Mono, Mono]]:
    """The pairs the program's pairwise check visits, in its order."""
    mons = basis(alg, top)
    if alg.truncation is not None:
        top = min(top, alg.truncation)
    for i, u in enumerate(mons):
        for v in mons[i:]:
            if alg.truncation is None and degree(u) + degree(v) > top:
                continue
            yield u, v


def rb_verdict(R: Op, bound: int, w, alg: Algebra, F: Field, top: int, domain_only=False):
    """(checked pairs, first violation or None); a violation is (u, v, residual).

    With ``domain_only`` the pairs whose evaluation would leave the
    operator's domain are skipped instead of being evaluated.
    """
    checked = 0
    for u, v in pairs(alg, top):
        if domain_only and not _stays_in_domain(R, bound, u, v, alg):
            continue
        checked += 1
        res = rb_residual(R, bound, u, v, w, alg, F)
        if res:
            return checked, (u, v, res)
    return checked, None


# -- the associative Yang-Baxter equation ------------------------------------------


def aybe_residual(r: Dict[Tuple[Mono, Mono], object], w, F: Field) -> Dict[Tuple[Mono, Mono, Mono], object]:
    """r13 r12 - r12 r23 + r23 r13 - w r13 in A x A x A, untruncated."""
    if not r:
        return {}
    one = (0,) * len(next(iter(r))[0])
    r12 = {(a, b, one): c for (a, b), c in r.items()}
    r13 = {(a, one, b): c for (a, b), c in r.items()}
    r23 = {(one, a, b): c for (a, b), c in r.items()}

    acc: dict = {}
    for x, y, sign in ((r13, r12, 1), (r12, r23, -1), (r23, r13, 1)):
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                _add_into(acc, tuple(mono_mul(s, t) for s, t in zip(k1, k2)), sign * c1 * c2, F)
    for key, c in r13.items():
        _add_into(acc, key, -w * c, F)
    return acc


# -- spectra ---------------------------------------------------------------------


def kills(R: Op, bound: int, lam, vec: Vec, n: int, F: Field) -> bool:
    """True when (R - lam)^n sends vec to zero."""
    for _ in range(n):
        nxt = apply(R, bound, vec, F)
        vec_axpy(nxt, -lam, vec, F)
        vec = nxt
        if not vec:
            return True
    return not vec


def diagonal_spectrum(R: Op, alg: Algebra, F: Field) -> Dict[object, int]:
    """Eigenvalue -> algebraic multiplicity for an operator that is
    triangular in the (degree, exponents) order: no image of m holds a
    monomial that comes before m, so the eigenvalues are the coefficients
    of m in R(m).  Raises otherwise.
    """
    mons = basis(alg, alg.truncation)
    rank = {m: i for i, m in enumerate(mons)}
    mult: Dict[object, int] = {}
    for m in mons:
        image = R.get(m, {})
        if any(rank[t] < rank[m] for t in image):
            raise ValueError(f"operator is not triangular at {m}")
        lam = F.norm(image.get(m, 0))
        mult[lam] = mult.get(lam, 0) + 1
    return mult


# -- the paper's families, from their formulas ----------------------------------------


def weight_one_diagonal(alphas, alg: Algebra, F: Field, top: int) -> Op:
    """R(w) = prod a^i / (prod (a+1)^i - prod a^i) w on basis monomials w."""
    R: Op = {}
    for m in basis(alg, top):
        num, shifted = F.norm(1), F.norm(1)
        for a, e in zip(alphas, m):
            num = F.norm(num * a**e)
            shifted = F.norm(shifted * (a + 1) ** e)
        den = F.norm(shifted - num)
        if not den:
            raise ZeroDivisionError(f"family denominator vanishes at {m}")
        if num:
            R[m] = {m: F.norm(num * F.inv(den))}
    return R


def weight_zero_diagonal(alphas, alg: Algebra, F: Field, top: int) -> Op:
    """R(w) = w / (sum_j i_j / a_j) on basis monomials w."""
    R: Op = {}
    for m in basis(alg, top):
        total = F.norm(sum(F.norm(e * F.inv(a)) for a, e in zip(alphas, m)))
        if not total:
            raise ZeroDivisionError(f"family denominator vanishes at {m}")
        R[m] = {m: F.inv(total)}
    return R


def weight_zero_classes(m: int, classes: Dict[int, Tuple[int, object]], alg: Algebra, F: Field, top: int) -> Op:
    """R(x^(m a + b)) = q_b x^(m (a + p_b)) / (m (a + p_b)), univariate.

    Residues b run over 1..m (non-unital) or 0..m-1 (unital); a class with
    q_b = 0 is killed.  Targets above a truncation vanish.
    """
    R: Op = {}
    for (n,) in basis(alg, top):
        b = n % m if alg.unital else (n - 1) % m + 1
        a = (n - b) // m
        p, q = classes[b]
        if not q:
            continue
        target = m * (a + p)
        if alg.truncation is not None and target > alg.truncation:
            continue
        den = F.norm(target)
        if not den:
            raise ZeroDivisionError(f"family denominator vanishes at x^{n}")
        R[(n,)] = {(target,): F.norm(q * F.inv(den))}
    return R


def integral(a, alg: Algebra, F: Field, bound: int) -> Op:
    """Formal integration x^n -> (x^(n+1) - a^(n+1)) / (n+1), unital univariate."""
    R: Op = {}
    for (n,) in basis(alg, bound):
        inv = F.inv(F.norm(n + 1))
        image: Vec = {}
        _add_into(image, (n + 1,), inv, F)
        _add_into(image, (0,), -(a ** (n + 1)) * inv, F)
        R[(n,)] = image
    return R


def conjugate_by_quadratic_shift(R: Op, c, alg: Algebra, F: Field) -> Op:
    """psi^-1 R psi for the automorphism psi(x) = x + c x^2 of k0[x]/(x^(N+1))."""
    N = alg.truncation
    psi_x = {m: v for m, v in {(1,): F.norm(1), (2,): F.norm(c)}.items() if m[0] <= N}
    psi = {1: psi_x}
    for i in range(2, N + 1):
        psi[i] = vec_mul(psi[i - 1], psi_x, alg, F)
    # psi is unitriangular; invert by back substitution from the top degree
    inv: Dict[int, Vec] = {}
    for i in range(N, 0, -1):
        acc: Vec = {(i,): F.norm(1)}
        for (k,), coeff in psi[i].items():
            if k > i:
                vec_axpy(acc, -coeff, inv[k], F)
        inv[i] = acc
    out: Op = {}
    for i in range(1, N + 1):
        image = apply(R, N, psi[i], F)
        back: Vec = {}
        for (k,), coeff in image.items():
            vec_axpy(back, coeff, inv[k], F)
        if back:
            out[(i,)] = back
    return out
