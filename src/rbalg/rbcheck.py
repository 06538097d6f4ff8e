"""The Rota-Baxter identity and structural probes built on it.

A linear operator R on a commutative algebra is a Rota-Baxter operator
of weight w when

    R(u) R(v) = R( R(u) v + u R(v) + w u v )

holds for all u, v.  Everything here evaluates that identity exactly:
``rb_residual`` computes the left-minus-right polynomial for one pair
of monomials, ``rb_check`` sweeps all pairs within a degree budget on
raw values, and ``rb_power_check`` /
``rb_multi_residual`` evaluate the iterated weight-zero consequences

    (R(u))^k = k R(u (R(u))^{k-1})
    R(u_1)...R(u_k) = R( sum_i R(u_1)...u_i...R(u_k) ).

``rb_check`` decides each pair with one of two kernels, chosen by the
operator's type and its algebra's truncation.  A monomial table on a
truncated algebra -- every table a search re-verifies -- is read on the
indices of ``AlgebraSpec.basis_index`` (``_index_test``); dense
operators, and tables on untruncated algebras, are read from
``raw_images()`` on exponent tuples (``_pair_test``).  Both give the same
verdicts, skips and errors, and ``rb_residual`` reports the violation.
Over Q both run on ints: ``_on_integers`` clears the denominators of the
coefficients and the weight, which scales each side of the identity by
the same square.

Kernel/image extraction and the unit-image classification for unital
algebras of nonzero weight round out the structural checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import add
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import MixedFieldSpecs, NonzeroWeight
from .fields import FieldElement
from .operators import LinearOperator, MonomialOperatorTable
from .poly import BasisIndex, Monomial, Polynomial


@dataclass(frozen=True)
class RBViolation:
    """A monomial pair whose Rota-Baxter residual is nonzero."""

    u: Monomial
    v: Monomial
    residual: Polynomial

    def to_json_dict(self) -> dict:
        return {
            "u": list(self.u.exponents),
            "v": list(self.v.exponents),
            "residual": self.residual.to_json_terms(),
        }


@dataclass(frozen=True)
class CheckReport:
    checked_pairs: int
    violation: Optional[RBViolation]
    skipped_pairs: int = 0  # pairs whose evaluation leaves the operator's domain

    @property
    def passed(self) -> bool:
        return self.violation is None

    def to_json_dict(self) -> dict:
        out = {
            "status": "pass" if self.passed else "fail",
            "checked_pairs": self.checked_pairs,
        }
        if self.skipped_pairs:
            out["skipped_pairs"] = self.skipped_pairs
        if self.violation is not None:
            out["violation"] = self.violation.to_json_dict()
        return out


def rb_residual(
    R: LinearOperator, u: Monomial, v: Monomial, weight: FieldElement
) -> Polynomial:
    """R(u)R(v) - R(R(u)v + uR(v) + weight*uv), exact."""
    algebra = R.algebra
    pu = Polynomial.monomial(algebra, u)
    pv = Polynomial.monomial(algebra, v)
    Ru = R.apply_monomial(u)
    Rv = R.apply_monomial(v)
    inner = Ru * pv + pu * Rv + (pu * pv).scale(weight)
    return Ru * Rv - R.apply(inner)


def _on_integers(w, coefs: list) -> tuple:
    """A weight and coefficients over Q as ints: each times L, the lcm of
    their denominators.  L*R is a Rota-Baxter operator of weight L*w
    exactly when R is one of weight w, since both sides of the identity
    scale by L^2, and scaling moves no zero: the verdicts are the same."""
    L = math.lcm(w.denominator, *(c.denominator for c in coefs))
    return w.numerator * (L // w.denominator), [c.numerator * (L // c.denominator) for c in coefs]


def _pair_test(R: LinearOperator, weight: FieldElement, top: int) -> Iterator[tuple]:
    """(u, v, verdict) for each pair of ``rb_check``'s window, in its order,
    with top = min(degree, truncation): the kernel of dense operators and of
    tables on untruncated algebras, and the reference of ``_index_test``.

    The residual is formed on ints (over Q, after ``_on_integers``; over
    GF(p), reduced only at zero tests) from ``R.raw_images()``, truncated
    and cancelled where ``rb_residual`` does.  The verdict is True if it
    vanishes, False if not, and None if an inner term lies above the bound,
    outside R's domain; arguments above the bound raise
    ``DegreeBoundExceeded``, as in ``rb_residual``.
    """
    algebra, bound, w = R.algebra, R.degree_bound, weight.value
    trunc = algebra.truncation or math.inf
    p = algebra.field.p
    nonzero = bool if p is None else (lambda c: c % p)
    images = R.raw_images()
    if p is None:
        w, coefs = _on_integers(w, [c for image in images.values() for _, _, c in image])
        scaled = iter(coefs)
        images = {s: [(t, dt, next(scaled)) for t, dt, _ in image] for s, image in images.items()}
    basis = list(algebra.basis(top))
    for i, u in enumerate(basis):
        for v in basis[i:]:
            eu, ev = u.exponents, v.exponents
            du, dv = sum(eu), sum(ev)
            if du + dv > top and algebra.truncation is None:
                continue
            if du > bound or dv > bound:
                R.apply_monomial(u if du > bound else v)  # raises DegreeBoundExceeded
            Ru, Rv = images.get(eu, ()), images.get(ev, ())
            inner = {}  # R(u)v + uR(v) + w uv
            for image, e, d in ((Ru, ev, dv), (Rv, eu, du)):
                for t, dt, c in image:
                    if dt + d <= trunc:
                        m = tuple(map(add, t, e))
                        inner[m] = inner.get(m, 0) + c
            if w and du + dv <= trunc:
                m = tuple(map(add, eu, ev))
                inner[m] = inner.get(m, 0) + w
            residual = {}
            for m1, d1, c1 in Ru:
                for m2, d2, c2 in Rv:
                    if d1 + d2 <= trunc:
                        m = tuple(map(add, m1, m2))
                        residual[m] = residual.get(m, 0) + c1 * c2
            verdict = True
            for m, c in inner.items():
                if nonzero(c):
                    if sum(m) > bound:
                        verdict = None
                        break
                    for t, _, ct in images.get(m, ()):
                        residual[t] = residual.get(t, 0) - c * ct
            yield u, v, verdict and not any(map(nonzero, residual.values()))


def _index_verdicts(index: BasisIndex, size: int, bound: int, tgt, coef, w, p) -> Iterator[tuple]:
    """(u, v, verdict) for the pairs of monomials at positions i <= j < size
    of index, in order: the identity for the table with tgt[i], the position
    of the target of monomial i (-1 for none), and coef[i], its raw value,
    at raw weight w.  A pair has at most four terms, t_i t_j on the left and
    t_i j, i t_j and w i j inside, each a ``mul`` lookup that is None where
    the product vanishes above the truncation.  The verdict is None when a
    nonzero inner term lies above the bound.

    Only sums, products and zero tests (``bool`` over Q, ``% p`` over
    GF(p)) touch the values, so any ring type that has them serves: the
    ints of ``rb_check`` and the search's Laurent polynomials in its seeds.
    """
    monos, _, deg, mul = index
    nonzero = bool if p is None else (lambda c: c % p)
    for i in range(size):
        ti, ci, row = tgt[i], coef[i], mul[i]
        trow = mul[ti] if ti >= 0 else None
        for j in range(i, size):
            tj, cj = tgt[j], coef[j]
            if trow is None and tj < 0 and not w:  # no term at all
                yield monos[i], monos[j], True
                continue
            inner = {}  # R(u)v + uR(v) + w uv
            if trow is not None and (k := trow[j]) is not None:
                inner[k] = ci
            if tj >= 0 and (k := row[tj]) is not None:
                inner[k] = inner.get(k, 0) + cj
            if w and (k := row[j]) is not None:
                inner[k] = inner.get(k, 0) + w
            residual = {}
            if trow is not None and tj >= 0 and (k := trow[tj]) is not None:
                residual[k] = ci * cj
            verdict = True
            for k, c in inner.items():
                if nonzero(c):
                    if deg[k] > bound:
                        verdict = None
                        break
                    if (tk := tgt[k]) >= 0:
                        residual[tk] = residual.get(tk, 0) - c * coef[k]
            yield monos[i], monos[j], verdict and not any(map(nonzero, residual.values()))


def _index_test(R: MonomialOperatorTable, weight: FieldElement, top: int) -> Iterator[tuple]:
    """``_pair_test`` of a monomial table on a truncated algebra, on the
    indices of ``algebra.basis_index``: the same verdicts and errors.

    The table is read once into ``_index_verdicts``'s tgt and coef (over Q
    scaled by ``_on_integers``), and its window is the basis prefix up to
    degree top.
    """
    algebra = R.algebra
    index = algebra.basis_index
    monos, position, deg, _ = index
    tgt, coef = [-1] * len(monos), [0] * len(monos)
    for src, (c, dst) in R.entries.items():
        i = position[src.exponents]
        tgt[i], coef[i] = position[dst.exponents], c.value
    w, p = weight.value, algebra.field.p
    if p is None:
        w, coef = _on_integers(w, coef)
    size, within = bisect_right(deg, top), bisect_right(deg, R.degree_bound)
    pairs = _index_verdicts(index, size, R.degree_bound, tgt, coef, w, p)
    if size <= within:
        yield from pairs
    else:  # the pairs (0, j) before the first argument above the bound, then its error
        yield from islice(pairs, within)
        R.apply_monomial(monos[within])  # raises DegreeBoundExceeded


def rb_check(R: LinearOperator, weight: FieldElement, degree: int) -> CheckReport:
    """Exhaustive pairwise verification within a degree budget.

    On an untruncated algebra the pairs (u, v) with u <= v and
    deg(u) + deg(v) <= degree are checked; on a truncated algebra all
    basis pairs up to min(degree, truncation) are (the identity is then
    verified in the quotient).  Pairs are visited in canonical order, so
    the reported first violation is deterministic.

    Each pair is decided on raw values: a monomial table on a truncated
    algebra by ``_index_test``, on basis indices, and every other operator
    by ``_pair_test``, on exponent tuples.  A pair on which ``rb_residual``
    would apply R above its bound is skipped (``skipped_pairs``);
    arguments above the bound raise ``DegreeBoundExceeded``, a weight from
    another field raises ``MixedFieldSpecs`` and a degree below 0
    ``ValueError``.  ``rb_residual`` stays the reference: it reports the
    violation.
    """
    algebra = R.algebra
    if weight.spec != algebra.field:
        raise MixedFieldSpecs(f"cannot mix {algebra.field} with {weight.spec}")
    if degree < 0:
        raise ValueError(f"check degree must be >= 0, got {degree}")
    truncated = algebra.truncation is not None
    top = min(degree, algebra.truncation) if truncated else degree
    kernel = _index_test if truncated and isinstance(R, MonomialOperatorTable) else _pair_test
    checked = skipped = 0
    for u, v, verdict in kernel(R, weight, top):
        if verdict is None:
            skipped += 1
            continue
        checked += 1
        if not verdict:
            return CheckReport(checked, RBViolation(u, v, rb_residual(R, u, v, weight)), skipped)
    return CheckReport(checked, None, skipped)


def rb_power_check(R: LinearOperator, w: Monomial, k: int) -> Polynomial:
    """Residual of (R(w))^k - k R(w (R(w))^{k-1}); zero means pass.

    Only meaningful at weight zero, where the identity follows from the
    Rota-Baxter relation; the operator's stored weight is enforced.
    """
    if not R.weight.is_zero():
        raise NonzeroWeight("the iterated power identity needs weight zero")
    if k < 2:
        raise ValueError("need k >= 2")
    algebra = R.algebra
    pw = Polynomial.monomial(algebra, w)
    Rw = R.apply_monomial(w)
    lhs = Rw**k
    rhs = R.apply(pw * Rw ** (k - 1)).scale(algebra.field.from_int(k))
    return lhs - rhs


def rb_multi_residual(R: LinearOperator, monomials: Sequence[Monomial]) -> Polynomial:
    """Residual of the k-ary weight-zero identity on distinct arguments.

    Prod_i R(u_i) minus R of the sum over i of the products with the
    i-th factor left bare.
    """
    if not R.weight.is_zero():
        raise NonzeroWeight("the iterated identity needs weight zero")
    if len(monomials) < 2:
        raise ValueError("need at least two arguments")
    algebra = R.algebra
    images = [R.apply_monomial(m) for m in monomials]
    lhs = images[0]
    for im in images[1:]:
        lhs = lhs * im
    inner = Polynomial.zero(algebra)
    for i, m in enumerate(monomials):
        piece = Polynomial.monomial(algebra, m)
        for j, im in enumerate(images):
            if j != i:
                piece = piece * im
        inner = inner + piece
    return lhs - R.apply(inner)


@dataclass(frozen=True)
class KernelImage:
    """Monomial-kernel part plus collision differences, and distinct targets."""

    kernel: Tuple[Polynomial, ...]
    image: Tuple[Tuple[Monomial, FieldElement], ...]


def op_kernel_image(R: MonomialOperatorTable, degree: Optional[int] = None) -> KernelImage:
    """Kernel and image bases of a monomial table on the bounded basis.

    Monomiality makes this exact linear algebra trivial: zero-image
    monomials span most of the kernel, and each target monomial hit by
    several sources contributes pairwise difference vectors.
    """
    algebra = R.algebra
    top = R.degree_bound if degree is None else min(degree, R.degree_bound)
    kernel: List[Polynomial] = []
    by_target = {}
    for m in algebra.basis(top):
        hit = R.entries.get(m)
        if hit is None:
            kernel.append(Polynomial.monomial(algebra, m))
        else:
            coeff, dst = hit
            by_target.setdefault(dst, []).append((m, coeff))
    image = []
    for dst in sorted(by_target, key=lambda t: t.sort_key()):
        sources = by_target[dst]
        image.append((dst, sources[0][1]))
        for (m1, c1), (m2, c2) in zip(sources, sources[1:]):
            diff = Polynomial(algebra, {m1: c2, m2: -c1})
            kernel.append(diff)
    kernel.sort(key=lambda p: p.terms()[0][0].sort_key())
    return KernelImage(tuple(kernel), tuple(image))


class UnitImageKind(Enum):
    SPLITTING_ZERO = "splitting_zero"
    SPLITTING_MINUS_LAMBDA = "splitting_minus_lambda"
    VIOLATION = "violation"


@dataclass(frozen=True)
class UnitConstraintResult:
    kind: UnitImageKind
    witness: Optional[Polynomial] = None


def check_unit_constraint(
    R: MonomialOperatorTable, weight: FieldElement
) -> UnitConstraintResult:
    """Classify R(1) for a monomial operator of nonzero weight.

    On a unital algebra a Rota-Baxter operator of weight w with scalar
    R(1) must have R(1) in {0, -w}.  A non-scalar R(1) = a*x^k is
    impossible for monomial operators: the pair (1, 1) forces

        2a R(x^k) = R(1)^2 - w R(1) = a^2 x^{2k} - w a x^k,

    a two-term polynomial, contradicting monomiality.  That forced
    right-hand side is returned as the witness.
    """
    algebra = R.algebra
    if not algebra.unital:
        raise ValueError("unit constraint applies to unital algebras")
    if weight.is_zero():
        raise ValueError("unit constraint applies to nonzero weight")
    one_mono = algebra.one_monomial()
    hit = R.entries.get(one_mono)
    if hit is None:
        return UnitConstraintResult(UnitImageKind.SPLITTING_ZERO)
    coeff, dst = hit
    if dst == one_mono:
        if coeff == -weight:
            return UnitConstraintResult(UnitImageKind.SPLITTING_MINUS_LAMBDA)
        # residual of the pair (1, 1): -c(c + w) * 1, nonzero here
        witness = Polynomial.monomial(algebra, one_mono, -coeff * (coeff + weight))
        return UnitConstraintResult(UnitImageKind.VIOLATION, witness)
    witness = Polynomial(
        algebra,
        {dst * dst: coeff * coeff, dst: -(weight * coeff)},
    )
    return UnitConstraintResult(UnitImageKind.VIOLATION, witness)
