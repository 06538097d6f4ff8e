"""The Rota-Baxter identity and structural probes built on it.

A linear operator R on a commutative algebra is a Rota-Baxter operator
of weight w when

    R(u) R(v) = R( R(u) v + u R(v) + w u v )

holds for all u, v.  Everything here evaluates that identity exactly:
``rb_residual`` computes the left-minus-right polynomial for one pair
of monomials, ``rb_check`` sweeps the pairs of a degree window whose
arguments lie within the operator's bound on raw values, and
``rb_power_check`` / ``rb_multi_residual`` evaluate the iterated
weight-zero consequences

    (R(u))^k = k R(u (R(u))^{k-1})
    R(u_1)...R(u_k) = R( sum_i R(u_1)...u_i...R(u_k) ).

Every check runs in one window, ``_pair_verdicts``, on raw images on the
indices of a ``BasisIndex``: the algebra's ``basis_index`` or, untruncated,
an index that grows by the monomials the window's products reach.
``rb_check`` reads R onto it (``operators.on_positions``); the searches
pass a candidate's solved values before building its table.
``_index_verdicts`` tests each pair, and ``rb_residual`` reports the
violation.  Over Q the kernel runs on ints: ``_on_integers`` clears the
denominators of the coefficients and the weight, which scales each side
of the identity by the same square.

Kernel/image extraction and the unit-image classification for unital
algebras of nonzero weight round out the structural checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import MixedFieldSpecs, NonzeroWeight
from .fields import FieldElement
from .operators import LinearOperator, MonomialOperatorTable, on_positions
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


def _index_verdicts(index: BasisIndex, size: int, span: int, bound: int, images: tuple, w, p) -> Iterator[tuple]:
    """(u, v, verdict) for the pairs of monomials at positions i <= j < size
    of index with deg i + deg j <= span, in order: the identity for the
    operator read by ``operators.on_positions`` into images, at raw weight
    w.  A pair of one-term images has at most four terms, t_i t_j on the
    left and t_i j, i t_j and w i j inside, each a ``mul`` lookup that is
    None where the product vanishes above the truncation; the other terms
    of an image add their products only to the pairs it is in.  The
    verdict is None when a nonzero inner term lies above the bound.

    Only sums, products and zero tests (``bool`` over Q, ``% p`` over
    GF(p)) touch the values, so any ring type that has them serves: the
    ints of ``rb_check`` and the search's Laurent polynomials in its seeds.
    """
    monos, _, deg, mul = index
    tgt, coef, more = images
    nonzero = bool if p is None else (lambda c: c % p)
    end, cut = size, size and span < 2 * deg[size - 1]  # cut: the window drops pairs by degree
    for i in range(size):
        if cut and (end := bisect_right(deg, span - deg[i], i, size)) <= i:
            return  # and so for every later row
        ti, ci, row = tgt[i], coef[i], mul[i]
        trow = mul[ti] if ti >= 0 else None
        for j in range(i, end):
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
            if more and (i in more or j in more):  # the terms of images beyond the first
                mi, mj = more.get(i, ()), more.get(j, ())
                for k, c in [(mul[t][j], c) for t, c in mi] + [(row[t], c) for t, c in mj]:
                    if k is not None:
                        inner[k] = inner.get(k, 0) + c
                Ri, Rj = [(ti, ci), *mi] if ti >= 0 else (), [(tj, cj), *mj] if tj >= 0 else ()
                for a, (t1, c1) in enumerate(Ri):
                    for t2, c2 in Rj[1:] if a == 0 else Rj:  # the first terms' product is in
                        if (k := mul[t1][t2]) is not None:
                            residual[k] = residual.get(k, 0) + c1 * c2
            verdict = True
            for k, c in inner.items():
                if nonzero(c):
                    if deg[k] > bound:
                        verdict = None
                        break
                    if (tk := tgt[k]) >= 0:
                        residual[tk] = residual.get(tk, 0) - c * coef[k]
                        if more and k in more:
                            for t, ct in more[k]:
                                residual[t] = residual.get(t, 0) - c * ct
            yield monos[i], monos[j], verdict and not any(map(nonzero, residual.values()))


def _pair_verdicts(algebra, bound: int, degree: int, read, w, lift: int = 0) -> Iterator[tuple]:
    """(u, v, verdict) for each pair of ``rb_check``'s window in its order,
    for an operator on algebra with the given bound and raw weight w, whose
    raw images (tgt, coef, more) read(position) puts on the window's index,
    as ``operators.on_positions`` does.  The index is the algebra's
    ``basis_index``; untruncated, a growing index that starts with the
    basis up to the highest inner term the operator can apply to, at most
    top + lift, lift the most it raises a degree on the window.  Positions of
    ``BasisIndex.of(algebra.basis(bound))`` are a prefix of it, both lists
    being in canonical degree order.  Over Q the values become ints here."""
    top = min(degree, bound)  # the window's arguments lie in the domain
    if algebra.truncation is None:
        span, index = degree, BasisIndex.of(algebra.basis(min(bound, top + lift)), grow=True)
    else:
        span, index = 2 * top, algebra.basis_index
    size = bisect_right(index.degrees, top)  # before reading appends to the index
    tgt, coef, more = read(index.position)
    p = algebra.field.p
    if p is None:  # the kernel reads coef only at positions of tgt, so the tail may stay
        w, coef = _on_integers(w, coef + [c for terms in more.values() for _, c in terms])
        rest = iter(coef[len(tgt):])
        more = {i: [(t, next(rest)) for t, _ in terms] for i, terms in more.items()}
    return _index_verdicts(index, size, span, bound, (tgt, coef, more), w, p)


def rb_check(R: LinearOperator, weight: FieldElement, degree: int) -> CheckReport:
    """Exhaustive pairwise verification within a degree budget.

    The window holds the pairs u <= v of basis monomials within R's
    degree bound: on an untruncated algebra those with
    deg(u) + deg(v) <= degree, on a truncated one all of them up to
    min(degree, bound) (the identity is then verified in the quotient).
    Pairs are visited in canonical order, so the reported first violation
    is deterministic.

    Every operator on every algebra is decided in the one window
    (``_pair_verdicts``).  A pair on which ``rb_residual`` would apply R
    above its bound is skipped (``skipped_pairs``); a weight from another
    field raises ``MixedFieldSpecs`` and a degree below 0 ``ValueError``.
    ``rb_residual``, the reference, reports the violation.
    """
    algebra = R.algebra
    if weight.spec != algebra.field:
        raise MixedFieldSpecs(f"cannot mix {algebra.field} with {weight.spec}")
    if degree < 0:
        raise ValueError(f"check degree must be >= 0, got {degree}")
    bound, lift = R.degree_bound, 0
    if algebra.truncation is None:
        lift = max([0, *(R.apply_monomial(m).degree() - m.degree() for m in algebra.basis(min(degree, bound)))])
    checked = skipped = 0
    for u, v, verdict in _pair_verdicts(algebra, bound, degree, partial(on_positions, R), weight.value, lift):
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
