"""Spectrum gradings of finite-dimensional Rota-Baxter algebras.

For an operator R on a finite-dimensional algebra with split spectrum,
A decomposes as the direct sum of generalized eigenspaces A_lam.  For
nonzero eigenvalues lam, mu the product A_lam * A_mu is constrained by
the partial products

    lam o mu = lam*mu / (lam + mu + 1)    (weight 1)
    lam * mu = lam*mu / (lam + mu)        (weight 0)

to vanish (when the partial product is undefined or falls outside the
spectrum) or to land inside A_{lam o mu} / A_{lam * mu}.  This module
computes the decomposition by exact linear algebra, classifies every
product pair, and reports violations with witnesses.

The decomposition takes one of three routes: a diagonal table's basis
monomials are its eigenvectors; a triangular matrix has its diagonal
for spectrum and its simple eigenvectors by substitution; any other
matrix has its spectrum as the roots of its characteristic polynomial.
The products are then classified a row at a time on raw keys (residues
mod p, reduced pairs (num, den) over Q): one modular inversion per row
over GF(p), no Fraction over Q unless a product leaves the spectrum, the
spectrum's own elements reused and each record built trusted.

Both partially defined operations are commutative and associative where
defined; on positive rationals they are honest semigroups, isomorphic
to multiplication on (1, oo) via x -> 1 + 1/x and to addition on
(0, oo) via x -> 1/x respectively; ``semigroup_iso_check`` verifies
those isomorphisms exactly on sample points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .construct import (
    WeightZeroFamilyParams,
    construct_weight_one_univariate,
    construct_weight_zero,
)
from .errors import (
    CharacteristicObstruction,
    DegreeBoundExceeded,
    DenominatorVanishes,
    MixedFieldSpecs,
    NonSplitSpectrum,
    ZeroArgument,
)
from .fields import FieldElement, prime_field
from .operators import LinearOperator, MonomialOperatorTable, on_positions
from .poly import AlgebraSpec, Polynomial


class PartialProductKind(Enum):
    CIRC = "circ"  # weight-1 composition law
    STAR = "star"  # weight-0 composition law


def _partial_products(kind: PartialProductKind, lam, row, p) -> list:
    """lam o mu or lam * mu for each mu of ``row`` (raw values, ``p`` None
    for Q), None where the denominator vanishes.  Over GF(p) the row costs
    one inversion (Montgomery's simultaneous inversion): prefix products of
    its nonzero denominators, one inverse of their product, then three
    multiplications per inverse and one for lam * mu.  Over Q, lam = a/b
    and mu = c/d give ac over ad + bc + bd (o) or ad + bc (*), reduced by
    one gcd to the key (num, den > 0) and built into no Fraction."""
    circ = kind is PartialProductKind.CIRC  # counts as 1 in lam + mu + 1
    if p is None:
        a, b, out = lam.numerator, lam.denominator, []
        for mu in row:
            c, d = mu.numerator, mu.denominator
            num, den = a * c, a * d + b * c + circ * b * d
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            out.append((num // g, den // g) if den else None)
        return out
    dens = [(lam + mu + circ) % p for mu in row]
    prefix = list(itertools.accumulate(dens, lambda acc, d: acc * d % p if d else acc, initial=1))
    inv, out = lam * pow(prefix[-1], -1, p) % p, [None] * len(row)  # lam over the denominators up to i
    for i in reversed(range(len(row))):
        if dens[i]:
            out[i], inv = inv * prefix[i] % p * row[i] % p, inv * dens[i] % p
    return out


def partial_product(
    kind: PartialProductKind, lam: FieldElement, mu: FieldElement
) -> Optional[FieldElement]:
    """lam o mu or lam * mu; None when the denominator vanishes."""
    if lam.spec != mu.spec:
        raise MixedFieldSpecs(f"cannot mix {lam.spec} with {mu.spec}")
    if lam.is_zero() or mu.is_zero():
        raise ZeroArgument("partial products take nonzero arguments")
    p = lam.spec.p
    (nu,) = _partial_products(kind, lam.value, [mu.value], p)
    return None if nu is None else FieldElement(lam.spec, nu if p else Fraction(*nu))


@dataclass(frozen=True)
class IsoCounterexample:
    kind: PartialProductKind
    values: Tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


def semigroup_iso_check(
    kind: PartialProductKind, sample: Sequence[Fraction]
) -> Optional[IsoCounterexample]:
    """Verify the defining isomorphism and associativity on sample points.

    Weight one: phi(x) = 1 + 1/x turns o into multiplication.
    Weight zero: phi(x) = 1/x turns * into addition.
    Returns None on success, else the first counterexample found.
    """
    values = [Fraction(v) for v in sample]
    if any(v <= 0 for v in values):
        raise ValueError("sample values must be positive")

    def prod(x: Fraction, y: Fraction) -> Optional[Fraction]:
        (nu,) = _partial_products(kind, x, [y], None)
        return None if nu is None else Fraction(*nu)

    def phi(x: Fraction) -> Fraction:
        return 1 + Fraction(1, 1) / x if kind is PartialProductKind.CIRC else 1 / x

    for x, y in itertools.product(values, repeat=2):
        if (combined := prod(x, y)) is not None:
            lhs, rhs = phi(combined), phi(x) * phi(y) if kind is PartialProductKind.CIRC else phi(x) + phi(y)
            if lhs != rhs:
                return IsoCounterexample(kind, (x, y), lhs, rhs)
    for x, y, z in itertools.product(values, repeat=3):
        xy, yz = prod(x, y), prod(y, z)
        left = None if xy is None else prod(xy, z)
        right = None if yz is None else prod(x, yz)
        if left is not None and right is not None and left != right:
            return IsoCounterexample(kind, (x, y, z), left, right)
    return None


class ProductStatus(Enum):
    ZERO = "zero"
    CONTAINED = "contained"
    VIOLATION = "violation"


@dataclass(frozen=True)
class ProductCheck:
    left: FieldElement
    right: FieldElement
    status: ProductStatus
    product_eigenvalue: Optional[FieldElement] = None
    witness: Optional[Tuple[Polynomial, Polynomial, Polynomial]] = None

    @classmethod
    def _trusted(cls, left, right, status, product_eigenvalue, witness):
        """A record of fields the grading built valid, set past the frozen dataclass's checks."""
        check = object.__new__(cls)
        d = check.__dict__
        d["left"], d["right"], d["status"] = left, right, status
        d["product_eigenvalue"], d["witness"] = product_eigenvalue, witness
        return check

    def to_json_dict(self) -> dict:
        nu = self.product_eigenvalue
        out = {"left": self.left.short_str(), "right": self.right.short_str(), "status": self.status.value,
               "product": None if nu is None else nu.short_str()}
        if self.witness is not None:
            out["witness"] = {name: f.to_json_terms() for name, f in zip(("u", "v", "uv"), self.witness)}
        return out


@dataclass
class GradingDecomposition:
    spectrum: List[FieldElement]
    spaces: Dict[FieldElement, List[Polynomial]]
    products: List[ProductCheck] = dataclass_field(default_factory=list)

    def violations(self) -> List[ProductCheck]:
        return [p for p in self.products if p.status is ProductStatus.VIOLATION]

    def dimension(self) -> int:
        return sum(len(basis) for basis in self.spaces.values())

    def to_json_dict(self) -> dict:
        return {
            "spectrum": [lam.short_str() for lam in self.spectrum],
            "spaces": [{"eigenvalue": lam.short_str(), "basis": [p.to_json_terms() for p in self.spaces[lam]]}
                       for lam in self.spectrum],
            "products": [p.to_json_dict() for p in self.products],
            "violations": len(self.violations()),
        }


def _matrix_decomposition(R: LinearOperator):
    """Raw spectrum and the bases of its generalized eigenspaces in root
    order, in ``kernel_basis`` form on the indices of ``R.algebra.basis_index``.

    A triangular matrix (in one variable, that of every operator that
    never lowers a degree, or never raises one) has its diagonal for
    spectrum, with multiplicities counted there, and each simple
    eigenvalue's eigenvector follows by substitution.  Any other matrix has its spectrum as the roots of its
    characteristic polynomial.  A repeated eigenvalue's space is the
    kernel of (A - lam)^m either way."""
    p = R.algebra.field.p
    index = R.algebra.basis_index
    size = len(index.monomials)
    mat = [[R.algebra.field.zero().value] * size for _ in range(size)]
    tgt, coef, more = on_positions(R, index.position)
    for i, t in enumerate(tgt):
        if t >= 0:
            for dst, c in [(t, coef[i]), *more.get(i, ())]:
                mat[dst][i] = c
    lower = not any(x for i, row in enumerate(mat) for x in row[i + 1:])
    triangular = lower or not any(x for i, row in enumerate(mat) for x in row[:i])
    if triangular:
        diagonal = [row[i] for i, row in enumerate(mat)]
        roots = sorted(set(diagonal))
        multiplicities = [diagonal.count(lam) for lam in roots]
    else:
        coeffs = linalg.char_poly(mat, p)
        roots = linalg.roots(coeffs, p)
        multiplicities = [linalg.root_multiplicity(coeffs, lam, p) for lam in roots]
        covered = sum(multiplicities)
        if covered != size:
            raise NonSplitSpectrum(f"generalized eigenspaces cover {covered} of {size} dimensions")
    # ker (A - lam)^m is the whole generalized eigenspace when m is the
    # root's multiplicity: that space has dimension m
    spaces = []
    for lam, m in zip(roots, multiplicities):
        if triangular and m == 1:
            spaces.append([linalg.triangular_eigenvector(mat, diagonal.index(lam), lower, p)])
            continue
        shifted = [row[:] for row in mat]
        for i, row in enumerate(shifted):
            row[i] = row[i] - lam if p is None else (row[i] - lam) % p
        if m > 1:
            shifted = linalg.mat_pow(shifted, m, p)
        spaces.append(linalg.kernel_basis(shifted, p))
    return roots, spaces


def grading_decompose(R: LinearOperator, weight: FieldElement) -> GradingDecomposition:
    """Generalized eigenspace decomposition plus product classification.

    The algebra must be truncated (finite-dimensional) and R defined on
    all of it.  ``weight`` selects the composition law: weight one uses
    o, weight zero uses *.  For each unordered pair of nonzero
    eigenvalues, products of basis elements must vanish when the law is
    undefined or leaves the spectrum, and must land in the indicated
    eigenspace otherwise.  Everything runs on raw values and on the
    spectrum's numbers, eigenspace bases in ``linalg.kernel_basis`` form,
    one row of pairs per nonzero eigenvalue (``_partial_products``); a pair
    of one-monomial eigenspaces of a diagonal table takes one read of the
    product table.  FieldElements and Polynomials are built for the result only.
    """
    algebra = R.algebra
    if algebra.truncation is None:
        raise ValueError("grading needs a finite-dimensional (truncated) algebra")
    if weight.spec != algebra.field:
        raise MixedFieldSpecs(f"cannot mix {algebra.field} with {weight.spec}")
    if not (weight.is_one() or weight.is_zero()):
        raise ValueError("grade at weight 0 or 1 (rescale other weights first)")
    kind = PartialProductKind.CIRC if weight.is_one() else PartialProductKind.STAR
    index = algebra.basis_index
    basis, mul = index.monomials, index.mul  # mul[i][j]: the product's index, None above the truncation
    beyond = [m for m in basis if m.degree() > R.degree_bound]
    if beyond:
        raise DegreeBoundExceeded(f"operator defined up to degree {R.degree_bound}, got {beyond[0]!r}")
    spec, p = algebra.field, algebra.field.p

    if isinstance(R, MonomialOperatorTable) and R.is_diagonal():
        # each basis monomial is an eigenvector: owner[i] numbers the eigenvalue of monomial i
        zero, one = spec.zero().value, spec.one().value
        values = [zero if hit is None else hit[0].value for hit in map(R.entries.get, basis)]
        spectrum = sorted(set(values))
        at = {lam: e for e, lam in enumerate(spectrum)}
        owner = [at[lam] for lam in values]
        bases = [[(i, {i: one}) for i, o in enumerate(owner) if o == e] for e in range(len(spectrum))]
    else:
        spectrum, bases = _matrix_decomposition(R)
        owner = None
    elements = [FieldElement(spec, lam) for lam in spectrum]
    number = {lam if p else (lam.numerator, lam.denominator): e for e, lam in enumerate(spectrum)}  # by raw key
    # lone[e]: the one monomial of a diagonal table's one-dimensional eigenspace e, else None
    lone = [space[0][0] if owner is not None and len(space) == 1 else None for space in bases]

    def product(u, v):
        w = {}
        for i, a in u.items():
            row = mul[i]
            for j, b in v.items():
                k = row[j]
                if k is not None:
                    w[k] = w.get(k, 0) + a * b if p is None else (w.get(k, 0) + a * b) % p
        return {k: c for k, c in w.items() if c}

    def polynomial(vec):
        return Polynomial._trusted(algebra, {basis[k]: FieldElement(spec, c) for k, c in vec.items()})

    def pair_status(e, f, target):
        """The status of A_e * A_f and its first violating pair of basis vectors."""
        status = ProductStatus.ZERO
        pairs = (itertools.combinations_with_replacement(bases[e], 2) if e == f
                 else itertools.product(bases[e], bases[f]))
        for (i, u), (j, v) in pairs:
            if owner is None:
                w = product(u, v)
            else:  # u, v are the monomials i, j; their product k lies in A_nu iff owner[k] is nu's number
                k = mul[i][j]
                w = None if k is None else {k: one}
            if not w:
                continue
            if target is None or not (
                linalg.in_span(bases[target], w, p) if owner is None else owner[k] == target
            ):
                return ProductStatus.VIOLATION, (polynomial(u), polynomial(v), polynomial(w))
            status = ProductStatus.CONTAINED
        return status, None

    products: List[ProductCheck] = []
    nonzero = [e for e, lam in enumerate(spectrum) if lam]
    for n, e in enumerate(nonzero):
        later = nonzero[n:]
        row = None if lone[e] is None else mul[lone[e]]
        for f, nu in zip(later, _partial_products(kind, spectrum[e], [spectrum[f] for f in later], p)):
            target = None if nu is None else number.get(nu)
            if row is not None and lone[f] is not None and ((k := row[lone[f]]) is None or owner[k] == target):
                status, witness = ProductStatus.ZERO if k is None else ProductStatus.CONTAINED, None  # one read
            else:
                status, witness = pair_status(e, f, target)
            if nu is not None:  # the spectrum's own element when nu lies in it
                nu = elements[target] if target is not None else FieldElement(spec, nu if p else Fraction(*nu))
            products.append(ProductCheck._trusted(elements[e], elements[f], status, nu, witness))
    spaces = {lam: [polynomial(vec) for _, vec in space] for lam, space in zip(elements, bases)}
    return GradingDecomposition(elements, spaces, products)


class QuotientFamily(Enum):
    WEIGHT_ONE_ALPHA_ONE = "weight_one_alpha_one"
    WEIGHT_ZERO_RECIPROCAL = "weight_zero_reciprocal"


def quotient_rb_from_family(
    source: QuotientFamily, N: int, p: int
) -> MonomialOperatorTable:
    """Family members on k0[x]/(x^(N+1)) over GF(p), from the constructors.

    WEIGHT_ONE_ALPHA_ONE: R(x^i) = x^i / (2^i - 1), weight 1, the weight-one
    family at alpha = 1; WEIGHT_ZERO_RECIPROCAL: R(x^i) = x^i / i, weight 0,
    the weight-zero family with m = 1 and class 1 = (1, 1).  A denominator
    divisible by p raises ``CharacteristicObstruction`` at the first such i.
    """
    field = prime_field(p)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=N)
    if source is QuotientFamily.WEIGHT_ZERO_RECIPROCAL:
        params = WeightZeroFamilyParams(1, {1: (1, field.one())})
        return construct_weight_zero(params, algebra, N)
    try:
        return construct_weight_one_univariate(field.one(), algebra, N)
    except DenominatorVanishes as exc:
        i = exc.where
        raise CharacteristicObstruction(f"2^{i} - 1 = {2**i - 1} is divisible by {p}", index=i) from exc
