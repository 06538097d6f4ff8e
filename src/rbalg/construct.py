"""Constructors for the classified Rota-Baxter operator families.

Univariate weight zero, with residues b in 1..m on the non-unital
algebra and 0..m-1 on the unital one (``residues``, ``residue_class``),
and q_b = 0 exactly when p_b = 0 (those classes are killed):

    R(x^(m*a+b)) = q_b * x^(m*(a+p_b)) / (m*(a+p_b)).

Weight one (univariate, or one a_j per variable) and multivariate weight
zero are diagonal, R(w) = phi(w) * w at w = x1^e1...xn^en, with
phi = X/(Y - X), X = prod a_j^e_j, Y = prod (a_j+1)^e_j at weight one
and phi = 1/sigma, sigma = sum e_j/a_j at weight zero.  Also here: the
formal integration operator x^n -> (x^(n+1) - a^(n+1))/(n+1), and
splitting operators (zero on one subalgebra, -weight * id on a
complementary one).

A family table meets the identity at (u, v) exactly when no denominator
vanishes at the inner term; a vanishing one zeroes it, not R(u)R(v):
- weight one: X and Y are multiplicative, and since
  X_u(Y_v - X_v) + X_v(Y_u - X_u) + (Y_u - X_u)(Y_v - X_v) = Y_uv - X_uv,
  phi(u) + phi(v) + 1 = (Y_uv - X_uv)/((Y_u - X_u)(Y_v - X_v)), which
  phi(uv) takes to phi(u)phi(v) unless Y_uv = X_uv;
- multivariate weight zero: sigma is additive, so phi(uv) takes
  phi(u) + phi(v) = sigma(uv)phi(u)phi(v) to phi(u)phi(v) unless sigma(uv) = 0;
- univariate weight zero: at u = x^(ma+b), v = x^(ma'+b') both inner
  monomials map to x^(m*S), S = a+p_b+a'+p_b', with
  1/(a+p_b) + 1/(a'+p_b') = S/((a+p_b)(a'+p_b')); every denominator
  m(a+p_b) is a positive integer (m >= 1, a >= 0, p_b >= 1 on a live
  class), so over Q none vanishes.
So a table at bound D fails on the untruncated algebra exactly when a
denominator vanishes in degrees (D, 2D], the window ``_in_domain`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional, Tuple, Union

from .errors import (
    CharacteristicObstruction,
    DenominatorVanishes,
    InvalidParams,
    NotASubalgebra,
)
from .fields import FieldElement
from .operators import DenseOperator, MonomialOperatorTable, _effective_bound
from .poly import AlgebraSpec, Monomial, Polynomial
from .rbcheck import rb_check


def residues(m: int, unital: bool) -> range:
    """The labels of the residue classes mod m: 0..m-1 on the unital
    algebra, 1..m on the non-unital one."""
    return range(0, m) if unital else range(1, m + 1)


def residue_class(n: int, m: int, unital: bool) -> Tuple[int, int]:
    """(b, a) with n = m*a + b and b one of ``residues(m, unital)``."""
    b = n % m if unital else (n - 1) % m + 1
    return b, (n - b) // m


@dataclass(frozen=True)
class WeightZeroFamilyParams:
    """Residue data b -> (p_b, q_b); q_b = 0 iff p_b = 0."""

    m: int
    classes: Mapping[int, Tuple[int, FieldElement]]

    def residues(self, unital: bool) -> range:
        return residues(self.m, unital)

    def validate(self, unital: bool) -> None:
        if self.m < 1:
            raise InvalidParams("m must be a positive integer")
        expected = set(self.residues(unital))
        if set(self.classes) != expected:
            raise InvalidParams(
                f"expected residue keys {sorted(expected)}, got {sorted(self.classes)}"
            )
        for b, (p, q) in self.classes.items():
            if p < 0:
                raise InvalidParams(f"p_{b} must be non-negative")
            if (p == 0) != q.is_zero():
                raise InvalidParams(f"class {b}: p_b = 0 must hold exactly when q_b = 0")


def construct_weight_zero(
    params: WeightZeroFamilyParams,
    algebra: AlgebraSpec,
    degree_bound: Optional[int] = None,
) -> MonomialOperatorTable:
    """The weight-zero monomial family table up to the degree bound."""
    if algebra.nvars != 1:
        raise InvalidParams("the weight-zero family is univariate")
    params.validate(algebra.unital)
    bound = _effective_bound(algebra, degree_bound)
    m = params.m
    field = algebra.field
    entries = {}
    for src in algebra.basis(bound):
        n = src.exponents[0]
        b, a = residue_class(n, m, algebra.unital)
        p, q = params.classes[b]
        if q.is_zero():
            continue
        target_exp = m * (a + p)
        if algebra.truncation is not None and target_exp > algebra.truncation:
            continue
        denom = field.from_int(m * (a + p))
        if denom.is_zero():
            raise CharacteristicObstruction(
                f"denominator {m * (a + p)} vanishes in {field} at source x^{n}",
                index=n,
            )
        entries[src] = (q / denom, algebra.monomial(target_exp))
    return _in_domain(MonomialOperatorTable(algebra, field.zero(), bound, entries))


@dataclass(frozen=True)
class WeightOneFamilyParams:
    alpha: FieldElement


def construct_weight_one_univariate(
    alpha: Union[FieldElement, WeightOneFamilyParams],
    algebra: AlgebraSpec,
    degree_bound: Optional[int] = None,
) -> MonomialOperatorTable:
    """Diagonal weight-one table R(x^n) = a^n/((a+1)^n - a^n) x^n."""
    if isinstance(alpha, WeightOneFamilyParams):
        alpha = alpha.alpha
    if algebra.nvars != 1 or algebra.unital:
        raise InvalidParams("the weight-one family lives on the non-unital univariate algebra")
    bound = _effective_bound(algebra, degree_bound)
    entries = {}
    for src in algebra.basis(bound):
        coeff = _weight_one_coefficient((alpha,), src.exponents)
        if coeff is None:
            n = src.exponents[0]
            raise DenominatorVanishes(f"(alpha+1)^{n} = alpha^{n} for alpha = {alpha}", where=n)
        if not coeff.is_zero():  # alpha = 0 gives the zero table
            entries[src] = (coeff, src)
    return _in_domain(MonomialOperatorTable(algebra, algebra.field.one(), bound, entries))


def _weight_one_coefficient(alphas: Tuple[FieldElement, ...], exponents: Tuple[int, ...]) -> Optional[FieldElement]:
    """The weight-one family's coefficient at x1^e1...xn^en,
    prod a_j^e_j / (prod (a_j+1)^e_j - prod a_j^e_j); None where the
    denominator vanishes."""
    num = shifted = alphas[0].spec.one()
    for a, e in zip(alphas, exponents):
        num, shifted = num * a**e, shifted * (a + 1) ** e
    denom = shifted - num
    return None if denom.is_zero() else num / denom


class MultivariateKind(Enum):
    WEIGHT_ONE = "weight_one"
    WEIGHT_ZERO = "weight_zero"


@dataclass(frozen=True)
class MultivariateFamilyParams:
    kind: MultivariateKind
    alphas: Tuple[FieldElement, ...]

    def validate(self) -> None:
        if not self.alphas:
            raise InvalidParams("need at least one scaling parameter")
        if any(a.is_zero() for a in self.alphas):
            raise InvalidParams("all parameters must be nonzero")


def construct_multivariate(
    params: MultivariateFamilyParams,
    algebra: AlgebraSpec,
    degree_bound: Optional[int] = None,
) -> MonomialOperatorTable:
    """Diagonal multivariate family, weight one or weight zero."""
    params.validate()
    if algebra.unital:
        raise InvalidParams("the multivariate families live on non-unital algebras")
    if algebra.nvars != len(params.alphas):
        raise InvalidParams("one parameter per variable required")
    bound = _effective_bound(algebra, degree_bound)
    field = algebra.field
    entries = {}
    for src in algebra.basis(bound):
        if params.kind is MultivariateKind.WEIGHT_ONE:
            coeff = _weight_one_coefficient(params.alphas, src.exponents)
            if coeff is None:
                raise DenominatorVanishes(
                    f"product denominator vanishes at {src.exponents}",
                    where=src.exponents,
                )
        else:
            total = field.zero()
            for a, e in zip(params.alphas, src.exponents):
                total = total + field.from_int(e) / a
            if total.is_zero():
                raise DenominatorVanishes(
                    f"reciprocal sum vanishes at {src.exponents}", where=src.exponents
                )
            coeff = total.inverse()
        if not coeff.is_zero():
            entries[src] = (coeff, src)
    weight = field.one() if params.kind is MultivariateKind.WEIGHT_ONE else field.zero()
    return _in_domain(MonomialOperatorTable(algebra, weight, bound, entries))


def _in_domain(table: MonomialOperatorTable) -> MonomialOperatorTable:
    """A family table, refused where a denominator vanishes past its bound,
    mod p or over Q (weight one at alpha = -1/2, multivariate weight zero at
    alphas of both signs): ``rb_check`` at twice the bound sees every pair."""
    algebra, bound = table.algebra, table.degree_bound
    if algebra.truncation != bound:
        v = rb_check(table, table.weight, 2 * bound).violation
        if v is not None:
            pair, p = (v.u.exponents, v.v.exponents), algebra.field.p
            message = f"the pair ({v.u.to_text()}, {v.v.to_text()}) fails the identity"
            if p is None:
                raise DenominatorVanishes(f"{message} over Q past the degree bound {bound}", where=pair)
            raise CharacteristicObstruction(f"{message} mod {p}", index=pair)
    return table


def construct_integral(
    a: FieldElement, algebra: AlgebraSpec, degree_bound: Optional[int] = None
) -> Union[MonomialOperatorTable, DenseOperator]:
    """Formal integration with base point a: x^n -> (x^(n+1) - a^(n+1))/(n+1).

    Weight zero; a monomial table exactly when a = 0, dense otherwise.  It
    is refused where it fails the identity: for a != 0 on a truncated
    algebra, whose ideal it does not keep; over GF(p) where some 1/(n+1)
    vanishes, and where x^p survives and a pair (x^i, x^j) with
    i + j = p - 2 lies within the bound, as its inner term
    (i+j+2)/((i+1)(j+1)) x^(p-1) vanishes and its left side does not.
    """
    if not (algebra.unital and algebra.nvars == 1):
        raise InvalidParams("formal integration lives on the unital univariate algebra")
    if algebra.truncation is not None and not a.is_zero():
        raise InvalidParams("integration with a base point a != 0 does not preserve the truncation")
    bound = _effective_bound(algebra, degree_bound)
    field, p = algebra.field, algebra.field.p
    if p is not None and p <= bound + 1:
        raise CharacteristicObstruction(f"n+1 vanishes mod {p} within degree {bound}", index=p - 1)
    if p is not None and p <= 2 * bound + 2 and (algebra.truncation is None or p <= algebra.truncation):
        i = max(0, p - 2 - bound)
        raise CharacteristicObstruction(
            f"the pair (x^{i}, x^{p - 2 - i}) has no inner term mod {p}, while x^{p} survives", index=i
        )
    x = [algebra.monomial(n) for n in range(bound + 2)]
    inverses = [field.from_int(n + 1).inverse() for n in range(bound + 1)]
    if a.is_zero():  # x^n -> x^(n+1)/(n+1), zero where x^(n+1) is above the truncation
        entries = {x[n]: (c, x[n + 1]) for n, c in enumerate(inverses) if algebra.admits(x[n + 1])}
        return MonomialOperatorTable(algebra, field.zero(), bound, entries)
    images = {x[n]: Polynomial(algebra, {x[n + 1]: c, x[0]: -(a ** (n + 1)) * c}) for n, c in enumerate(inverses)}
    return DenseOperator(algebra, field.zero(), bound, images)


@dataclass(frozen=True)
class SplittingSpec:
    """Predicate sending each basis monomial to part 2 (True) or part 1."""

    in_second: Callable[[Monomial], bool]


def split_by_variables(variables) -> SplittingSpec:
    """Part 2 = monomials involving any of the given variable indices."""
    idx = frozenset(variables)
    return SplittingSpec(lambda m: any(m.exponents[i] > 0 for i in idx))


def split_constant_part() -> SplittingSpec:
    """Part 2 = the constants; part 1 = everything of positive degree."""
    return SplittingSpec(lambda m: m.degree() == 0)


def split_positive_degree() -> SplittingSpec:
    """Part 2 = positive-degree monomials; part 1 = the constants."""
    return SplittingSpec(lambda m: m.degree() > 0)


def construct_splitting(
    spec: SplittingSpec,
    weight: FieldElement,
    algebra: AlgebraSpec,
    degree_bound: Optional[int] = None,
) -> MonomialOperatorTable:
    """The splitting operator: zero on part 1, -weight * id on part 2.

    Both parts must be multiplicatively closed within the degree bound
    (products overflowing a truncation bound vanish and are fine).
    """
    bound = _effective_bound(algebra, degree_bound)
    basis = list(algebra.basis(bound))
    parts = ([], [])
    for m in basis:
        parts[1 if spec.in_second(m) else 0].append(m)
    members = (set(parts[0]), set(parts[1]))
    for which in (0, 1):
        group = parts[which]
        for i, u in enumerate(group):
            for v in group[i:]:
                prod = u * v
                d = prod.degree()
                if algebra.truncation is not None and d > algebra.truncation:
                    continue
                if d > bound:
                    continue
                if prod not in members[which]:
                    raise NotASubalgebra(
                        f"part {which + 1} not closed: {u.to_text()} * {v.to_text()}"
                        f" = {prod.to_text()} falls outside",
                        part=which + 1,
                        witness=(u, v),
                    )
    entries = {}
    if not weight.is_zero():
        for m in parts[1]:
            entries[m] = (-weight, m)
    return MonomialOperatorTable(algebra, weight, bound, entries)
