"""Linear operators on a degree-bounded monomial basis.

A monomial operator stores, for each basis monomial up to its degree
bound, either nothing (zero image) or a single scaled target monomial.
Dense operators carry arbitrary polynomial images; they arise from
conjugation by the shift automorphism x -> x - 1 (which destroys
monomiality) and from tensor-derived operators, and support only
application and Rota-Baxter checking.  ``on_positions`` reads either kind
onto basis positions on raw values, the one form in which ``rb_check``
and the grading's matrix see an operator.

Operators are total on their domain: applying one above the degree
bound is an error, never a silent zero, so searches can distinguish
"unknown" from "maps to zero".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from .errors import (
    DegreeBoundExceeded,
    InvalidAutomorphism,
    MixedAlgebras,
    ZeroWeight,
)
from .fields import FieldElement
from .poly import AlgebraSpec, Monomial, Polynomial, _accumulate, _json_entry, _json_typed


def _effective_bound(algebra: AlgebraSpec, degree_bound: Optional[int]) -> int:
    if degree_bound is None:
        if algebra.truncation is None:
            raise ValueError("degree bound required on an untruncated algebra")
        return algebra.truncation
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    if algebra.truncation is not None and degree_bound > algebra.truncation:
        raise ValueError("degree bound exceeds the truncation bound")
    return degree_bound


class LinearOperator:
    """A linear operator of a given weight on the basis monomials of
    degree <= its bound: the part monomial tables and dense operators share."""

    __slots__ = ("algebra", "weight", "degree_bound")
    kind: str  # of the JSON form, set by each subclass

    def __init__(self, algebra: AlgebraSpec, weight: FieldElement, degree_bound: Optional[int]):
        if weight.spec != algebra.field:
            raise MixedAlgebras("weight from a different field")
        self.algebra = algebra
        self.weight = weight
        self.degree_bound = _effective_bound(algebra, degree_bound)

    def _check_source(self, src: Monomial) -> None:
        if not self.algebra.admits(src) or src.degree() > self.degree_bound:
            raise ValueError(f"source {src!r} outside the operator domain")

    def _check_degree(self, m: Monomial) -> None:
        if m.degree() > self.degree_bound:
            raise DegreeBoundExceeded(
                f"operator defined up to degree {self.degree_bound}, got {m!r}"
            )

    def _json_head(self) -> dict:
        return {
            "kind": self.kind,
            "algebra": self.algebra.to_json_dict(),
            "weight": self.weight.short_str(),
            "degree_bound": self.degree_bound,
        }


class MonomialOperatorTable(LinearOperator):
    """R(source) = coeff * target on every basis monomial of degree <= bound."""

    __slots__ = ("entries",)
    kind = "monomial"

    def __init__(
        self,
        algebra: AlgebraSpec,
        weight: FieldElement,
        degree_bound: Optional[int],
        entries: Dict[Monomial, Tuple[FieldElement, Monomial]],
    ):
        super().__init__(algebra, weight, degree_bound)
        clean: Dict[Monomial, Tuple[FieldElement, Monomial]] = {}
        for src, (coeff, dst) in entries.items():
            if coeff.is_zero():
                continue
            self._check_source(src)
            if not algebra.admits(dst):
                raise ValueError(f"target {dst!r} is not a basis monomial")
            if coeff.spec != algebra.field:
                raise MixedAlgebras("entry coefficient from a different field")
            clean[src] = (coeff, dst)
        self.entries = clean

    @classmethod
    def _trusted(cls, algebra: AlgebraSpec, weight: FieldElement, degree_bound: int, entries: dict):
        """A table on entries the library built valid: a weight of the
        algebra's field, a bound within its truncation, and nonzero
        coefficients of that field from basis monomials within the bound to
        basis monomials."""
        table = object.__new__(cls)
        table.algebra, table.weight, table.degree_bound, table.entries = algebra, weight, degree_bound, entries
        return table

    # -- application --------------------------------------------------------

    def entry(self, m: Monomial) -> Optional[Tuple[FieldElement, Monomial]]:
        self._check_degree(m)
        return self.entries.get(m)

    def apply_monomial(self, m: Monomial) -> Polynomial:
        hit = self.entry(m)
        if hit is None:
            return Polynomial.zero(self.algebra)
        coeff, dst = hit
        return Polynomial._trusted(self.algebra, {dst: coeff})

    def apply(self, f: Polynomial) -> Polynomial:
        if f.algebra != self.algebra:
            raise MixedAlgebras("polynomial from a different algebra")
        out = {}
        for mono, coeff in f.terms():
            hit = self.entry(mono)
            if hit is not None:
                c, dst = hit
                _accumulate(out, dst, coeff * c)
        return Polynomial._trusted(self.algebra, out)

    # -- inspection -----------------------------------------------------------

    def is_diagonal(self) -> bool:
        return all(src == dst for src, (_, dst) in self.entries.items())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialOperatorTable):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.weight == other.weight
            and self.degree_bound == other.degree_bound
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"MonomialOperatorTable(weight={self.weight}, D={self.degree_bound}, "
            f"{len(self.entries)} entries)"
        )

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [
            {
                "src": list(src.exponents),
                "coeff": coeff.short_str(),
                "dst": list(dst.exponents),
            }
            for src, (coeff, dst) in sorted(
                self.entries.items(), key=lambda kv: kv[0].sort_key()
            )
        ]
        return {**self._json_head(), "entries": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "MonomialOperatorTable":
        algebra = AlgebraSpec.from_json_dict(data["algebra"])
        weight = algebra.field.parse(data["weight"])
        entries = {}
        for item in data["entries"]:
            src = algebra.monomial(*item["src"])
            dst = algebra.monomial(*item["dst"])
            _json_entry(entries, src, (algebra.field.parse(item["coeff"]), dst), item, "src")
        bound = _json_typed(data["degree_bound"], "degree_bound", nullable=True)
        return MonomialOperatorTable(algebra, weight, bound, entries)


class DenseOperator(LinearOperator):
    """A linear operator with arbitrary polynomial images on the basis."""

    __slots__ = ("images",)
    kind = "dense"

    def __init__(
        self,
        algebra: AlgebraSpec,
        weight: FieldElement,
        degree_bound: Optional[int],
        images: Dict[Monomial, Polynomial],
    ):
        super().__init__(algebra, weight, degree_bound)
        clean: Dict[Monomial, Polynomial] = {}
        for src, poly in images.items():
            self._check_source(src)
            if poly.algebra != algebra:
                raise MixedAlgebras("image from a different algebra")
            if not poly.is_zero():
                clean[src] = poly
        self.images = clean

    def apply_monomial(self, m: Monomial) -> Polynomial:
        self._check_degree(m)
        return self.images.get(m, Polynomial.zero(self.algebra))

    def apply(self, f: Polynomial) -> Polynomial:
        if f.algebra != self.algebra:
            raise MixedAlgebras("polynomial from a different algebra")
        out = {}
        for mono, coeff in f.terms():
            for m, c in self.apply_monomial(mono)._terms.items():
                _accumulate(out, m, coeff * c)
        return Polynomial._trusted(self.algebra, out)

    def to_json_dict(self) -> dict:
        images = [
            {"src": list(src.exponents), "poly": poly.to_json_terms()}
            for src, poly in sorted(self.images.items(), key=lambda kv: kv[0].sort_key())
        ]
        return {**self._json_head(), "images": images}

    @staticmethod
    def from_json_dict(data: dict) -> "DenseOperator":
        algebra = AlgebraSpec.from_json_dict(data["algebra"])
        weight = algebra.field.parse(data["weight"])
        images = {}
        for item in data["images"]:
            src = algebra.monomial(*item["src"])
            _json_entry(images, src, Polynomial.from_json_terms(algebra, item["poly"]), item, "src")
        bound = _json_typed(data["degree_bound"], "degree_bound", nullable=True)
        return DenseOperator(algebra, weight, bound, images)

    def __repr__(self) -> str:
        return f"DenseOperator(weight={self.weight}, D={self.degree_bound})"


def operator_from_json(data: dict) -> LinearOperator:
    kind = data.get("kind")
    if kind not in ("monomial", "dense"):
        raise TypeError(f'kind must be "monomial" or "dense", got {kind!r}')
    return (DenseOperator if kind == "dense" else MonomialOperatorTable).from_json_dict(data)


def on_positions(R: LinearOperator, position: Dict[tuple, int]) -> tuple:
    """R read onto basis positions, on raw values (``Fraction`` over Q, int
    mod p): (tgt, coef, more), where tgt[i] and coef[i] are the position and
    value of one term of the image of the monomial at position i (-1 and 0
    where it is zero), and more[i] the image's other terms as (position,
    value) pairs, for images of several terms only.  The sources that have
    a position when it starts are read; every term of theirs must have one,
    or be given one as it is read."""
    size = len(position)
    tgt, coef, more = [-1] * size, [0] * size, {}
    if isinstance(R, MonomialOperatorTable):
        for src, (c, dst) in R.entries.items():
            if (i := position.get(src.exponents, size)) < size:
                tgt[i], coef[i] = position[dst.exponents], c.value
        return tgt, coef, more
    for src, f in R.images.items():
        if (i := position.get(src.exponents, size)) < size:
            (tgt[i], coef[i]), *rest = [(position[m.exponents], c.value) for m, c in f._terms.items()]
            if rest:
                more[i] = rest
    return tgt, coef, more


def operators_agree(a: LinearOperator, b: LinearOperator, max_degree: int) -> bool:
    """Compare two operators as linear maps on the degree-bounded basis."""
    if a.algebra != b.algebra:
        return False
    for m in a.algebra.basis(max_degree):
        if a.apply_monomial(m) != b.apply_monomial(m):
            return False
    return True


# -- transforms ----------------------------------------------------------------


def op_compose(
    R: MonomialOperatorTable, S: MonomialOperatorTable
) -> MonomialOperatorTable:
    """Table of R o S; the bound is S's, and R must cover S's targets."""
    if R.algebra != S.algebra:
        raise MixedAlgebras("operators act on different algebras")
    entries = {}
    for src, (c, mid) in S.entries.items():
        if mid.degree() > R.degree_bound:
            raise DegreeBoundExceeded(
                f"composition needs R at degree {mid.degree()} > {R.degree_bound}"
            )
        hit = R.entries.get(mid)
        if hit is None:
            continue
        c2, dst = hit
        entries[src] = (c * c2, dst)
    return MonomialOperatorTable(R.algebra, R.weight, S.degree_bound, entries)


def op_left_mul(
    R: MonomialOperatorTable, r: Monomial, c: FieldElement
) -> MonomialOperatorTable:
    """Table of R o l_{c*r}, i.e. w -> c * R(r*w).

    On an untruncated algebra the resulting bound shrinks by deg(r) so
    that every needed application of R stays within its own bound.
    """
    algebra = R.algebra
    if algebra.truncation is not None:
        bound = R.degree_bound
    else:
        bound = R.degree_bound - r.degree()
        if bound < max(algebra.min_degree(), 1):
            raise DegreeBoundExceeded("left multiplication leaves no degree room")
    entries = {}
    if not c.is_zero():
        for src in algebra.basis(bound):
            shifted = src * r
            if algebra.truncation is not None and shifted.degree() > algebra.truncation:
                continue
            hit = R.entries.get(shifted)
            if hit is None:
                continue
            coeff, dst = hit
            entries[src] = (c * coeff, dst)
    return MonomialOperatorTable(algebra, R.weight, bound, entries)


def op_rescale_weight(R: MonomialOperatorTable) -> MonomialOperatorTable:
    """The operator (1/weight) * R, which has weight 1."""
    if R.weight.is_zero():
        raise ZeroWeight("cannot rescale a weight-zero operator")
    inv = R.weight.inverse()
    entries = {src: (inv * c, dst) for src, (c, dst) in R.entries.items()}
    return MonomialOperatorTable(
        R.algebra, R.algebra.field.one(), R.degree_bound, entries
    )


class AutomorphismKind(Enum):
    SCALING = "scaling"
    SHIFT = "shift"


@dataclass(frozen=True)
class AutomorphismSpec:
    """x_i -> c_i x_i (scaling) or x -> x - 1 (unital univariate shift)."""

    kind: AutomorphismKind
    constants: Optional[Tuple[FieldElement, ...]] = None

    @staticmethod
    def scaling(constants: Tuple[FieldElement, ...]) -> "AutomorphismSpec":
        if any(c.is_zero() for c in constants):
            raise InvalidAutomorphism("scaling constants must be nonzero")
        return AutomorphismSpec(AutomorphismKind.SCALING, tuple(constants))

    @staticmethod
    def shift() -> "AutomorphismSpec":
        return AutomorphismSpec(AutomorphismKind.SHIFT)


def _scale_factor(constants, exponents) -> FieldElement:
    out = constants[0].spec.one()
    for c, e in zip(constants, exponents):
        if e:
            out = out * c**e
    return out


def op_conjugate(R: MonomialOperatorTable, psi: AutomorphismSpec) -> LinearOperator:
    """The conjugated operator psi^{-1} o R o psi.

    Scaling preserves monomiality and returns a table; the shift
    x -> x - 1 generally does not and returns a dense operator.
    """
    algebra = R.algebra
    if psi.kind is AutomorphismKind.SCALING:
        constants = psi.constants
        if constants is None or len(constants) != algebra.nvars:
            raise InvalidAutomorphism("need one scaling constant per variable")
        if any(c.spec != algebra.field for c in constants):
            raise InvalidAutomorphism("scaling constants from a different field")
        entries = {}
        for src, (coeff, dst) in R.entries.items():
            factor = _scale_factor(constants, src.exponents)
            unfactor = _scale_factor(constants, dst.exponents)
            entries[src] = (coeff * factor / unfactor, dst)
        return MonomialOperatorTable(algebra, R.weight, R.degree_bound, entries)

    if psi.kind is AutomorphismKind.SHIFT:
        if not (algebra.unital and algebra.nvars == 1):
            raise InvalidAutomorphism("shift needs a unital univariate algebra")
        field = algebra.field
        images = {}
        for src in algebra.basis(R.degree_bound):
            n = src.exponents[0]
            # psi(x^n) = (x-1)^n, expanded over the monomial basis
            shifted = Polynomial(
                algebra,
                {
                    algebra.monomial(k): field.from_int(math.comb(n, k) * (-1) ** (n - k))
                    for k in range(n + 1)
                },
            )
            # psi^{-1}: x^t -> (x+1)^t
            image = {}
            for mono, coeff in R.apply(shifted).terms():
                t = mono.exponents[0]
                for k in range(t + 1):
                    _accumulate(image, algebra.monomial(k), coeff * field.from_int(math.comb(t, k)))
            images[src] = Polynomial._trusted(algebra, image)
        return DenseOperator(algebra, R.weight, R.degree_bound, images)

    raise InvalidAutomorphism(f"unknown automorphism kind {psi.kind!r}")
