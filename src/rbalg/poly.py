"""Sparse commutative polynomials over an exact coefficient field.

An :class:`AlgebraSpec` fixes the coefficient field, the number of
variables, whether the algebra is unital, and an optional truncation
bound N (every monomial of total degree above N is identically zero;
that models the quotient by the ideal generated by the degree-(N+1)
monomials).  Non-unital algebras have no constant term anywhere.

Monomials are dense exponent vectors; polynomials are sparse mappings
monomial -> nonzero coefficient, canonical at all times.  The term
order used everywhere is (total degree, lexicographic exponents).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import MixedAlgebras, MixedFieldSpecs
from .fields import FieldElement, FieldSpec


@dataclass(frozen=True)
class Monomial:
    """A bare exponent vector; ``AlgebraSpec.admits`` says whether it is a
    basis monomial of an algebra."""

    exponents: Tuple[int, ...]

    def degree(self) -> int:
        return sum(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple([a + b for a, b in zip(self.exponents, other.exponents)]))

    def sort_key(self):
        return (self.degree(), self.exponents)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def to_text(self) -> str:
        factors = [
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(self.exponents)
            if e > 0
        ]
        return "*".join(factors) if factors else "1"

    def __repr__(self) -> str:
        return f"Monomial{self.exponents}"


class ProductRows(dict):
    """rows[i][j]: the position in exponents of the product of monomials i
    and j, or None when that product is not in the list.  Row i is built
    when it is first read: the whole row at once, or if ``grow`` entry by
    entry, each position found when first read and a product not yet in
    the list appended to it, with its degree."""

    def __init__(self, exponents: List[Tuple[int, ...]], grow: bool = False):
        super().__init__()
        self.exponents, self.degrees, self.grow = exponents, list(map(sum, exponents)), grow
        self.position = (_Positions if grow else dict)((e, i) for i, e in enumerate(exponents))
        if grow:
            self.position.rows = self

    def __missing__(self, i: int):
        a, position = self.exponents[i], self.position
        if self.grow:
            row = self[i] = _Row()
            row.a, row.rows = a, self
        else:
            row = self[i] = [position.get(tuple(map(add, a, b))) for b in self.exponents]
        return row


class _Positions(dict):
    __slots__ = ("rows",)

    def __missing__(self, e: Tuple[int, ...]) -> int:
        k = self[e] = len(self.rows.exponents)
        self.rows.exponents.append(e)
        self.rows.degrees.append(sum(e))
        return k


class _Row(dict):
    __slots__ = ("a", "rows")

    def __missing__(self, j: int) -> int:
        k = self[j] = self.rows.position[tuple(map(add, self.a, self.rows.exponents[j]))]
        return k


class BasisIndex(NamedTuple):
    """A list of basis monomials on indices: the ``monomials`` in
    canonical order, the ``position`` of each exponent tuple, their
    ``degrees`` and ``mul``, their ``ProductRows`` (None where a product
    is not listed, as above a truncation)."""

    monomials: Tuple[Monomial, ...]
    position: Dict[Tuple[int, ...], int]
    degrees: Sequence[int]
    mul: ProductRows

    @classmethod
    def of(cls, monomials: Iterable[Monomial], grow: bool = False) -> "BasisIndex":
        """The index of the basis monomials listed, in their order: with
        ``grow``, the start of an untruncated basis, to which positions,
        degrees and products append the monomials they reach beyond it."""
        monomials = tuple(monomials)
        mul = ProductRows([m.exponents for m in monomials], grow)
        return cls(monomials, mul.position, mul.degrees if grow else tuple(mul.degrees), mul)


def _json_typed(value, name: str, kind: type = int, nullable: bool = False):
    """A JSON document's field: value when its type is exactly kind (so a
    bool is no int), or null where nullable; else TypeError."""
    if type(value) is kind or nullable and value is None:
        return value
    raise TypeError(f"{name} must be {kind.__name__}{' or null' if nullable else ''}, got {value!r}")


def _json_entry(entries: dict, key, value, item: dict, name: str) -> None:
    """entries[key] = value for a JSON document's item, whose field name
    holds the key; a key already in entries is a TypeError naming it."""
    if key in entries:
        raise TypeError(f"{name} {item[name]!r} is repeated")
    entries[key] = value


def _accumulate(terms: dict, key, c: FieldElement) -> None:
    """terms[key] += c, keeping only nonzero coefficients: the one step
    that adds into a sparse term dict, keyed by monomial or tensor key."""
    prev = terms.get(key)
    total = c if prev is None else prev + c
    if total.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = total


def _exponent_tuples(total: int, nvars: int) -> Iterator[Tuple[int, ...]]:
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponent_tuples(total - first, nvars - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class AlgebraSpec:
    """A free commutative polynomial algebra, possibly non-unital/truncated."""

    field: FieldSpec
    nvars: int = 1
    unital: bool = False
    truncation: Optional[int] = None

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation bound must be >= 1")

    def min_degree(self) -> int:
        return 0 if self.unital else 1

    def monomial(self, *exponents: int) -> Monomial:
        if len(exponents) != self.nvars:
            raise ValueError(
                f"expected {self.nvars} exponents, got {len(exponents)}"
            )
        if not all(type(e) is int and e >= 0 for e in exponents):  # not 1.0 or True either
            raise ValueError(f"exponents must be non-negative integers, got {list(exponents)}")
        return Monomial(tuple(exponents))

    def one_monomial(self) -> Monomial:
        if not self.unital:
            raise ValueError("non-unital algebra has no constant monomial")
        return Monomial((0,) * self.nvars)

    def admits(self, m: Monomial) -> bool:
        """True when m is a basis monomial (nonzero in this algebra): the
        rule for polynomial terms, tensor keys and operator entries: the
        arity is the algebra's, every exponent is a non-negative int (not a
        bool), and the degree lies between the least one and the truncation."""
        exps = m.exponents
        if len(exps) != self.nvars or not all(type(e) is int and e >= 0 for e in exps):
            return False
        d = m.degree()
        if d < self.min_degree():
            return False
        if self.truncation is not None and d > self.truncation:
            return False
        return True

    def basis(self, max_degree: int) -> Iterator[Monomial]:
        """Basis monomials of degree <= max_degree in canonical order."""
        top = max_degree
        if self.truncation is not None:
            top = min(top, self.truncation)
        for d in range(self.min_degree(), top + 1):
            for exps in sorted(_exponent_tuples(d, self.nvars)):
                yield Monomial(exps)

    @cached_property
    def basis_index(self) -> BasisIndex:
        """The ``BasisIndex`` of basis(truncation), built once per algebra
        object (the frozen dataclass keeps it in its instance dict)."""
        if self.truncation is None:
            raise ValueError("only truncated algebras are finite-dimensional")
        return BasisIndex.of(self.basis(self.truncation))

    def dimension(self) -> int:
        return len(self.basis_index.monomials)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_string(),
            "nvars": self.nvars,
            "unital": self.unital,
            "truncation": self.truncation,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "AlgebraSpec":
        return AlgebraSpec(
            field=FieldSpec.from_string(data["field"]),
            nvars=_json_typed(data["nvars"], "nvars"),
            unital=_json_typed(data["unital"], "unital", bool),
            truncation=_json_typed(data.get("truncation"), "truncation", nullable=True),
        )


class Polynomial:
    """Immutable sparse polynomial attached to an AlgebraSpec."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: AlgebraSpec, terms: Optional[Dict[Monomial, FieldElement]] = None):
        clean: Dict[Monomial, FieldElement] = {}
        if terms:
            trunc = algebra.truncation
            for mono, coeff in terms.items():
                if coeff.spec != algebra.field:
                    raise MixedAlgebras("coefficient from a different field")
                if coeff.is_zero():
                    continue
                if trunc is not None and mono.degree() > trunc:
                    continue
                if not algebra.admits(mono):
                    raise ValueError(f"{mono!r} is not a basis monomial of the algebra")
                _accumulate(clean, mono, coeff)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, algebra: AlgebraSpec, terms: Dict[Monomial, FieldElement]) -> "Polynomial":
        """A polynomial on terms the library built canonical: nonzero
        coefficients of the algebra's field on its basis monomials."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "algebra", algebra)
        object.__setattr__(poly, "_terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(algebra: AlgebraSpec) -> "Polynomial":
        return Polynomial._trusted(algebra, {})

    @staticmethod
    def monomial(algebra: AlgebraSpec, mono: Monomial, coeff: Optional[FieldElement] = None) -> "Polynomial":
        if coeff is None:
            coeff = algebra.field.one()
        return Polynomial(algebra, {mono: coeff})

    @staticmethod
    def one(algebra: AlgebraSpec) -> "Polynomial":
        return Polynomial.monomial(algebra, algebra.one_monomial())

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Terms as (monomial, coefficient), canonically ordered."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, mono: Monomial) -> FieldElement:
        return self._terms.get(mono, self.algebra.field.zero())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree() for m in self._terms)

    # -- arithmetic -----------------------------------------------------------

    def _require_same_algebra(self, other: "Polynomial") -> None:
        if self.algebra != other.algebra:
            raise MixedAlgebras("polynomials belong to different algebras")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_algebra(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            _accumulate(terms, mono, coeff)
        return Polynomial._trusted(self.algebra, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.algebra, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: FieldElement) -> "Polynomial":
        if c.spec != self.algebra.field:
            raise MixedFieldSpecs(f"cannot mix {self.algebra.field} with {c.spec}")
        if c.is_zero():
            return Polynomial.zero(self.algebra)
        return Polynomial._trusted(self.algebra, {m: c * k for m, k in self._terms.items()})

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.algebra.field.from_int(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.__rmul__(other)
        self._require_same_algebra(other)
        trunc = self.algebra.truncation
        out: Dict[Monomial, FieldElement] = {}
        for m1, c1 in self._terms.items():
            d1 = m1.degree()
            for m2, c2 in other._terms.items():
                if trunc is not None and d1 + m2.degree() > trunc:
                    continue
                _accumulate(out, m1 * m2, c1 * c2)
        return Polynomial._trusted(self.algebra, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 1:
            raise ValueError("polynomial powers need k >= 1")
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = [f"{c.short_str()}*{m.to_text()}" for m, c in self.terms()]
        return " + ".join(parts)

    def to_json_terms(self) -> list:
        return [
            {"exponents": list(m.exponents), "coeff": c.short_str()}
            for m, c in self.terms()
        ]

    @staticmethod
    def from_json_terms(algebra: AlgebraSpec, data: Iterable[dict]) -> "Polynomial":
        terms = {}
        for item in data:
            mono = algebra.monomial(*item["exponents"])
            _json_entry(terms, mono, algebra.field.parse(item["coeff"]), item, "exponents")
        return Polynomial(algebra, terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def linear_combination(
    a: Polynomial, b: Polynomial, c1: FieldElement, c2: FieldElement
) -> Polynomial:
    """c1*a + c2*b, canonical."""
    if a.algebra != b.algebra:
        raise MixedAlgebras("polynomials belong to different algebras")
    return a.scale(c1) + b.scale(c2)
