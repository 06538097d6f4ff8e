"""Tensors over a unital polynomial algebra and the associative
Yang-Baxter equation of weight w,

    r13 r12 - r12 r23 + r23 r13 = w r13,

an equation in A x A x A for r = sum a_i x b_i in A x A.  Solutions
induce Rota-Baxter operators of weight -w through u -> sum a_i u b_i.

Residuals are computed without truncation (exact through twice the
support degree) so that leading-term arguments remain visible instead
of being truncated away.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .errors import NonUnitalAlgebra, SearchBudgetExceeded
from .fields import FieldElement
from .operators import DenseOperator
from .poly import AlgebraSpec, Monomial, Polynomial

TensorKey = Tuple[Monomial, ...]


class TensorElement:
    """Sparse element of A x A (arity 2) or A x A x A (arity 3)."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(
        self,
        algebra: AlgebraSpec,
        arity: int,
        terms: Optional[Dict[TensorKey, FieldElement]] = None,
    ):
        if not algebra.unital:
            raise NonUnitalAlgebra("tensor computations require a unital algebra")
        if algebra.truncation is not None:
            raise ValueError("tensor computations are exact; use an untruncated algebra")
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        clean: Dict[TensorKey, FieldElement] = {}
        if terms:
            for key, coeff in terms.items():
                if len(key) != arity:
                    raise ValueError("tensor key arity mismatch")
                if coeff.is_zero():
                    continue
                acc = clean.get(key)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = total
        self.algebra = algebra
        self.arity = arity
        self.terms = clean

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(
            self.terms.items(), key=lambda kv: tuple(m.sort_key() for m in kv[0])
        )

    def coeff(self, key: TensorKey) -> FieldElement:
        return self.terms.get(key, self.algebra.field.zero())

    def __add__(self, other: "TensorElement") -> "TensorElement":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        return TensorElement(self.algebra, self.arity, terms)

    def __neg__(self) -> "TensorElement":
        return TensorElement(
            self.algebra, self.arity, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale(self, c: FieldElement) -> "TensorElement":
        return TensorElement(
            self.algebra, self.arity, {k: c * v for k, v in self.terms.items()}
        )

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product of equal-arity tensors."""
        if self.arity != other.arity:
            raise ValueError("tensor arities differ")
        out: Dict[TensorKey, FieldElement] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a * b for a, b in zip(k1, k2))
                piece = c1 * c2
                acc = out.get(key)
                total = piece if acc is None else acc + piece
                if total.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = total
        return TensorElement(self.algebra, self.arity, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "TensorElement(0)"
        parts = [
            f"{c.short_str()}*(" + " x ".join(m.to_text() for m in key) + ")"
            for key, c in self.items()
        ]
        return "TensorElement(" + " + ".join(parts) + ")"

    # -- embeddings -----------------------------------------------------------

    def embed(self, positions: Tuple[int, int]) -> "TensorElement":
        """Embed an arity-2 tensor into arity 3 with 1 in the free slot."""
        if self.arity != 2:
            raise ValueError("embedding starts from an arity-2 tensor")
        one = self.algebra.one_monomial()
        terms = {}
        for (a, b), coeff in self.terms.items():
            key = [one, one, one]
            key[positions[0]] = a
            key[positions[1]] = b
            terms[tuple(key)] = coeff
        return TensorElement(self.algebra, 3, terms)

    def marginal(self, drop: int) -> "TensorElement":
        """Project an arity-3 tensor with unit in slot ``drop`` back to arity 2."""
        if self.arity != 3:
            raise ValueError("marginal starts from an arity-3 tensor")
        terms: Dict[TensorKey, FieldElement] = {}
        for key, coeff in self.terms.items():
            if key[drop].degree() != 0:
                raise ValueError(f"slot {drop} is not the unit in {key}")
            kept = tuple(m for i, m in enumerate(key) if i != drop)
            terms[kept] = terms.get(kept, self.algebra.field.zero()) + coeff
        return TensorElement(self.algebra, 2, terms)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra.to_json_dict(),
            "arity": self.arity,
            "terms": [
                {"exps": [list(m.exponents) for m in key], "coeff": c.short_str()}
                for key, c in self.items()
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TensorElement":
        algebra = AlgebraSpec.from_json_dict(data["algebra"])
        terms = {}
        for item in data["terms"]:
            key = tuple(algebra.monomial(*e) for e in item["exps"])
            terms[key] = algebra.field.parse(item["coeff"])
        return TensorElement(algebra, int(data["arity"]), terms)


def aybe_residual(r: TensorElement, weight: FieldElement) -> TensorElement:
    """r13 r12 - r12 r23 + r23 r13 - weight * r13, exact in A x A x A."""
    if r.arity != 2:
        raise ValueError("the equation takes an arity-2 tensor")
    r12 = r.embed((0, 1))
    r13 = r.embed((0, 2))
    r23 = r.embed((1, 2))
    return r13 * r12 - r12 * r23 + r23 * r13 - r13.scale(weight)


def operator_from_tensor(
    r: TensorElement, degree_bound: int, weight: FieldElement
) -> DenseOperator:
    """The operator u -> sum a_i * u * b_i induced by r = sum a_i x b_i.

    ``weight`` stamps the returned operator; a tensor solving the
    equation at weight w yields a Rota-Baxter operator of weight -w.
    """
    algebra = r.algebra
    images = {}
    for src in algebra.basis(degree_bound):
        image = Polynomial.zero(algebra)
        for (a, b), coeff in r.terms.items():
            image = image + Polynomial.monomial(algebra, a * src * b, coeff)
        images[src] = image
    return DenseOperator(algebra, weight, degree_bound, images)


def aybe_grid_search(
    algebra: AlgebraSpec,
    support_degree: int,
    grid: List[FieldElement],
    weight: FieldElement,
    max_cells: int = 16,
    budget: int = 2_000_000,
) -> List[TensorElement]:
    """All tensors with the given support and grid coefficients that
    solve the equation exactly.  A falsification-style witness over a
    finite grid, not a symbolic solution of the equation.

    The residual is quadratic in the cell coefficients, so the arity-3
    key contributions of every cell pair are precomputed once and each
    grid assignment is evaluated on raw coefficient values.
    """
    if not algebra.unital:
        raise NonUnitalAlgebra("tensor computations require a unital algebra")
    basis = list(algebra.basis(support_degree))
    cells = [(a, b) for a in basis for b in basis]
    ncells = len(cells)
    if ncells > max_cells:
        raise SearchBudgetExceeded(
            f"{ncells} support cells exceed the cap of {max_cells}"
        )
    total = len(grid) ** ncells
    if total > budget:
        raise SearchBudgetExceeded(
            f"{total} candidate tensors exceed the budget of {budget}"
        )
    # quadratic structure: contribution keys of each ordered cell pair
    pair_keys = []
    for a_i, b_i in cells:
        row = []
        for a_j, b_j in cells:
            row.append(
                (
                    ((a_i * a_j).exponents, b_j.exponents, b_i.exponents),
                    (a_i.exponents, (b_i * a_j).exponents, b_j.exponents),
                    (a_j.exponents, a_i.exponents, (b_i * b_j).exponents),
                )
            )
        pair_keys.append(row)
    one_exps = algebra.one_monomial().exponents
    linear_keys = [
        (a.exponents, one_exps, b.exponents) for a, b in cells
    ]
    p = algebra.field.p
    raw_grid = [g.value for g in grid]
    solutions = []
    raw_weight = weight.value
    for indices in itertools.product(range(len(grid)), repeat=ncells):
        live = [(i, raw_grid[g]) for i, g in enumerate(indices) if raw_grid[g] != 0]
        acc: Dict[tuple, object] = {}
        for i, ci in live:
            row = pair_keys[i]
            lin = linear_keys[i]
            acc[lin] = acc.get(lin, 0) - raw_weight * ci
            for j, cj in live:
                prod = ci * cj
                k1, k2, k3 = row[j]
                acc[k1] = acc.get(k1, 0) + prod
                acc[k2] = acc.get(k2, 0) - prod
                acc[k3] = acc.get(k3, 0) + prod
        if p is None:
            ok = all(v == 0 for v in acc.values())
        else:
            ok = all(v % p == 0 for v in acc.values())
        if ok:
            terms = {
                cells[i]: grid[g]
                for i, g in enumerate(indices)
                if not grid[g].is_zero()
            }
            solutions.append(TensorElement(algebra, 2, terms))
    return solutions
