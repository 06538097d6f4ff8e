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

from typing import Dict, List, Optional, Tuple

from .errors import InvalidParams, MixedFieldSpecs, NonUnitalAlgebra, SearchBudgetExceeded
from .fields import FieldElement
from .operators import DenseOperator
from .poly import AlgebraSpec, BasisIndex, Monomial, Polynomial, _accumulate, _json_entry, _json_typed
from .rbcheck import _on_integers

TensorKey = Tuple[Monomial, ...]
MAX_CELLS = 256  # support cells aybe_grid_search takes: its plan grows with their square


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
        for key, coeff in (terms or {}).items():
            if len(key) != arity:
                raise ValueError("tensor key arity mismatch")
            if not all(map(algebra.admits, key)):
                raise ValueError(f"tensor key {key} has a monomial outside the algebra")
            if coeff.spec != algebra.field:
                raise MixedFieldSpecs(f"cannot mix {algebra.field} with {coeff.spec}")
            _accumulate(clean, key, coeff)
        self.algebra = algebra
        self.arity = arity
        self.terms = clean

    @classmethod
    def _trusted(cls, algebra: AlgebraSpec, arity: int, terms: Dict[TensorKey, FieldElement]) -> "TensorElement":
        """A tensor on terms the library built canonical: keys of admitted
        monomials and nonzero coefficients of the algebra's field."""
        tensor = object.__new__(cls)
        tensor.algebra, tensor.arity, tensor.terms = algebra, arity, terms
        return tensor

    def _require_same(self, other: "TensorElement") -> None:
        if self.algebra.field != other.algebra.field:
            raise MixedFieldSpecs(f"cannot mix {self.algebra.field} with {other.algebra.field}")
        if self.algebra != other.algebra or self.arity != other.arity:
            raise ValueError("tensors of different algebras or arities")

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
        self._require_same(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(terms, key, coeff)
        return TensorElement._trusted(self.algebra, self.arity, terms)

    def __neg__(self) -> "TensorElement":
        return TensorElement._trusted(self.algebra, self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale(self, c: FieldElement) -> "TensorElement":
        if c.spec != self.algebra.field:
            raise MixedFieldSpecs(f"cannot mix {self.algebra.field} with {c.spec}")
        return TensorElement._trusted(self.algebra, self.arity, {k: c * v for k, v in self.terms.items()} if c else {})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product of equal-arity tensors."""
        if self.arity != other.arity:
            raise ValueError("tensor arities differ")
        self._require_same(other)
        out: Dict[TensorKey, FieldElement] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate(out, tuple(a * b for a, b in zip(k1, k2)), c1 * c2)
        return TensorElement._trusted(self.algebra, self.arity, out)

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
        return TensorElement._trusted(self.algebra, 3, terms)

    def marginal(self, drop: int) -> "TensorElement":
        """Project an arity-3 tensor with unit in slot ``drop`` back to arity 2."""
        if self.arity != 3:
            raise ValueError("marginal starts from an arity-3 tensor")
        terms: Dict[TensorKey, FieldElement] = {}
        for key, coeff in self.terms.items():
            if key[drop].degree() != 0:
                raise ValueError(f"slot {drop} is not the unit in {key}")
            _accumulate(terms, tuple(m for i, m in enumerate(key) if i != drop), coeff)
        return TensorElement._trusted(self.algebra, 2, terms)

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
            _json_entry(terms, key, algebra.field.parse(item["coeff"]), item, "exps")
        return TensorElement(algebra, _json_typed(data["arity"], "arity"), terms)


def aybe_residual(r: TensorElement, weight: FieldElement) -> TensorElement:
    """r13 r12 - r12 r23 + r23 r13 - weight * r13, exact in A x A x A."""
    if r.arity != 2:
        raise ValueError("the equation takes an arity-2 tensor")
    if weight.spec != r.algebra.field:
        raise MixedFieldSpecs(f"cannot mix {r.algebra.field} with {weight.spec}")
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
        image = {}
        for (a, b), coeff in r.terms.items():
            _accumulate(image, a * src * b, coeff)
        images[src] = Polynomial._trusted(algebra, image)
    return DenseOperator(algebra, weight, degree_bound, images)


def aybe_grid_search(
    algebra: AlgebraSpec,
    support_degree: int,
    grid: List[FieldElement],
    weight: FieldElement,
    budget: int = 2_000_000,
) -> List[TensorElement]:
    """All tensors with the given support and grid coefficients that
    solve the equation exactly.  A falsification-style witness over a
    finite grid, not a symbolic solution of the equation.

    The residual is quadratic in the cell coefficients.  Cells are
    assigned depth first in their canonical order, trying grid values
    in grid order, so solutions come out in the order of the full grid
    product.  Each key of A x A x A is tested once the last cell that
    touches it is assigned, and a partial assignment with a nonzero
    closed key is abandoned.  ``budget`` caps the search nodes, one per
    grid value tried at a cell, and ``MAX_CELLS`` the support cells.

    Monomials are positions in the ``BasisIndex`` of basis(2 *
    support_degree), the support basis first, multiplied through its
    ``mul`` rows; a key (x, y, z) is the int (x * M + y) * M + z, M the
    index size.  Over Q the grid and the weight are scaled to ints by L,
    the lcm of their denominators (``rbcheck._on_integers``): the residual
    is homogeneous of degree 2 in (r, w), so each key's sum scales by L^2
    and no zero test moves.
    """
    if not algebra.unital:
        raise NonUnitalAlgebra("tensor computations require a unital algebra")
    if support_degree < 0:
        raise InvalidParams(f"support degree must be >= 0, got {support_degree}")
    if any(c.spec != algebra.field for c in [weight, *grid]):
        raise MixedFieldSpecs("grid values and weight must lie in the algebra's field")
    basis = list(algebra.basis(support_degree))
    n = len(basis)
    ncells = n * n
    if ncells > MAX_CELLS:
        raise SearchBudgetExceeded(f"{ncells} support cells exceed the cap of {MAX_CELLS}")
    if algebra.truncation is not None:
        raise ValueError("tensor computations are exact; use an untruncated algebra")
    monomials, _, _, mul = BasisIndex.of(algebra.basis(2 * support_degree))
    M = len(monomials)
    cells = [divmod(k, n) for k in range(ncells)]  # cell k is basis[a] x basis[b]
    # plans[k]: (key id, i, c) with c * raw[i] * raw[k] the share in that key
    # of the ordered pairs with max(i, k) = k; raw[ncells] = -weight is the
    # factor of cell k's linear term, on the key (a, 1, b) with 1 at position 0
    key_ids: Dict[int, int] = {}
    plans: List[List[Tuple[int, int, int]]] = []
    for k, (a_k, b_k) in enumerate(cells):
        pieces = [(a_k * M * M + b_k, ncells, 1)]
        for i in range(k + 1):
            for s, t in dict.fromkeys([(i, k), (k, i)]):
                (a_s, b_s), (a_t, b_t) = cells[s], cells[t]
                pieces += [
                    ((mul[a_s][a_t] * M + b_t) * M + b_s, i, 1),
                    ((a_s * M + mul[b_s][a_t]) * M + b_t, i, -1),
                    ((a_t * M + a_s) * M + mul[b_s][b_t], i, 1),
                ]
        terms: Dict[Tuple[int, int], int] = {}
        for key, i, sign in pieces:
            slot = (key_ids.setdefault(key, len(key_ids)), i)
            terms[slot] = terms.get(slot, 0) + sign
        plans.append([(kid, i, c) for (kid, i), c in terms.items() if c])
    # closes[k]: the keys that no cell after k touches
    last = [0] * len(key_ids)
    for k, plan in enumerate(plans):
        for kid, _, _ in plan:
            last[kid] = k
    closes: List[List[int]] = [[] for _ in cells]
    for kid, k in enumerate(last):
        closes[k].append(kid)

    p = algebra.field.p
    w, raw_grid = weight.value, [g.value for g in grid]
    if p is None:
        w, raw_grid = _on_integers(w, raw_grid)
    raw = [0] * ncells + [-w]
    acc = [0] * len(key_ids)
    chosen = [0] * ncells
    support = [(basis[a], basis[b]) for a, b in cells]
    solutions: List[TensorElement] = []
    nodes = 0

    def place(k: int) -> None:
        nonlocal nodes
        if k == ncells:  # distinct cells, nonzero grid values of the algebra's field
            terms = {support[i]: grid[j] for i, j in enumerate(chosen) if raw_grid[j]}
            solutions.append(TensorElement._trusted(algebra, 2, terms))
            return
        for g, v in enumerate(raw_grid):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"AYBE grid budget of {budget} nodes exhausted")
            raw[k] = v
            undo = []
            if v:
                for kid, i, c in plans[k]:
                    if raw[i]:
                        undo.append((kid, acc[kid]))
                        acc[kid] += c * raw[i] * v
            if p is None:
                ok = not any(acc[kid] for kid in closes[k])
            else:
                ok = not any(acc[kid] % p for kid in closes[k])
            if ok:
                chosen[k] = g
                place(k + 1)
            for kid, old in reversed(undo):
                acc[kid] = old

    place(0)
    return solutions
