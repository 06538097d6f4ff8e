"""Brute-force discovery of monomial Rota-Baxter operators on truncated
univariate algebras, and matching of discovered tables against the
classified parametric families.

The search enumerates shape functions (source exponent -> optional
target exponent) depth-first with sound pruning: for every monomial
pair the degree bookkeeping of the Rota-Baxter identity in the quotient
must admit SOME nonzero coefficient assignment, using only the fact
that stored coefficients are nonzero.  Each pair is checked once per
option of its last referenced source, from a table compiled once per
(u, v, t[u], t[v]) and filed under that source.  Surviving shapes get
their coefficients from exact constraint propagation: substituting known
values turns per-degree constraints into polynomials of degree <= 2 in
one unknown, solved exactly over the field; genuinely free coefficients
(family parameters) are instantiated from a finite strategy grid; and
coefficients constrained by nothing at all -- truncation artifacts that
need not extend to the full algebra -- are set to 1 and flagged as
under-constrained.

Every candidate table is re-verified by the exhaustive pairwise
identity check before being reported, so the output is sound by
construction.  Completeness is relative to the seeding grid: a family
member appears in the output exactly when its free parameters lie on
the grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import cache, partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .construct import (
    SplittingSpec,
    WeightZeroFamilyParams,
    construct_splitting,
    construct_weight_one_univariate,
    construct_weight_zero,
    split_constant_part,
)
from .errors import (
    DenominatorVanishes,
    InvalidParams,
    NotASubalgebra,
    SearchBudgetExceeded,
)
from .fields import FieldElement, FieldKind, FieldSpec
from .linalg import exact_fraction_sqrt
from .operators import (
    AutomorphismSpec,
    MonomialOperatorTable,
    op_conjugate,
    operators_agree,
)
from .poly import AlgebraSpec, Monomial
from .rbcheck import rb_check

ABSENT = -1

_SOLVER_PRIME_CAP = 4096


@dataclass(frozen=True)
class CoefficientStrategy:
    """How free coefficients are instantiated during the search."""

    grid: Tuple[FieldElement, ...]
    max_seeds: int = 4
    shape_budget: int = 1_000_000


def default_strategy(field: FieldSpec) -> CoefficientStrategy:
    if field.kind is FieldKind.RATIONALS:
        values = [
            field.from_int(1),
            field.from_int(-1),
            field.from_int(2),
            field.from_int(-2),
            field.element(1, 2),
            field.element(3, 5),
        ]
    else:
        if field.p > 64:
            raise InvalidParams(
                "default grids over GF(p) are desk-scale only (p <= 64); "
                "pass an explicit strategy"
            )
        values = [field.from_int(v) for v in range(1, field.p)]
    return CoefficientStrategy(tuple(values))


# -- shape-level pruning -------------------------------------------------------


def _compile_pair(u: int, v: int, tu: int, tv: int, lam_one: bool, D: int):
    """Degree bookkeeping of the identity for the pair (x^u, x^v), u <= v,
    from its two targets: (last source read, (lhs degree or None, groups)).

    groups holds each inner term x^i, i <= D, as (i, certain, other
    indices); it is certain when its coefficient cannot cancel, i.e. it
    is one product of nonzero entries (for u == v, 2*a_u*a_i).
    """
    inner = []
    if tu >= 0 and tu + v <= D:
        inner.append(tu + v)
    if tv >= 0 and u + tv <= D and u != v:  # for a square, the term above again
        inner.append(u + tv)
    if lam_one and u + v <= D:
        inner.append(u + v)
    idx = list(dict.fromkeys(inner))
    groups = tuple(
        (i, inner.count(i) == 1, tuple(j for j in idx if j != i)) for i in idx
    )
    lhs = tu + tv if tu >= 0 and tv >= 0 and tu + tv <= D else None
    return max((v, *idx)), (lhs, groups)


def _pair_holds(t, lhs, groups) -> bool:
    """Sound filter on a compiled pair: False only when no nonzero
    coefficients satisfy it, i.e. no inner image reaches the left-hand
    degree, or another degree gets a lone certain term.
    """
    hit = lhs is None
    for i, certain, others in groups:
        d = t[i]
        if d == lhs:
            hit = True
        elif certain and d != ABSENT:
            for j in others:
                if t[j] == d:
                    break
            else:
                return False
    return hit


def _respects_kernel_image_structure(t, sources: Sequence[int], D: int) -> bool:
    """Weight-one structure filter for a complete shape: no present
    target may be an absent source.  Nonzero-weight operators on the
    full algebra have disjoint kernel and image (both subalgebras), so a
    shape whose image meets its kernel is a quotient-only artifact and
    is discarded.
    """
    for n in sources:
        target = t[n]
        if target >= 0 and t[target] == ABSENT:
            return False
    return True


def _respects_class_closure(t, sources: Sequence[int], D: int, unital: bool) -> bool:
    """Weight-zero residue-class structure check for a complete shape.

    With m* the gcd of the present targets, any extendable table has,
    within each source class mod m*, a constant target shift, and its
    absent members are exactly those whose shifted target overflows the
    bound.  Mixed classes with an in-range hole cannot come from an
    operator on the full algebra and are discarded; the quotient-only
    solutions this removes are deliberate (the search mirrors the
    full-algebra class structure).
    """
    present = [(n, t[n]) for n in sources if t[n] >= 0]
    if not present:
        return True
    m_star = math.gcd(*(target for _, target in present))
    if m_star == 0:
        return True  # every image is the constant; no class structure
    min_target = 0 if unital else 1
    by_class: Dict[int, List[int]] = {}
    for n in sources:
        by_class.setdefault(n % m_star, []).append(n)
    for members in by_class.values():
        shift = None
        for n in members:
            if t[n] >= 0:
                if shift is None:
                    shift = t[n] - n
                elif t[n] - n != shift:
                    return False
        if shift is None:
            continue  # fully absent class
        for n in members:
            if t[n] == ABSENT and min_target <= n + shift <= D:
                return False
    return True


# -- coefficient solving ---------------------------------------------------------


def _shape_equations(t, sources: Sequence[int], lam_one: bool, D: int):
    """Per-degree constraints as lists of (sign, vars) terms.

    vars is a 1-tuple (linear, from the weight term) or a 2-tuple
    (product of two coefficients); the identity contributes the pair
    product positively and the three inner applications negatively.
    """
    equations = []
    for ui in range(len(sources)):
        u = sources[ui]
        for vi in range(ui, len(sources)):
            v = sources[vi]
            tu, tv = t[u], t[v]
            per_degree: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
            if tu >= 0 and tv >= 0 and tu + tv <= D:
                per_degree.setdefault(tu + tv, []).append((1, (u, v)))
            if tu >= 0:
                ia = tu + v
                if ia <= D and t[ia] >= 0:
                    per_degree.setdefault(t[ia], []).append((-1, (u, ia)))
            if tv >= 0:
                ib = u + tv
                if ib <= D and t[ib] >= 0:
                    per_degree.setdefault(t[ib], []).append((-1, (v, ib)))
            if lam_one:
                ic = u + v
                if ic <= D and t[ic] >= 0:
                    per_degree.setdefault(t[ic], []).append((-1, (ic,)))
            for terms in per_degree.values():
                equations.append(terms)
    return equations


def _substitute(terms, values, field: FieldSpec):
    """Split an equation into (constant, linear, quadratic) given values."""
    const = field.zero()
    linear: Dict[int, FieldElement] = {}
    quad: Dict[Tuple[int, int], FieldElement] = {}
    one = field.one()
    for sign, variables in terms:
        coeff = one if sign > 0 else -one
        unknown = []
        for var in variables:
            val = values.get(var)
            if val is None:
                unknown.append(var)
            else:
                coeff = coeff * val
        if not unknown:
            const = const + coeff
        elif len(unknown) == 1:
            x = unknown[0]
            linear[x] = linear.get(x, field.zero()) + coeff
        else:
            key = tuple(sorted(unknown))
            quad[key] = quad.get(key, field.zero()) + coeff
    linear = {x: c for x, c in linear.items() if not c.is_zero()}
    quad = {k: c for k, c in quad.items() if not c.is_zero()}
    return const, linear, quad


def _nonzero_roots(a2: FieldElement, a1: FieldElement, a0: FieldElement):
    """Roots of a2 x^2 + a1 x + a0 in the field, zero excluded."""
    field = a2.spec
    if a2.is_zero():
        if a1.is_zero():
            return [] if not a0.is_zero() else None  # None: vacuous, no info
        root = -a0 / a1
        return [] if root.is_zero() else [root]
    if field.kind is FieldKind.RATIONALS:
        disc = a1 * a1 - 4 * a2 * a0
        sqrt = exact_fraction_sqrt(disc.value)
        if sqrt is None:
            return []
        s = field.from_fraction(sqrt)
        roots = {(-a1 + s) / (2 * a2), (-a1 - s) / (2 * a2)}
        return sorted((r for r in roots if not r.is_zero()), key=lambda r: r.sort_key())
    p = field.p
    if p > _SOLVER_PRIME_CAP:
        raise SearchBudgetExceeded(
            f"quadratic root enumeration over GF({p}) is beyond desk scale"
        )
    c2, c1, c0 = a2.value, a1.value, a0.value
    return [field.from_int(v) for v in range(1, p) if (c2 * v * v + c1 * v + c0) % p == 0]


def _solve_coefficients(
    equations,
    unknowns: Sequence,
    field: FieldSpec,
    strategy: CoefficientStrategy,
):
    """All full nonzero assignments: (values, seeded, orphans) triples."""
    solutions = []
    unknown_order = list(unknowns)

    def recurse(values: dict, seeded: tuple):
        values = dict(values)
        while True:
            progress = False
            active = []
            for terms in equations:
                const, linear, quad = _substitute(terms, values, field)
                varset = set(linear)
                for pair in quad:
                    varset.update(pair)
                if not varset:
                    if not const.is_zero():
                        return
                    continue
                if len(varset) == 1:
                    (x,) = varset
                    a2 = quad.get((x, x), field.zero())
                    a1 = linear.get(x, field.zero())
                    roots = _nonzero_roots(a2, a1, const)
                    if roots is None:
                        continue
                    if not roots:
                        return
                    if len(roots) == 1:
                        values[x] = roots[0]
                        progress = True
                    else:
                        for root in roots:
                            branched = dict(values)
                            branched[x] = root
                            recurse(branched, seeded)
                        return
                else:
                    active.append(varset)
            if progress:
                continue
            remaining = [x for x in unknown_order if x not in values]
            if not remaining:
                solutions.append((values, seeded, ()))
                return
            mentioned = set()
            for varset in active:
                mentioned.update(varset)
            seedable = [x for x in remaining if x in mentioned]
            if not seedable:
                # truncation artifacts: no constraint mentions them at all
                for x in remaining:
                    values[x] = field.one()
                solutions.append((values, seeded, tuple(remaining)))
                return
            if len(seeded) >= strategy.max_seeds:
                return
            x = seedable[0]
            for value in strategy.grid:
                if value.is_zero():
                    continue
                branched = dict(values)
                branched[x] = value
                recurse(branched, seeded + (x,))
            return

    recurse({}, ())
    return solutions


# -- family matching ---------------------------------------------------------


class MatchKind(Enum):
    WEIGHT_ZERO_FAMILY = "weight_zero_family"
    WEIGHT_ONE_FAMILY = "weight_one_family"
    TRIVIAL_ZERO = "trivial_zero"
    TRIVIAL_MINUS_LAMBDA = "trivial_minus_lambda"
    SPLITTING_CONJUGATE = "splitting_conjugate"
    UNMATCHED = "unmatched"


@dataclass(frozen=True)
class FamilyMatch:
    kind: MatchKind
    params: Optional[WeightZeroFamilyParams] = None
    alpha: Optional[FieldElement] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.params is not None:
            out["m"] = self.params.m
            out["classes"] = {
                str(b): [p, q.short_str()] for b, (p, q) in sorted(self.params.classes.items())
            }
        if self.alpha is not None:
            out["alpha"] = self.alpha.short_str()
        if self.note:
            out["note"] = self.note
        return out


def _divisors_desc(n: int) -> List[int]:
    return [d for d in range(n, 0, -1) if n % d == 0]


def _match_weight_zero(table: MonomialOperatorTable) -> Optional[FamilyMatch]:
    algebra = table.algebra
    D = table.degree_bound
    field = algebra.field
    g = math.gcd(*(dst.exponents[0] for _, dst in table.entries.values()))
    if g == 0:
        return None
    for m in _divisors_desc(g):
        residues = range(0, m) if algebra.unital else range(1, m + 1)
        classes = {}
        ok = True
        for b in residues:
            members = [
                n
                for n in range(algebra.min_degree(), D + 1)
                if (n % m if algebra.unital else (n - 1) % m + 1) == b
            ]
            defined = [n for n in members if table.entries.get(algebra.monomial(n))]
            if not defined:
                classes[b] = (0, field.zero())
                continue
            n0 = defined[0]
            a0 = n0 // m if algebra.unital else (n0 - b) // m
            coeff, dst = table.entries[algebra.monomial(n0)]
            T0 = dst.exponents[0]
            if T0 % m != 0:
                ok = False
                break
            p = T0 // m - a0
            if p < 1:
                ok = False
                break
            classes[b] = (p, coeff * field.from_int(m * (a0 + p)))
        if not ok:
            continue
        try:
            params = WeightZeroFamilyParams(m, classes)
            rebuilt = construct_weight_zero(params, algebra, D)
        except (InvalidParams, DenominatorVanishes):
            continue
        if rebuilt.entries == table.entries:
            return FamilyMatch(MatchKind.WEIGHT_ZERO_FAMILY, params=params)
    return None


def _match_weight_one(table: MonomialOperatorTable) -> Optional[FamilyMatch]:
    algebra = table.algebra
    if algebra.unital or not table.is_diagonal():
        return None
    hit = table.entries.get(algebra.monomial(1))
    if hit is None:
        return None
    alpha = hit[0]
    try:
        rebuilt = construct_weight_one_univariate(alpha, algebra, table.degree_bound)
    except DenominatorVanishes:
        return None
    if rebuilt.entries == table.entries:
        return FamilyMatch(MatchKind.WEIGHT_ONE_FAMILY, alpha=alpha)
    return None


def _match_splitting_conjugate(table: MonomialOperatorTable) -> Optional[FamilyMatch]:
    """Detect unital constant-image tables conjugate to the splitting
    operator with parts <x> (killed) and the constants.

    Normalized to weight -1 the table must read R(x^n) = a^n * 1 with
    R(1) = 1; scaling x -> x/a then shifting x -> x - 1 must then land
    exactly on the splitting operator.
    """
    algebra = table.algebra
    field = algebra.field
    if not (algebra.unital and algebra.nvars == 1):
        return None
    one_mono = algebra.one_monomial()
    if any(dst != one_mono for _, dst in table.entries.values()):
        return None
    scale = -field.one() / table.weight
    entries = {src: (scale * c, dst) for src, (c, dst) in table.entries.items()}
    normalized = MonomialOperatorTable(algebra, -field.one(), table.degree_bound, entries)
    hit1 = normalized.entries.get(algebra.monomial(1))
    hit0 = normalized.entries.get(one_mono)
    if hit1 is None or hit0 is None or not hit0[0].is_one():
        return None
    alpha = hit1[0]
    for n in range(0, table.degree_bound + 1):
        hit = normalized.entries.get(algebra.monomial(n))
        if hit is None or hit[0] != alpha**n:
            return None
    descaled = op_conjugate(normalized, AutomorphismSpec.scaling((alpha.inverse(),)))
    shifted = op_conjugate(descaled, AutomorphismSpec.shift())
    splitting = construct_splitting(
        split_constant_part(), -field.one(), algebra, table.degree_bound
    )
    if operators_agree(shifted, splitting, table.degree_bound):
        return FamilyMatch(MatchKind.SPLITTING_CONJUGATE, alpha=alpha)
    return None


def match_family(table: MonomialOperatorTable) -> FamilyMatch:
    """Identify a verified table within the classified families.

    Reconstruction is entrywise: a match is reported only when the
    matching constructor reproduces the table exactly up to its bound.
    """
    algebra = table.algebra
    field = algebra.field
    if not table.entries:
        return FamilyMatch(MatchKind.TRIVIAL_ZERO)
    if not table.weight.is_zero():
        minus = -table.weight
        if all(
            table.entries.get(m) == (minus, m)
            for m in algebra.basis(table.degree_bound)
        ):
            return FamilyMatch(MatchKind.TRIVIAL_MINUS_LAMBDA)
        if all(
            coeff == minus and dst == src
            for src, (coeff, dst) in table.entries.items()
        ):
            # acts as -weight on its support and kills the rest; it is a
            # splitting operator exactly when both parts are subalgebras
            members = set(table.entries)
            try:
                rebuilt = construct_splitting(
                    SplittingSpec(lambda m: m in members),
                    table.weight,
                    algebra,
                    table.degree_bound,
                )
            except NotASubalgebra:
                rebuilt = None
            if rebuilt is not None and rebuilt.entries == table.entries:
                return FamilyMatch(
                    MatchKind.SPLITTING_CONJUGATE, note="already in splitting form"
                )
    if algebra.nvars != 1:
        return FamilyMatch(MatchKind.UNMATCHED, note="multivariate table")
    if table.weight.is_zero():
        found = _match_weight_zero(table)
        if found:
            return found
    elif table.weight.is_one():
        found = _match_weight_one(table)
        if found:
            return found
    if not table.weight.is_zero():
        found = _match_splitting_conjugate(table)
        if found:
            return found
    return FamilyMatch(MatchKind.UNMATCHED)


# -- kernel/image obstructions ------------------------------------------------


@dataclass(frozen=True)
class KernelObstruction:
    kind: str  # "kernel_image_overlap" or "target_collision"
    monomials: Tuple[Monomial, ...]


def check_kernel_obstructions(
    table: MonomialOperatorTable,
) -> Optional[KernelObstruction]:
    """Runtime form of the two kernel obstructions for nonzero weight:
    no monomial may lie in both kernel and image, and no two sources may
    share a target with nonzero coefficients.
    """
    kernel = {
        m for m in table.algebra.basis(table.degree_bound) if m not in table.entries
    }
    seen: Dict[Monomial, Monomial] = {}
    for src in sorted(table.entries, key=lambda m: m.sort_key()):
        _, dst = table.entries[src]
        if dst in kernel:
            return KernelObstruction("kernel_image_overlap", (dst,))
        if dst in seen:
            return KernelObstruction("target_collision", (seen[dst], src, dst))
        seen[dst] = src
    return None


# -- the search -----------------------------------------------------------------


@dataclass
class SearchStats:
    nodes_visited: int = 0
    shapes_enumerated: int = 0
    shapes_pruned: int = 0
    systems_solved: int = 0
    candidates_rejected: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Solution:
    table: MonomialOperatorTable
    match: FamilyMatch
    seeded: Tuple[int, ...] = ()
    under_constrained: Tuple[int, ...] = ()

    @property
    def fully_determined(self) -> bool:
        return not self.under_constrained

    def to_json_dict(self) -> dict:
        return {
            "table": self.table.to_json_dict(),
            "match": self.match.to_json_dict(),
            "seeded": list(self.seeded),
            "under_constrained": list(self.under_constrained),
        }


@dataclass
class ClassificationReport:
    solutions: List[Solution]
    stats: SearchStats

    def fully_determined(self) -> List[Solution]:
        return [s for s in self.solutions if s.fully_determined]

    def tables(self) -> List[MonomialOperatorTable]:
        return [s.table for s in self.solutions]

    def to_json_dict(self) -> dict:
        return {
            "solutions": [s.to_json_dict() for s in self.solutions],
            "stats": self.stats.to_json_dict(),
        }


def _surviving_shapes(
    D: int, unital: bool, lam_one: bool, budget: int, stats: SearchStats
) -> Iterator[Tuple[int, ...]]:
    """Depth-first, the shapes (t[n] the target of source n, or ABSENT)
    that pass pair pruning and the structure filter; fills the shape
    counters of stats.  Each pair (x^u, x^v), u <= v, is compiled once per
    (u, v, t[u], t[v]) when v is assigned and checked by every option of
    its last referenced source: filed under that source until backtracking.
    """
    sources = list(range(0 if unital else 1, D + 1))
    options = [ABSENT] + sources
    t = [ABSENT] * (D + 1)  # entries above the current source are never read
    filed: List[list] = [[] for _ in range(D + 1)]
    compiled = cache(partial(_compile_pair, lam_one=lam_one, D=D))

    def dfs(pos: int):
        stats.nodes_visited += 1
        if stats.nodes_visited > budget:
            raise SearchBudgetExceeded(
                f"shape budget of {budget} nodes exhausted", replace(stats)
            )
        if pos == len(sources):
            stats.shapes_enumerated += 1
            if lam_one:
                structural_ok = _respects_kernel_image_structure(t, sources, D)
            else:
                structural_ok = _respects_class_closure(t, sources, D, unital)
            if structural_ok:
                yield tuple(t)
            else:
                stats.shapes_pruned += 1
            return
        k = sources[pos]
        waiting = filed[k]
        for option in options:
            t[k] = option
            for lhs, groups in waiting:
                if not _pair_holds(t, lhs, groups):
                    break
            else:  # the filed pairs hold; now the pairs (u, k)
                later = []
                for u in sources[: pos + 1]:
                    entry = compiled(u, k, t[u], option)
                    if entry[0] != k:
                        later.append(entry)
                    elif not _pair_holds(t, *entry[1]):
                        break
                else:  # no pair closing at k fails: file the rest, descend
                    for last, check in later:
                        filed[last].append(check)
                    yield from dfs(pos + 1)
                    for last, _ in later:
                        filed[last].pop()
                    continue
            stats.shapes_pruned += 1

    yield from dfs(0)


def enumerate_monomial_rb(
    algebra: AlgebraSpec,
    weight: FieldElement,
    degree_bound: int,
    strategy: Optional[CoefficientStrategy] = None,
) -> ClassificationReport:
    """All monomial Rota-Baxter tables on the truncated quotient at the
    given bound, each re-verified and matched against the families.

    The search runs in the quotient where monomials above the bound
    vanish, so reported tables are operators there; tables whose free
    coefficients are pure truncation artifacts are flagged.
    """
    if algebra.nvars != 1:
        raise InvalidParams("the shape search is univariate")
    field = algebra.field
    if not (weight.is_zero() or weight.is_one()):
        raise InvalidParams("search weights are 0 and 1 (rescale first)")
    if degree_bound < 1:
        raise InvalidParams("degree bound must be >= 1")
    if degree_bound > 10:
        raise InvalidParams("degree bound capped at 10 (cost guard)")
    if algebra.truncation is not None and algebra.truncation < degree_bound:
        raise InvalidParams("degree bound exceeds the algebra's truncation")
    if field.kind is FieldKind.PRIME and field.p <= degree_bound:
        raise InvalidParams("prime fields need p > degree bound")
    if strategy is None:
        strategy = default_strategy(field)
    search_algebra = replace(algebra, truncation=degree_bound)
    D = degree_bound
    lam_one = weight.is_one()
    stats = SearchStats()
    by_signature: Dict[tuple, Solution] = {}

    def class_leaders(t, defined):
        """First defined source of each residue class mod the target gcd.

        These carry the family parameters q_b; a seed there is expected
        freedom, a seed anywhere else means the constraints at this
        bound did not determine the coefficient.
        """
        m_star = math.gcd(*(t[n] for n in defined))
        if m_star == 0:
            # every image is the constant: the family parameter sits on
            # the first positive-degree source (the unit image is forced)
            leaders = set(defined[:1])
            for n in defined:
                if n > 0:
                    leaders.add(n)
                    break
            return leaders
        first: Dict[int, int] = {}
        for n in defined:
            first.setdefault(n % m_star, n)
        return set(first.values())

    sources = range(algebra.min_degree(), D + 1)
    for t in _surviving_shapes(D, algebra.unital, lam_one, strategy.shape_budget, stats):
        defined = [n for n in sources if t[n] >= 0]
        leaders = class_leaders(t, defined)
        equations = _shape_equations(t, sources, lam_one, D)
        stats.systems_solved += 1
        for values, seeded, orphans in _solve_coefficients(
            equations, defined, field, strategy
        ):
            entries = {
                search_algebra.monomial(n): (values[n], search_algebra.monomial(t[n]))
                for n in defined
            }
            table = MonomialOperatorTable(search_algebra, weight, D, entries)
            if not rb_check(table, weight, D).passed:
                stats.candidates_rejected += 1
                continue
            signature = tuple((n, values[n].sort_key(), t[n]) for n in defined)
            if signature in by_signature:
                continue
            undetermined = tuple(
                sorted(set(orphans) | {x for x in seeded if x not in leaders})
            )
            if undetermined:
                match = FamilyMatch(
                    MatchKind.UNMATCHED, note="under-constrained at truncation"
                )
            else:
                match = match_family(table)
            by_signature[signature] = Solution(table, match, seeded, undetermined)

    def solution_key(s: Solution):
        entries = sorted(
            (src.exponents, dst.exponents, str(c))
            for src, (c, dst) in s.table.entries.items()
        )
        return (len(entries), repr(entries))

    solutions = sorted(by_signature.values(), key=solution_key)
    return ClassificationReport(solutions, stats)


def enumerate_injective_diagonal(
    algebra: AlgebraSpec,
    weight: FieldElement,
    degree_bound: int,
    strategy: Optional[CoefficientStrategy] = None,
) -> List[MonomialOperatorTable]:
    """Exhaustive search for injective diagonal monomial tables.

    Every basis monomial w of degree <= bound carries an unknown nonzero
    coefficient a_w; the pair constraints a_u a_v = (a_u + a_v + weight)
    a_{uv} are solved by exact propagation.  Works in any number of
    variables; used to witness that on unital algebras at weight one the
    only such operator is -id.
    """
    field = algebra.field
    if strategy is None:
        strategy = default_strategy(field)
    basis = list(algebra.basis(degree_bound))
    index = {m: i for i, m in enumerate(basis)}
    equations = []
    truncated = algebra.truncation is not None
    for i, u in enumerate(basis):
        for v in basis[i:]:
            w = u * v
            d = w.degree()
            if truncated and d > algebra.truncation:
                continue  # product vanishes; constraint is vacuous
            if d > degree_bound:
                continue  # outside the checked window
            iu, iv, iw = index[u], index[v], index[w]
            terms = [(1, (iu, iv)), (-1, (iu, iw)), (-1, (iv, iw))]
            if not weight.is_zero():
                # fold the weight into a linear term; weight 1 only here
                if not weight.is_one():
                    raise InvalidParams("diagonal search supports weights 0 and 1")
                terms.append((-1, (iw,)))
            equations.append(terms)
    tables = []
    for values, _seeded, orphans in _solve_coefficients(
        equations, list(range(len(basis))), field, strategy
    ):
        if orphans:
            continue  # not pinned by the identity; not a witness
        entries = {m: (values[index[m]], m) for m in basis}
        table = MonomialOperatorTable(algebra, weight, degree_bound, entries)
        if rb_check(table, weight, degree_bound).passed:
            tables.append(table)
    return tables
