"""Brute-force discovery of monomial Rota-Baxter operators on truncated
univariate algebras, and matching of discovered tables against the
classified parametric families.

The search enumerates shape functions (source monomial -> optional
target monomial) depth-first with sound pruning: for every monomial
pair the degree bookkeeping of the Rota-Baxter identity in the quotient
must admit SOME nonzero coefficient assignment, using only the fact
that stored coefficients are nonzero.  Monomials are basis positions,
and every product is read from the rows of one ``BasisIndex``.
On a unital algebra an inner term a_u*a_v (a target x^0 beside a present
one) has the left side's unknowns and degree; compiling a pair sums such
twins into its left side, which one twin cancels exactly.
Each pair is compiled once per (u, v, t[u], t[v]) and forward checked by
one check: as soon as every source it reads but the last is assigned, it
narrows the targets still admissible for that last source, and an option
that leaves some later source no target is pruned at once; a pair whose
last read is v is decided when v is assigned.  The weight's structure
rule (class closure at weight zero, disjoint kernel and image at weight
one) narrows the same targets.

At weight one the shapes are built bound by bound (``_deepened_shapes``):
each shape at bound d is extended to d + 1, and only the pair rule prunes
below the search's bound D.  This rests on the top lemma: a monomial
Rota-Baxter operator R of any weight lam on k[x]/(x^(N+1)) or
k0[x]/(x^(N+1)) maps x^N into k*x^N.  Suppose R(x^N) = c*x^j with c != 0
and j < N, and take i = N - j >= 1 in the identity
R(a)R(b) = R(R(a)b + aR(b) + lam*ab) for (x^N, x^i): x^N*x^i = 0 and
R(x^N)*x^i = c*x^N, while x^N*R(x^i) is a*x^N when R(x^i) = a*1 and 0
otherwise, so c*x^j*R(x^i) = (c + a)*c*x^j, with a = 0 unless R(x^i) is
a constant.  If R(x^i) is 0 or a monomial of positive degree, the left
side is 0 or of another degree than the nonzero right side; if
R(x^i) = a*1, then c^2 = 0.  Either way this is a contradiction.  So the
ideal (x^N) is R-invariant, and R induces a monomial Rota-Baxter
operator on the quotient (Guo, An Introduction to Rota-Baxter Algebra,
2012, ch. 1) whose shape is the restriction: x^N dropped as a source,
and made absent as a target.  Its coefficients are nonzero, so that
shape passes the pair rule at N - 1, and by induction every table at D
has a shape whose restrictions pass the pair rule at every lower bound:
deepening from bound 1 reaches it, and a source x^(d+1) needs only
ABSENT or itself.  The structure rule does not survive restriction (a
source that maps to x^(d+1) becomes absent at d while it may still be a
target), so it runs at D alone.  Weight zero searches from scratch: its
shapes are too many per level for deepening to pay.

The unit lemma: at weight one on k[x]/(x^(N+1)), R(1) is 0 or c*1.  If
R(1) = c*x^j, c != 0, j >= 1, the pair (1, 1) gives c^2*x^(2j) =
2c*R(x^j) + c*x^j, so R(x^j) = a*x^j, 2a + 1 = 0 and 2j > N (which
characteristic 2 already refutes), and then the pair (1, x^j) gives
0 = (a + 1)*a*x^j = -x^j/4.  Each level of the deepening is such a
quotient, so at weight one x^0 takes ABSENT or itself at every level.

Surviving shapes get their coefficients from exact propagation on
watched equations: each per-degree constraint keeps a running split on
raw values, fixing a coefficient marks only the constraints that mention
it, and a marked one left with one unknown is solved exactly over the
field (degree <= 2);
genuinely free coefficients (family parameters) are seeded from a finite
strategy grid, each distinct value once; coefficients no constraint
mentions -- truncation artifacts -- are set to 1, flagged under-constrained.

A seeded family is solved and verified once, not once per grid point.
The solver seeds its first free coefficient with a symbol s1 (later ones
with s2, s3, ...), and every value solved below it is a Laurent monomial
c * s^e, c a nonzero constant.  Such a monomial is nonzero at every
point of nonzero seeds, so each grid instance takes the same steps and
its values are the monomials evaluated at its point; a step where that
could fail (a coefficient of two monomials, or a quadratic) falls back
to the grid loop.  The group is then checked once: each pair's residual
is a Laurent polynomial in the seeds.  Substituting nonzero field values
for the seeds is a ring homomorphism, and the checker uses only sums,
products and zero tests that drop vanishing terms, so on an algebra
truncated at the bound, where the checker skips no pair, the residual of
an instance is the substitution of the symbolic residual.  If every one
vanishes as a Laurent polynomial, every grid instance satisfies the
identity exactly; if one does not, each instance is checked alone.

The shape search and the injective diagonal search (the identity shape
on k0[x1..xn]) share one pipeline on a ``BasisIndex``, unknowns named by
basis position until a report is built: ``_check_search`` validates and
picks the seed grid, and ``_verified_tables`` solves a shape's
equations and checks each candidate on raw values, in ``rb_check``'s
window at twice the bound, the table's whole domain, before any table is
built, so the output is sound by construction.  The passing candidates
are built unchecked (``MonomialOperatorTable._trusted``): their entries
map basis monomials within the bound to basis monomials with nonzero
solved values.  Completeness is relative to the seeding grid: a family
member appears in the output exactly when its free parameters lie on
the grid.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .construct import (
    SplittingSpec,
    WeightZeroFamilyParams,
    _in_domain,
    construct_splitting,
    residue_class,
    residues,
)
from .errors import (
    CharacteristicObstruction,
    DenominatorVanishes,
    InvalidParams,
    MixedAlgebras,
    MixedFieldSpecs,
    NotASubalgebra,
    SearchBudgetExceeded,
)
from .fields import FieldElement, FieldKind, FieldSpec
from .laurent import Fallback, Laurent, exponents, quotient
from .operators import MonomialOperatorTable
from .poly import AlgebraSpec, BasisIndex, Monomial
from .rbcheck import _pair_verdicts
from .rbcheck import rb_check  # unused here: perfbench/tracing.py wraps classify.rb_check by name

ABSENT = -1


@dataclass(frozen=True)
class CoefficientStrategy:
    """How free coefficients are instantiated during the search.

    A free coefficient is seeded with each distinct nonzero value of grid:
    zero is dropped, since every stored coefficient is nonzero, and a
    value listed twice counts once.  At most max_seeds coefficients of
    one table are seeded.  A grid with no nonzero value is refused unless
    max_seeds is 0, as it would silently drop every seeded table.
    shape_budget caps the nodes of the shape search.
    """

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


def _compile_pair(u: int, v: int, tu: int, tv: int, lam_one: bool, mul, unit):
    """Degree bookkeeping of the identity for the pair of basis positions
    u <= v, from its two targets: (last, ready, (lhs, own, rest)), where
    last is the largest source the pair reads and ready the largest other
    one.  mul holds the product rows; a product outside the basis vanishes.
    unit is the position of x^0, or None on k0[x].

    The inner terms are grouped by position i; a group is certain when its
    coefficient cannot cancel, i.e. it is one product of nonzero entries
    (for u == v, 2*a_u*a_i).  An inner term a_u*a_v (from a unit target
    with the other target present) is a twin of the left side a_u*a_v:
    it is summed into the left side instead of grouped.  One twin cancels
    the left side exactly, so lhs is None; with none or two (a square
    counts twice) lhs is the degree of a lone certain term, of coefficient
    1 or -1.  When last is v no read is left free: own is False and rest
    holds every group as (i, certain, other indices).  Otherwise last is
    free: own tells whether its term is certain, and rest holds the other
    groups with last dropped from their partners.
    """
    inner = []
    twins = 0
    if tu >= 0 and mul[tu][v] is not None:
        if tu == unit and tv >= 0:
            twins += 1 if u != v else 2
        else:
            inner.append(mul[tu][v])
    if tv >= 0 and u != v and mul[u][tv] is not None:  # for a square, the term above again
        if tv == unit and tu >= 0:
            twins += 1
        else:
            inner.append(mul[u][tv])
    if lam_one and mul[u][v] is not None:
        inner.append(mul[u][v])
    idx = list(dict.fromkeys(inner))
    lhs = mul[tu][tv] if tu >= 0 and tv >= 0 and twins != 1 else None
    reads = sorted({u, v, *idx})
    last = reads[-1]
    ready = reads[-2] if len(reads) > 1 else last
    free = last if last != v else None
    rest = [
        (i, inner.count(i) == 1, tuple([j for j in idx if j != i and j != free]))
        for i in idx
        if i != free
    ]
    return last, ready, (lhs, free is not None and inner.count(free) == 1, tuple(rest))


def _domain(t, lhs, own, rest) -> int:
    """The targets x of a compiled pair's free read for which the pair's
    degree bookkeeping admits nonzero coefficients with t[last] = x, as a
    bitmask (bit x + 1, so ABSENT is bit 0).  Reads t only at the indices
    of rest, all at most the pair's ready when a read is free.  With no
    free read the mask is -1 exactly when the pair holds (it has at most
    one bit set when the pair fails).

    A lone certain term at degree d asks x = d; the term at last, when
    certain, must land on ABSENT, the left-hand degree or a partner's
    degree; and if no other term reaches the left-hand degree, x must.
    """
    mask = -1
    hit = lhs is None
    for i, certain, others in rest:
        d = t[i]
        if d == lhs:
            hit = True
        elif certain and d != ABSENT:
            for j in others:
                if t[j] == d:
                    break
            else:
                mask &= 1 << (d + 1)
    if own:
        landing = 1 if lhs is None else 1 | 1 << (lhs + 1)
        for i, _, _ in rest:
            landing |= 1 << (t[i] + 1)
        mask &= landing
    if not hit:
        mask &= 1 << (lhs + 1)
    return mask


# -- coefficient solving ---------------------------------------------------------


def _shape_equations(t, lam_one: bool, mul):
    """Per-target constraints as lists of (sign, vars) terms, with every
    basis position a source and mul the basis's product rows.

    vars is a 1-tuple (linear, from the weight term) or a 2-tuple
    (product of two coefficients); the identity contributes the pair
    product positively and the three inner applications negatively.
    Equations come in pair order (u, v), u <= v.
    """
    equations = []
    defined = [n for n, target in enumerate(t) if target >= 0]
    for u, tu in enumerate(t):
        row, trow = mul[u], mul[tu] if tu >= 0 else None
        # at weight zero a pair of two absent targets has no term
        partners = range(u, len(t)) if tu >= 0 or lam_one else defined[bisect_left(defined, u):]
        for v in partners:
            tv = t[v]
            per_degree: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
            if trow is not None:
                if tv >= 0 and trow[tv] is not None:
                    per_degree.setdefault(trow[tv], []).append((1, (u, v)))
                ia = trow[v]
                if ia is not None and t[ia] >= 0:
                    per_degree.setdefault(t[ia], []).append((-1, (u, ia)))
            if tv >= 0:
                ib = row[tv]
                if ib is not None and t[ib] >= 0:
                    per_degree.setdefault(t[ib], []).append((-1, (v, ib)))
            if lam_one:
                ic = row[v]
                if ic is not None and t[ic] >= 0:
                    per_degree.setdefault(t[ic], []).append((-1, (ic,)))
            for terms in per_degree.values():
                equations.append(terms)
    return equations


def _settled(terms, values: dict, p) -> dict:
    """An equation's split {vars: coeff} from (vars, coeff) terms, with the
    known unknowns substituted: a term drops each known factor and takes
    its value, so the constant collects under ().  Coefficients are
    reduced mod p over GF(p), and the zero ones dropped."""
    out: dict = {}
    for key, c in terms:
        rest = ()
        for y in key:
            if y in values:
                c = c * values[y]
            else:
                rest += (y,)
        out[rest] = out.get(rest, 0) + c
    if p is None:
        return {key: c for key, c in out.items() if c}
    return {key: r for key, c in out.items() if (r := c % p)}


def _raw_grid(strategy: CoefficientStrategy) -> list:
    """The strategy's seed values, raw, zero dropped, each value once."""
    return list(dict.fromkeys(g.value for g in strategy.grid if g))


def _solve_coefficients(equations, unknowns: Sequence, field: FieldSpec, strategy, grid):
    """All full nonzero assignments, as (values, seeded, orphans) groups of
    raw values; a group stands for the instances ``_instances`` lists.

    equations are lists of (coeff, vars) terms, vars one or two unknowns;
    grid is ``_raw_grid(strategy)``.

    A pass reads the marked equations in index order (at first, all) and
    acts on one left with at most one unknown: it fails, fixes that
    unknown or branches on its roots.  Each equation keeps a running
    split (``_settled``), compiled when it is first read and brought up
    to date when it is read again.  Fixing an unknown marks only the
    equations on its watch list: those ahead are read in the same pass,
    those behind in the next.  With nothing marked, the first unknown an
    equation still mentions is seeded from the grid.

    The first seed is tried once as a symbol: it and the later seeds are
    s1..sk, and every value solved below them is a Laurent monomial.  A
    monomial with a nonzero constant vanishes at no point of the grid,
    so each grid instance takes the same steps, and the subtree yields one
    group, seeded by symbols.  A step that could differ between instances
    -- a split coefficient with two terms, which may vanish at some points,
    or a quadratic, whose roots may branch -- raises ``Fallback``, and the
    grid is tried value by value from the state at that first seed.
    """
    p = field.p
    one = Fraction(1) if p is None else 1
    watch: Dict[int, set] = {}  # unknown -> the equations read so far that mention it
    solutions = []
    symbolic = False  # inside the subtree tried with symbols

    def fix(values: dict, splits: list, marked: list, x, v) -> tuple:  # and mark x's watch list
        values[x] = v
        for i in watch[x]:
            marked[i] = True
        return values, splits, marked

    def recurse(values: dict, splits: list, marked: list, seeded: tuple):
        """Propagate from the marked equations, then record or seed; the
        arguments belong to this call."""
        nonlocal symbolic
        while any(marked):  # one pass
            for i, dirty in enumerate(marked):
                if not dirty:
                    continue
                marked[i] = False
                split = splits[i]
                if split is None:  # first read: sort each pair and watch its unknowns
                    split = [(v if v[0] <= v[-1] else v[::-1], c) for c, v in equations[i]]
                    for key, _ in split:
                        for x in key:
                            watch.setdefault(x, set()).add(i)
                else:
                    split = split.items()
                split = splits[i] = _settled(split, values, p)
                if symbolic and any(type(c) is Laurent and len(c) > 1 for c in split.values()):
                    raise Fallback
                varset = {x for key in split for x in key}
                if len(varset) > 1:
                    continue
                if not varset:
                    if split:  # a nonzero constant
                        return
                    continue
                (x,) = varset
                a2, a1, a0 = (split.get(key, 0) for key in ((x, x), (x,), ()))
                if not symbolic:
                    roots = [r for r in linalg.quadratic_roots(a2, a1, a0, p) if r]
                elif a2:
                    raise Fallback
                else:
                    roots = [quotient(-a0, a1, p)] if a0 else []
                if not roots:
                    return
                if len(roots) > 1:
                    for root in roots:
                        recurse(*fix(dict(values), list(splits), list(marked), x, root), seeded)
                    return
                fix(values, splits, marked, x, roots[0])
                splits[i], marked[i] = {}, False  # it holds at its root
        remaining = [x for x in unknowns if x not in values]
        if not remaining:
            solutions.append((values, seeded, ()))
            return
        mentioned = {x for split in splits for key in split for x in key}
        seedable = [x for x in remaining if x in mentioned]
        if not seedable:
            # truncation artifacts: no constraint mentions them at all
            for x in remaining:
                values[x] = one
            solutions.append((values, seeded, tuple(remaining)))
            return
        if len(seeded) >= strategy.max_seeds:
            return
        x = seedable[0]
        if symbolic or not seeded:
            symbol = Laurent.seed(len(seeded), one)
            if symbolic:  # nothing branches in this subtree: go on in place
                recurse(*fix(values, splits, marked, x, symbol), seeded + (x,))
                return
            try:  # a solution is recorded at a leaf, after the last step that can fall back
                symbolic = True
                recurse(*fix(dict(values), list(splits), list(marked), x, symbol), (x,))
                return
            except Fallback:
                pass
            finally:
                symbolic = False
        for value in grid:
            recurse(*fix(dict(values), list(splits), list(marked), x, value), seeded + (x,))

    recurse({}, [None] * len(equations), [True] * len(equations), ())
    return solutions


def _symbols(values: dict, seeded: tuple) -> int:
    """k, the symbols s1..sk of a solver group: its seeds when the first
    is a symbol, else none."""
    return len(seeded) if seeded and type(values[seeded[0]]) is Laurent else 0


def _instances(values: dict, seeded: tuple, grid, p) -> Iterator[dict]:
    """The raw values of each instance of a solver group, in the order of
    the grid loop: values itself for a group without symbols; else values
    at each point of grid^k for its symbols s1..sk, s1 slowest."""
    k = _symbols(values, seeded)
    if not k:
        yield values
        return
    terms = {}  # unknown -> (coefficient, [(seed index, nonzero exponent)]) of a Laurent monomial
    for x, v in values.items():
        (e, c), = v.items() if type(v) is Laurent else ((0, v),)
        terms[x] = c, [(i, d) for i, d in enumerate(exponents(e)) if d]
    for point in itertools.product(grid, repeat=k):
        raw = {}
        for x, (c, factors) in terms.items():
            for i, d in factors:
                if p is None:
                    c *= point[i] if d == 1 else point[i] ** d
                else:
                    c = c * pow(point[i], d, p) % p
            raw[x] = c
        yield raw


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


def _built(table: MonomialOperatorTable, match: FamilyMatch) -> Optional[FamilyMatch]:
    """match, unless the constructor refuses the member (``construct._in_domain``)."""
    try:
        _in_domain(table)
    except (CharacteristicObstruction, DenominatorVanishes):
        return None
    return match


def _match_weight_zero(table: MonomialOperatorTable) -> Optional[FamilyMatch]:
    """The table read on raw values as x^n -> (T, coeff * T) for each entry
    coeff x^T.  For each m dividing the target gcd, largest first, each
    residue class takes (p_b, q_b) from its least defined source, and the
    member's entries must be the table's: (T, q_b) at each x^(m*a+b) of a
    class the table defines, T = m(a + p_b), unless T overflows the
    truncation.  A class with p_b <= 0 or q_b = 0 has no member; as
    q_b != 0, a T that vanishes in the field fails the comparison."""
    algebra = table.algebra
    field, unital, top = algebra.field, algebra.unital, algebra.truncation
    p = field.p
    raw = {}  # x^n -> (T, coeff * T) for each entry coeff x^T
    for src, (c, dst) in table.entries.items():
        raw[src.exponents[0]] = (dst.exponents[0], c.value * dst.exponents[0])
    if p is not None:
        raw = {n: (T, q % p) for n, (T, q) in raw.items()}
    g = math.gcd(*(T for T, _ in raw.values()))
    for m in (d for d in range(g, 0, -1) if g % d == 0):
        lead = {}  # b -> (p_b, q_b); the least source of a class writes last
        for n in sorted(raw, reverse=True):  # x^(m*a+b) -> x^T gives p = T/m - a
            (b, a), (T, q) = residue_class(n, m, unital), raw[n]
            lead[b] = (T // m - a, q)
        if not all(pb > 0 and q for pb, q in lead.values()):
            continue
        member = {}
        for n in range(algebra.min_degree(), table.degree_bound + 1):
            b, a = residue_class(n, m, unital)
            if b in lead and (top is None or m * (a + lead[b][0]) <= top):
                member[n] = (m * (a + lead[b][0]), lead[b][1])
        if member == raw:
            classes = {b: (0, field.zero()) for b in residues(m, unital)}
            for b, (pb, q) in lead.items():
                classes[b] = (pb, FieldElement(field, q))
            params = WeightZeroFamilyParams(m, classes)
            return _built(table, FamilyMatch(MatchKind.WEIGHT_ZERO_FAMILY, params=params))
    return None


def _match_weight_one(table: MonomialOperatorTable) -> Optional[FamilyMatch]:
    """alpha = R(x), and every x^n up to the bound must carry the family
    coefficient alpha^n / ((alpha+1)^n - alpha^n), compared on raw values;
    as alpha^n != 0, a denominator that vanishes fails the comparison."""
    algebra = table.algebra
    raw = {src.exponents[0]: c.value for src, (c, _) in table.entries.items()}
    if algebra.unital or not table.is_diagonal() or 1 not in raw:
        return None
    p = algebra.field.p
    power = shifted = 1  # alpha^n and (alpha+1)^n
    for n in range(1, table.degree_bound + 1):
        power, shifted = power * raw[1], shifted * (raw[1] + 1)
        miss = raw.get(n, 0) * (shifted - power) - power
        if miss if p is None else miss % p:
            return None
    return _built(table, FamilyMatch(MatchKind.WEIGHT_ONE_FAMILY, alpha=table.entries[algebra.monomial(1)][0]))


def _match_splitting_conjugate(table: MonomialOperatorTable) -> Optional[FamilyMatch]:
    """Detect unital constant-image tables conjugate to the splitting
    operator with parts <x> (killed) and the constants.

    Normalized to weight -1 the table must read R(x^n) = a^n * 1 with
    R(1) = 1, i.e. R f = f(a) * 1; scaling x -> x/a then shifting
    x -> x - 1 turns that into f -> f(0) * 1, the splitting operator.
    """
    algebra = table.algebra
    field = algebra.field
    if not (algebra.unital and algebra.nvars == 1):
        return None
    one_mono = algebra.one_monomial()
    if any(dst != one_mono for _, dst in table.entries.values()):
        return None
    scale = -field.one() / table.weight
    hit1 = table.entries.get(algebra.monomial(1))
    hit0 = table.entries.get(one_mono)
    if hit1 is None or hit0 is None or not (scale * hit0[0]).is_one():
        return None
    alpha = scale * hit1[0]
    for n in range(0, table.degree_bound + 1):
        hit = table.entries.get(algebra.monomial(n))
        if hit is None or scale * hit[0] != alpha**n:
            return None
    return FamilyMatch(MatchKind.SPLITTING_CONJUGATE, alpha=alpha)


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
    else:
        found = table.weight.is_one() and _match_weight_one(table)
        found = found or _match_splitting_conjugate(table)
    return found or FamilyMatch(MatchKind.UNMATCHED)


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
    index: BasisIndex,
    lam_one: bool,
    budget: int,
    stats: SearchStats,
    size: Optional[int] = None,
    below: Optional[List[Tuple[int, ...]]] = None,
    pairs: Optional[dict] = None,
) -> Iterator[Tuple[int, ...]]:
    """Depth-first, the shapes (t[n] the target of source n, or ABSENT)
    that pass pair pruning and the structure rule; fills the shape
    counters of stats.  Sources and targets are the first size positions
    of index (all of them by default), a truncated algebra's basis, and
    products are read from its rows; a product at a position >= size
    vanishes, so on a univariate basis the first size positions are the
    basis at a lower bound.  The structure rule runs, and a complete shape
    counts as enumerated, only at the index's own bound (size the whole
    index): a restriction keeps the pair rule but not the structure rule.

    With below, the shapes on the first size - 1 positions, the search
    extends each of them by the new top position, with its domains seeded
    from it (see ``_deepened_shapes``): a present target stays, an absent
    source stays absent or takes the top, and the top takes ABSENT or
    itself.  At weight one on a unital basis x^0 takes ABSENT or itself,
    and an absent x^0 stays absent (the unit lemma).

    Forward checking: dom[s] is the bitmask of targets still admissible
    for source s (bit x + 1 for target x).  Each pair of positions
    u <= v is compiled once per (u, v, t[u], t[v]) when v is assigned,
    into the dict pairs.  The deepening passes one pairs to every level:
    the rows one position shorter differ from this level's only at
    products equal to the top, so an entry compiled there is dropped
    exactly when its compile reads one.  A pair whose last read is v is
    checked at once; any other pair narrows the mask of its last read as
    soon as its ready read is assigned (at once if that is v, else filed
    under ready), so an option is pruned the moment some later source has
    no target left.  The options of a source
    are those of its seeded domain; one outside dom[k] counts as pruned
    where the plain check would have failed it.  The weight's structure
    rule narrows the same masks, so every complete shape obeys it.
    Narrowings are undone through a log and filings popped on backtrack.
    """
    deg = index.degrees
    size = len(deg) if size is None else size
    at_bound = size == len(deg)
    sources = list(range(size))  # sliced in the hot loop: a list slices faster than a range
    options = [ABSENT, *sources]
    t = [ABSENT] * size  # entries above the current source are never read
    dom = [(2 << size) - 1] * size
    choices = [options] * size  # the options of each source's seeded domain
    filed: List[list] = [[] for _ in sources]
    # the index's rows up to size, read faster as lists
    mul = [[p if p is not None and p < size else None for p in index.mul[i][:size]] for i in sources]
    unit = 0 if deg[0] == 0 else None  # x^0 heads a unital basis
    unit_rule = lam_one and unit is not None
    if unit_rule:
        dom[0], choices[0] = 3, [ABSENT, 0]
    top = size - 1
    pairs = {} if pairs is None else pairs
    for u, v, tu, tv in list(pairs):  # the products _compile_pair reads: u*v, u*tv, tu*v, tu*tv
        rows = [mul[u], mul[tu]] if tu >= 0 else [mul[u]]
        if top in {row[w] for row in rows for w in (v, tv) if w >= 0}:
            del pairs[u, v, tu, tv]

    def restrict(s: int, mask: int, undo: list) -> bool:
        """Intersect mask into dom[s], logging the old mask; False if empty."""
        old = dom[s]
        new = old & mask
        if new != old:
            undo.append((s, old))
            dom[s] = new
        return new != 0

    def kernel_image(k: int, option: int, g: int, undo: list) -> bool:
        """Weight one: kernel and image are disjoint, so an absent k is no
        later source's target, and a target above k is not absent (one at
        or below k was vetted by dom[k])."""
        if option != ABSENT:
            return option <= k or restrict(option, ~1, undo)
        return all(restrict(s, ~(2 << k), undo) for s in sources[k + 1 :])

    def class_closure(k: int, option: int, g: int, undo: list) -> bool:
        """Weight zero on k0[x], the one univariate rule: g is the gcd of
        the present target degrees before k and h = gcd(g, deg[option]).
        As a position and its degree differ by a constant, a class mod h
        with a present member has one shift s, its assigned absent members
        n have n + s out of range, and its later members narrow to n + s,
        or to ABSENT when that is out of range.  The final gcd divides h,
        so this is sound.  While g holds, only k's class can change (an
        absent k was vetted by dom[k]); when it shrinks, classes merge and
        each is checked again."""
        if option == ABSENT or not (h := math.gcd(g, deg[option])):
            return True
        for first in [k % h] if h == g else range(min(h, k + 1)):
            members = sources[first::h]
            assigned = (k - first) // h + 1
            lead = next((n for n in members[:assigned] if t[n] >= 0), None)
            if lead is None or h == g and lead < k:
                continue  # no shift yet, or checked when it first had one
            shift = t[lead] - lead
            for i, n in enumerate(members):
                target = n + shift if 0 <= n + shift < size else ABSENT
                if i < assigned:
                    if t[n] != target:
                        return False
                elif not restrict(n, 1 << (target + 1), undo):
                    return False
        return True

    structure = kernel_image if lam_one else class_closure
    if not at_bound:
        structure = lambda *_: True  # below the bound the pair rule alone prunes

    def dfs(k: int, g: int):  # k: the source to assign
        stats.nodes_visited += 1
        if stats.nodes_visited > budget:
            raise SearchBudgetExceeded(
                f"shape budget of {budget} nodes exhausted", replace(stats)
            )
        if k == size:
            stats.shapes_enumerated += at_bound
            yield tuple(t)
            return
        allowed = dom[k]
        waiting = filed[k]
        for option in choices[k]:
            if not allowed >> (option + 1) & 1:
                stats.shapes_pruned += 1
                continue
            t[k] = option
            undo: List[Tuple[int, int]] = []
            kept = False
            for last, _, check in waiting:
                if not restrict(last, _domain(t, *check), undo):
                    break
            else:  # the filed pairs leave targets; now the pairs (u, k)
                later = []
                for u in sources[: k + 1]:
                    key = (u, k, t[u], option)
                    entry = pairs.get(key) or pairs.setdefault(key, _compile_pair(*key, lam_one, mul, unit))
                    last, ready, check = entry
                    if last == k:
                        if _domain(t, *check) != -1:
                            break
                    elif ready == k:
                        if not restrict(last, _domain(t, *check), undo):
                            break
                    else:
                        later.append(entry)
                else:  # no pair fails or empties a domain: the structure rule, then descend
                    kept = structure(k, option, g, undo)
                    if kept:
                        for entry in later:
                            filed[entry[1]].append(entry)
                        yield from dfs(k + 1, g if option < 0 else math.gcd(g, deg[option]))
                        for entry in later:
                            filed[entry[1]].pop()
            for s, old in reversed(undo):
                dom[s] = old
            stats.shapes_pruned += not kept

    if below is None:
        yield from dfs(0, 0)
        return
    grow = 1 | 2 << top  # ABSENT or the top position
    for shape in below:
        dom[:] = [1 << (x + 1) if x >= 0 else grow for x in shape] + [grow]
        choices[:] = [[x] if x >= 0 else [ABSENT, top] for x in shape] + [[ABSENT, top]]
        if unit_rule and shape[0] == ABSENT:
            dom[0], choices[0] = 1, [ABSENT]
        yield from dfs(0, 0)


def _deepened_shapes(index: BasisIndex, budget: int, stats: SearchStats) -> Iterator[Tuple[int, ...]]:
    """Weight one on a univariate basis: the shapes of ``_surviving_shapes``
    at the index's bound D, built bound by bound.  The shapes at bound 1
    are searched from scratch; each level d < D is extended to d + 1 by
    ``_surviving_shapes`` seeded with the shapes at d, and the structure
    rule runs at D alone.  Every level reads the rows of the one index,
    and they share one dict of compiled pairs.
    Sound by the top lemma of the module docstring: every table at d + 1
    maps x^(d+1) to nothing or to itself, so it induces a table at d whose
    shape is the restriction (x^(d+1) made absent), and that shape passes
    the pair rule at d.  nodes_visited and shapes_pruned sum over the
    levels, and the budget bounds that sum."""
    deg = index.degrees
    shapes, pairs = None, {}
    for d in range(1, deg[-1]):
        shapes = list(_surviving_shapes(index, True, budget, stats, bisect_right(deg, d), shapes, pairs))
    yield from _surviving_shapes(index, True, budget, stats, below=shapes, pairs=pairs)


def _check_search(algebra: AlgebraSpec, weight: FieldElement, degree_bound: int, strategy) -> tuple:
    """The parameters both searches need before any equation is built,
    and (strategy, its raw grid); a strategy of None stands for
    ``default_strategy`` of the field, resolved last."""
    if not (weight.is_zero() or weight.is_one()):
        raise InvalidParams("search weights are 0 and 1 (rescale first)")
    if degree_bound < 0:
        raise InvalidParams("degree bound must be >= 0")
    if algebra.truncation is not None and algebra.truncation < degree_bound:
        raise InvalidParams("degree bound exceeds the algebra's truncation")
    if strategy is None:
        strategy = default_strategy(algebra.field)
    elif any(g.spec != algebra.field for g in strategy.grid):
        raise MixedFieldSpecs(f"seed grid values must lie in {algebra.field}")
    if weight.spec != algebra.field:
        raise MixedAlgebras("weight from a different field")
    grid = _raw_grid(strategy)
    if strategy.max_seeds > 0 and not grid:
        raise InvalidParams("the seed grid has no nonzero value (max_seeds=0 seeds nothing)")
    return strategy, grid


def _verified_tables(t, index: BasisIndex, algebra, weight, D, strategy, grid, stats):
    """The tables of shape t (basis positions of index) that pass the
    identity, as (table, seeded, orphans) with unknowns named by position:
    the shape's equations are solved, seeding from grid, and each candidate
    is checked on raw values in ``rbcheck._pair_verdicts`` at degree 2 D,
    its whole domain, once per symbolic group on an algebra truncated at D
    (see the module docstring) or else once per instance; only one that
    passes becomes a table on algebra.  Counts systems solved and
    candidates rejected into stats."""
    monos, field = index.monomials, algebra.field
    defined = [n for n, target in enumerate(t) if target >= 0]
    equations = _shape_equations(t, weight.is_one(), index.mul)
    stats.systems_solved += 1

    def holds(values: dict) -> bool:  # a skipped pair (None) leaves the table's domain
        coef = [values.get(n, 0) for n in range(len(t))]
        verdicts = _pair_verdicts(algebra, D, 2 * D, lambda _: (t, coef, {}), weight.value)
        return False not in (verdict for _, _, verdict in verdicts)

    for values, seeded, orphans in _solve_coefficients(equations, defined, field, strategy, grid):
        group = algebra.truncation == D and _symbols(values, seeded) and holds(values)
        for raw in _instances(values, seeded, grid, field.p):
            if group or holds(raw):
                entries = {monos[n]: (FieldElement(field, raw[n]), monos[t[n]]) for n in defined}
                yield MonomialOperatorTable._trusted(algebra, weight, D, entries), seeded, orphans
            else:
                stats.candidates_rejected += 1


def enumerate_monomial_rb(
    algebra: AlgebraSpec,
    weight: FieldElement,
    degree_bound: int,
    strategy: Optional[CoefficientStrategy] = None,
) -> ClassificationReport:
    """The monomial Rota-Baxter tables on the truncated quotient at the
    given bound that obey the weight's structure rule, each verified and
    matched against the families.

    The search runs in the quotient where monomials above the bound
    vanish, so reported tables are operators there; tables whose free
    coefficients are pure truncation artifacts are flagged.  The rule drops
    tables that exist only in the quotient: on k0[x]/(x^5), R(x) = -x^2,
    R(x^2) = x^4 passes ``rb_check`` at weight 1, but x^4 lies in both
    kernel and image.  Without it, Q at weight 1 and bound 8, non-unital,
    would give 23 tables, not 7.
    """
    if algebra.nvars != 1:
        raise InvalidParams("the shape search is univariate")
    if degree_bound < 1:
        raise InvalidParams("degree bound must be >= 1")
    cap = 16 if weight.is_one() else 10
    if degree_bound > cap:
        raise InvalidParams(f"degree bound capped at {cap} at weight {weight} (cost guard)")
    strategy, grid = _check_search(algebra, weight, degree_bound, strategy)
    field = algebra.field
    if field.kind is FieldKind.PRIME and field.p <= degree_bound:
        raise InvalidParams("prime fields need p > degree bound")
    search_algebra = replace(algebra, truncation=degree_bound)
    index = search_algebra.basis_index
    deg = index.degrees  # on k0[x], the exponent of each basis position
    stats = SearchStats()

    def class_leaders(t, defined):
        """First defined source of each residue class mod the target gcd.

        These carry the family parameters q_b; a seed there is expected
        freedom, a seed anywhere else means the constraints at this
        bound did not determine the coefficient.
        """
        m_star = math.gcd(*(deg[t[n]] for n in defined))
        if m_star == 0:
            # every image is the constant: the family parameter sits on
            # the first positive-degree source (the unit image is forced)
            return set(defined[:1] + [n for n in defined if deg[n] > 0][:1])
        first: Dict[int, int] = {}
        for n in defined:
            first.setdefault(deg[n] % m_star, n)
        return set(first.values())

    budget = strategy.shape_budget
    if weight.is_one():
        shapes = _deepened_shapes(index, budget, stats)
    else:
        shapes = _surviving_shapes(index, False, budget, stats)
    solutions = []
    for t in shapes:
        leaders = class_leaders(t, [n for n, target in enumerate(t) if target >= 0])
        for table, seeded, orphans in _verified_tables(
            t, index, search_algebra, weight, degree_bound, strategy, grid, stats
        ):
            undetermined = tuple(
                deg[x] for x in sorted(set(orphans) | {x for x in seeded if x not in leaders})
            )
            if undetermined:
                match = FamilyMatch(
                    MatchKind.UNMATCHED, note="under-constrained at truncation"
                )
            else:
                match = match_family(table)
            solutions.append(Solution(table, match, tuple(deg[x] for x in seeded), undetermined))

    def solution_key(s: Solution):
        entries = sorted(
            (src.exponents, dst.exponents, str(c))
            for src, (c, dst) in s.table.entries.items()
        )
        return (len(entries), repr(entries))

    solutions.sort(key=solution_key)
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
    only such operator is -id.  This is the shape search's pipeline run
    on one shape, the identity.
    """
    strategy, grid = _check_search(algebra, weight, degree_bound, strategy)
    # the basis_index of algebra truncated at the bound, built directly (truncation 0 is refused)
    index = BasisIndex.of(algebra.basis(degree_bound))
    diagonal = range(len(index.monomials))  # each basis position is its own target
    found = _verified_tables(
        diagonal, index, algebra, weight, degree_bound, strategy, grid, SearchStats()
    )
    # a coefficient no equation mentions is not pinned by the identity
    return [table for table, _, orphans in found if not orphans]
