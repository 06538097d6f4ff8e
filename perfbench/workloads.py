"""Workload inputs, the calls into the program, and the checks on its outputs.

Each workload function takes the program's modules and a seeded
``random.Random`` and returns the operations of one round.  An operation is
a call with inputs fixed at set-up, a check that judges its output with the
reference evaluator (``reference.py``), and a signature: later rounds repeat
the same inputs, so their outputs must equal the first round's.

The program is always called through the module that defines the function
(``rbalg.classify.enumerate_monomial_rb``), so a traced run sees the calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import reference as ref


@dataclass
class Operation:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    signature: Callable[[object], object]


@dataclass
class Env:
    """The program's modules plus conversions between its objects and raw data."""

    rb: dict
    fields: dict = field(default_factory=dict)

    def field(self, p):
        if p not in self.fields:
            F = self.rb["fields"]
            self.fields[p] = F.rationals() if p is None else F.prime_field(p)
        return self.fields[p]

    def elem(self, spec, value):
        if spec.p is None:
            value = Fraction(value)
            return spec.element(value.numerator, value.denominator)
        return spec.from_int(value)

    def algebra(self, p, alg: ref.Algebra):
        return self.rb["poly"].AlgebraSpec(self.field(p), alg.nvars, alg.unital, alg.truncation)

    def table(self, p, alg, weight, bound, raw):
        """A MonomialOperatorTable from a raw operator whose images are single terms."""
        spec = self.field(p)
        A = self.algebra(p, alg)
        Mono = self.rb["poly"].Monomial
        entries = {}
        for src, image in raw.items():
            ((dst, c),) = image.items()
            entries[Mono(src)] = (self.elem(spec, c), Mono(dst))
        return self.rb["operators"].MonomialOperatorTable(A, self.elem(spec, weight), bound, entries)

    def dense(self, p, alg, weight, bound, raw):
        spec = self.field(p)
        A = self.algebra(p, alg)
        poly = self.rb["poly"]
        images = {
            poly.Monomial(src): poly.Polynomial(A, {poly.Monomial(m): self.elem(spec, c) for m, c in image.items()})
            for src, image in raw.items()
        }
        return self.rb["operators"].DenseOperator(A, self.elem(spec, weight), bound, images)


def raw_op(op) -> ref.Op:
    """The raw form of a program operator (table or dense)."""
    if hasattr(op, "entries"):
        return {src.exponents: {dst.exponents: c.value} for src, (c, dst) in op.entries.items()}
    return {src.exponents: {m.exponents: c.value for m, c in poly.terms()} for src, poly in op.images.items()}


def raw_tensor(t) -> dict:
    return {(a.exponents, b.exponents): c.value for (a, b), c in t.terms.items()}


def raw_poly(poly) -> ref.Vec:
    return {m.exponents: c.value for m, c in poly.terms()}


def frozen(vec) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in vec.items()))


def frozen_op(op: ref.Op) -> tuple:
    return tuple(sorted((src, frozen(image)) for src, image in op.items()))


def pick_rationals(rng, k, exclude=()):
    out = []
    while len(out) < k:
        v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
        if v not in out and v not in exclude:
            out.append(v)
    return out


def pick_residues(rng, p, k, exclude=()):
    out = []
    while len(out) < k:
        v = rng.randint(1, p - 1)
        if v not in out and v not in exclude:
            out.append(v)
    return out


def pick_values(rng, p, k, exclude=()):
    return pick_rationals(rng, k, exclude) if p is None else pick_residues(rng, p, k, exclude)


# -- classify-w0 / classify-w1 ---------------------------------------------------------


def expected_members(weight, alg: ref.Algebra, F: ref.Field, D: int, grid, max_live: int):
    """Quotient tables of the paper's families whose free parameters lie on
    the grid, each with the sources that carry those parameters.

    Weight zero: the residue-class family, each class leader x^b carrying
    a grid coefficient q_b / (m p_b), with at most ``max_live`` live classes
    (one seeded parameter each).  Weight one: the zero operator; unital,
    -id and the two splittings (R(1) = -1 alone, and R(x^n) = -x^n for
    n >= 1); non-unital, the diagonal family with alpha = R(x) on the grid,
    -id among them when -1 is on the grid.
    """
    mons = ref.basis(alg, D)
    found = set()
    out = []

    def add(R, leaders):
        key = frozen_op(R)
        if key not in found:
            found.add(key)
            out.append((R, leaders))

    add({}, set())
    if weight:
        minus = F.norm(-1)
        if alg.unital:
            add({m: {m: minus} for m in mons}, set())
            add({(0,): {(0,): minus}}, set())
            add({m: {m: minus} for m in mons if m != (0,)}, set())
            return out
        if minus in grid:
            add({m: {m: minus} for m in mons}, {(1,)})
        for a in grid:
            try:
                add(ref.weight_one_diagonal([a], alg, F, D), {(1,)})
            except ZeroDivisionError:
                continue
        return out
    for m in range(1, D + 1):
        residues = list(range(0, m) if alg.unital else range(1, m + 1))
        choices = [[(0, 0)] for _ in residues]
        for i in range(len(residues)):
            for p in range(1, D // m + 1):
                if F.p is not None and (m * p) % F.p == 0:
                    continue
                choices[i].extend((p, F.norm(c * m * p)) for c in grid)

        def walk(i, classes):
            if i == len(choices):
                leaders = {(b,) for b, (p, _) in classes.items() if p}
                if leaders:
                    add(ref.weight_zero_classes(m, classes, alg, F, D), leaders)
                return
            live = sum(1 for p, _ in classes.values() if p)
            for p, q in choices[i]:
                if p and live == max_live:
                    continue
                walk(i + 1, {**classes, residues[i]: (p, q)})

        walk(0, {})
    return out


def _covers(solutions, member, leaders) -> bool:
    """Some solution of the member's shape equals it or, when the search
    flagged some of its coefficients as fixed by nothing at this bound,
    agrees with it on the grid-seeded parameters that are not flagged."""
    for R, free in solutions:
        if free:
            if all(R[src] == member[src] for src in leaders - free):
                return True
        elif R == member:
            return True
    return False


def classify_ops(env: Env, rng, weight: int, specs):
    classify = env.rb["classify"]
    ops = []
    for p, D, unital in specs:
        spec = env.field(p)
        F = ref.Field(p)
        grid = pick_values(rng, p, 3)
        alg = ref.Algebra(1, unital, D)
        A = env.algebra(p, alg)
        w = env.elem(spec, weight)
        strategy = classify.CoefficientStrategy(tuple(env.elem(spec, g) for g in grid))
        label = f"{'Q' if p is None else f'GF({p})'} D={D} {'unital' if unital else 'non-unital'} grid={[str(g) for g in grid]}"

        def call(A=A, w=w, D=D, strategy=strategy):
            return env.rb["classify"].enumerate_monomial_rb(A, w, D, strategy)

        def check(report, alg=alg, F=F, D=D, grid=grid, max_seeds=strategy.max_seeds):
            by_shape = {}
            for sol in report.solutions:
                R = raw_op(sol.table)
                _, bad = ref.rb_verdict(R, D, F.norm(weight), alg, F, D)
                if bad is not None:
                    return f"reported table fails the identity at {bad[:2]}: {sorted(R.items())}"
                shape = tuple(sorted((src, next(iter(img))) for src, img in R.items()))
                free = {(n,) for n in sol.under_constrained}
                by_shape.setdefault(shape, []).append((R, free))
            for member, leaders in expected_members(weight, alg, F, D, grid, max_seeds):
                shape = tuple(sorted((src, next(iter(img))) for src, img in member.items()))
                if not _covers(by_shape.get(shape, []), member, leaders):
                    return f"family member missing from the output: {sorted(member.items())}"
            return None

        def signature(report):
            return tuple(sorted((frozen_op(raw_op(s.table)), s.under_constrained) for s in report.solutions))

        ops.append(Operation(label, call, check, signature))
    return ops


def classify_w0(env, rng):
    specs = [(None, 5, False), (101, 5, False), (None, 4, True), (13, 4, True)]
    return classify_ops(env, rng, 0, specs)


def classify_w1(env, rng):
    specs = [(None, 8, False), (11, 8, False), (None, 7, True), (11, 7, True)]
    return classify_ops(env, rng, 1, specs)


# -- aybe-grid ------------------------------------------------------------------------


def aybe_grid(env, rng):
    ops = []
    for p, degree, size in [(None, 1, 5), (rng.choice([101, 103, 107]), 1, 9), (None, 2, 2), (rng.choice([131, 137, 139]), 2, 2)]:
        spec = env.field(p)
        F = ref.Field(p)
        lam = pick_values(rng, p, 1)[0]
        grid = [0, lam] + pick_values(rng, p, size - 2, exclude=(lam,))
        A = env.algebra(p, ref.Algebra(1, True, None))
        label = f"{'Q' if p is None else f'GF({p})'} degree={degree} weight={lam} grid={[str(g) for g in grid]}"
        egrid = [env.elem(spec, g) for g in grid]
        w = env.elem(spec, lam)

        def call(A=A, degree=degree, egrid=egrid, w=w):
            return env.rb["aybe"].aybe_grid_search(A, degree, egrid, w)

        def check(solutions, F=F, lam=lam):
            seen = set()
            for t in solutions:
                r = raw_tensor(t)
                res = ref.aybe_residual(r, F.norm(lam), F)
                if res:
                    return f"returned tensor {sorted(r.items())} has residual {sorted(res.items())}"
                seen.add(frozen(r))
            if frozen({}) not in seen:
                return "zero tensor missing"
            if frozen({((0,), (0,)): F.norm(lam)}) not in seen:
                return "weight times the unit tensor missing"
            return None

        def signature(solutions):
            return tuple(sorted(frozen(raw_tensor(t)) for t in solutions))

        ops.append(Operation(label, call, check, signature))
    return ops


# -- check-grade -----------------------------------------------------------------------


def _retry(build):
    """Draw parameters until the family's denominators do not vanish and its
    eigenvalues are distinct, so that every grading has one-dimensional
    eigenspaces and costs about the same whatever the seed."""
    while True:
        try:
            R = build()
        except ZeroDivisionError:
            continue
        values = [F for image in R.values() for F in image.values()]
        if len(set(values)) == len(values):
            return R


def _perturb_fails(R, bound, weight, alg, F, perturb):
    """Perturb R until the reference evaluator rejects it."""
    while True:
        bad = perturb(R)
        if ref.rb_verdict(bad, bound, weight, alg, F, bound)[1] is not None:
            return bad


def check_grade_inputs(env, rng):
    """(label, p, alg, weight, raw operator, program operator, is RB, source).

    ``source`` is the diagonal table whose spectrum the operator must have:
    the operator itself, or the table a dense conjugate was built from.
    """
    c = env.rb["construct"]
    items = []

    def univariate_w1(p, N):
        F = ref.Field(p)
        alg = ref.Algebra(1, False, N)
        holder = {}

        def build():
            holder["a"] = pick_values(rng, p, 1)[0]
            return ref.weight_one_diagonal([holder["a"]], alg, F, N)

        R = _retry(build)
        return holder["a"], R, alg, F

    # diagonal univariate weight-one table over a large prime
    p = 10007
    a, R, alg, F = univariate_w1(p, 35)
    prog = c.construct_weight_one_univariate(env.elem(env.field(p), a), env.algebra(p, alg), 35)
    items.append((f"diagonal weight-one GF({p}) N=35 alpha={a}", p, alg, 1, R, prog, True, R))

    # diagonal univariate weight-zero table over Q: R(x^n) = q x^n / n
    q = pick_rationals(rng, 1)[0]
    alg = ref.Algebra(1, False, 29)
    R = ref.weight_zero_classes(1, {1: (1, q)}, alg, ref.Field(None), 29)
    params = c.WeightZeroFamilyParams(1, {1: (1, env.elem(env.field(None), q))})
    prog = c.construct_weight_zero(params, env.algebra(None, alg), 29)
    items.append((f"diagonal weight-zero Q N=29 q={q}", None, alg, 0, R, prog, True, R))

    # truncated bivariate families
    for p, kind, weight, T in [(None, "WEIGHT_ONE", 1, 7), (10007, "WEIGHT_ZERO", 0, 8)]:
        F = ref.Field(p)
        alg = ref.Algebra(2, False, T)
        holder = {}

        def build(p=p, F=F, alg=alg, weight=weight, T=T):
            holder["alphas"] = pick_values(rng, p, 2)
            family = ref.weight_one_diagonal if weight else ref.weight_zero_diagonal
            return family(holder["alphas"], alg, F, T)

        R = _retry(build)
        alphas = holder["alphas"]
        mv = c.MultivariateFamilyParams(c.MultivariateKind[kind], tuple(env.elem(env.field(p), x) for x in alphas))
        prog = c.construct_multivariate(mv, env.algebra(p, alg), T)
        items.append((f"bivariate {kind.lower()} {'Q' if p is None else f'GF({p})'} T={T} alphas={alphas}", p, alg, weight, R, prog, True, R))

    # dense conjugates under x -> x + c x^2 (matrix path)
    for p, weight, is_rb in [(53, 1, True), (59, 0, True), (None, 0, True), (61, 1, False)]:
        F = ref.Field(p)
        N = 8
        alg = ref.Algebra(1, False, N)
        if weight:
            _, R, _, _ = univariate_w1(p, N)
        else:
            # over Q an integer q keeps the divisor enumeration of rational_roots small
            q = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) if p is None else pick_residues(rng, p, 1)[0]
            R = ref.weight_zero_classes(1, {1: (1, q)}, alg, F, N)
        shift = pick_values(rng, p, 1)[0]
        dense = ref.conjugate_by_quadratic_shift(R, shift, alg, F)
        label = f"dense conjugate weight-{weight} {'Q' if p is None else f'GF({p})'} N={N} c={shift}"
        if not is_rb:
            i = rng.randint(1, N - 1)

            def perturb(R, i=i, p=p, F=F):
                out = {src: dict(img) for src, img in R.items()}
                ref.vec_axpy(out.setdefault((i,), {}), 1, {(i + 1,): F.norm(pick_values(rng, p, 1)[0])}, F)
                return out

            dense = _perturb_fails(dense, N, F.norm(weight), alg, F, perturb)
            label = "perturbed " + label
        items.append((label, p, alg, weight, dense, env.dense(p, alg, weight, N, dense), is_rb, R))

    # perturbed diagonal table over Q: one coefficient doubled
    a, R, alg, F = univariate_w1(None, 20)
    n = rng.randint(2, 20)

    def double(R, n=n):
        out = dict(R)
        ((dst, coeff),) = R[(n,)].items()
        out[(n,)] = {dst: 2 * coeff}
        return out

    R = _perturb_fails(R, 20, F.norm(1), alg, F, double)
    items.append((f"perturbed diagonal weight-one Q N=20 alpha={a} at x^{n}", None, alg, 1, R, env.table(None, alg, 1, 20, R), False, R))
    return items


def repro_inputs(env):
    """Two weight-zero operators on untruncated algebras whose check leaves
    the operator's domain; independent of the seed."""
    c = env.rb["construct"]
    Q = env.field(None)
    out = []
    alg = ref.Algebra(1, True, None)
    prog = c.construct_integral(Q.one(), env.algebra(None, alg), 6)
    out.append(("integral a=1 unital Q D=6", alg, ref.integral(Fraction(1), alg, ref.Field(None), 6), prog))
    alg = ref.Algebra(1, False, None)
    params = c.WeightZeroFamilyParams(1, {1: (2, Q.one())})
    prog = c.construct_weight_zero(params, env.algebra(None, alg), 6)
    out.append(("weight-zero m=1 (p,q)=(2,1) Q D=6", alg, ref.weight_zero_classes(1, {1: (2, Fraction(1))}, alg, ref.Field(None), 6), prog))
    return out


def _verdict_of(report):
    if report.violation is None:
        return report.checked_pairs, None
    v = report.violation
    return report.checked_pairs, (v.u.exponents, v.v.exponents, raw_poly(v.residual))


def check_grade(env, rng):
    ops = []
    for label, p, alg, weight, R, prog, is_rb, source in check_grade_inputs(env, rng):
        F = ref.Field(p)
        N = alg.truncation
        if raw_op(prog) != R:
            raise RuntimeError(f"set-up: the program's constructor disagrees with the family formula for {label}")
        w = env.elem(env.field(p), weight)

        def call(prog=prog, w=w, N=N):
            report = env.rb["rbcheck"].rb_check(prog, w, N)
            return report, env.rb["grading"].grading_decompose(prog, w)

        def check(out, R=R, alg=alg, F=F, N=N, weight=weight, is_rb=is_rb, source=source):
            report, grade = out
            want = ref.rb_verdict(R, N, F.norm(weight), alg, F, N)
            if _verdict_of(report) != want:
                return f"verdict {_verdict_of(report)} differs from the reference {want}"
            expected = ref.diagonal_spectrum(source, alg, F)
            got = {lam.value: [raw_poly(v) for v in grade.spaces[lam]] for lam in grade.spectrum}
            if set(got) != set(expected):
                return f"spectrum {sorted(got)} differs from {sorted(expected)}"
            n = len(ref.basis(alg, N))
            if sum(len(v) for v in got.values()) != n:
                return "eigenspace dimensions do not sum to the dimension"
            for lam, vecs in got.items():
                if len(vecs) != expected[lam]:
                    return f"eigenspace of {lam} has dimension {len(vecs)}, multiplicity {expected[lam]}"
                for vec in vecs:
                    if not ref.kills(R, N, F.norm(lam), vec, n, F):
                        return f"(R - {lam})^n does not kill {vec}"
            if is_rb and grade.violations():
                return f"{len(grade.violations())} product violations on a Rota-Baxter operator"
            return None

        def signature(out):
            report, grade = out
            spaces = tuple(
                (str(lam.value), tuple(frozen(raw_poly(v)) for v in grade.spaces[lam])) for lam in grade.spectrum
            )
            statuses = tuple((str(pc.left.value), str(pc.right.value), pc.status.value) for pc in grade.products)
            verdict = _verdict_of(report)
            return (verdict[0], None if verdict[1] is None else (verdict[1][:2], frozen(verdict[1][2]))), spaces, statuses

        ops.append(Operation(label, call, check, signature))
    for label, alg, R, prog in repro_inputs(env):
        F = ref.Field(None)

        def call(prog=prog):
            return env.rb["rbcheck"].rb_check(prog, env.field(None).zero(), 6)

        def check(report, R=R, alg=alg, F=F):
            want = ref.rb_verdict(R, 6, F.norm(0), alg, F, 6, domain_only=True)
            if (report.violation is None) != (want[1] is None):
                return f"verdict {report.passed} differs from the reference on the domain"
            return None

        ops.append(Operation("domain repro: " + label, call, check, lambda report: _verdict_of(report)))
    return ops


WORKLOADS = {
    "classify-w0": classify_w0,
    "classify-w1": classify_w1,
    "aybe-grid": aybe_grid,
    "check-grade": check_grade,
}
