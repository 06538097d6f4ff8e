"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from rbalg import (
    QQ,
    AlgebraSpec,
    MonomialOperatorTable,
    Polynomial,
    WeightZeroFamilyParams,
    rb_residual,
)
from rbalg.rbcheck import CheckReport, RBViolation


def rational_elements(max_abs=20, max_den=8):
    return st.builds(
        lambda n, d: QQ.element(n, d),
        st.integers(-max_abs, max_abs),
        st.integers(1, max_den),
    )


def gf_elements(field):
    return st.integers(0, field.p - 1).map(field.from_int)


def field_elements(field):
    if field.p is None:
        return rational_elements()
    return gf_elements(field)


def polynomials(algebra, max_degree=8, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(algebra.nvars)])

    def build(pairs):
        terms = {}
        for raw_exps, coeff in pairs:
            degree = sum(raw_exps)
            if degree > max_degree:
                continue
            if not algebra.unital and degree == 0:
                continue
            mono = algebra.monomial(*raw_exps)
            terms[mono] = coeff
        return Polynomial(algebra, terms)

    return st.lists(
        st.tuples(exps, field_elements(algebra.field)), max_size=max_terms
    ).map(build)


def inverse_degree_table(bound, algebra=None):
    """R(x^n) = x^n / n on the non-unital univariate rationals."""
    if algebra is None:
        algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
    field = algebra.field
    entries = {}
    top = bound if algebra.truncation is None else min(bound, algebra.truncation)
    for n in range(1, top + 1):
        mono = algebra.monomial(n)
        entries[mono] = (field.from_int(n).inverse(), mono)
    return MonomialOperatorTable(algebra, field.zero(), bound, entries)


def random_weight_zero_params(rng: random.Random, field, m_max=4, p_max=3):
    """Random family parameters with at least one live residue class."""
    m = rng.randint(1, m_max)
    classes = {}
    live = rng.randint(1, m)
    for b in range(1, m + 1):
        if b != live and rng.random() < 0.3:
            classes[b] = (0, field.zero())
        else:
            p = rng.randint(1, p_max)
            if field.p is None:
                q = field.element(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 5))
            else:
                q = field.from_int(rng.randint(1, field.p - 1))
            classes[b] = (p, q)
    return WeightZeroFamilyParams(m, classes)


def max_target_shift(params: WeightZeroFamilyParams) -> int:
    return max(
        (params.m * p for p, q in params.classes.values() if not q.is_zero()),
        default=0,
    )


def reference_rb_check(R, weight, degree):
    """``rb_check`` evaluated pair by pair with ``rb_residual`` alone.

    The same pairs in the same order, but no raw-value kernel: an oracle
    that stays independent of the fast path it judges.
    """
    algebra = R.algebra
    truncated = algebra.truncation is not None
    top = min(degree, algebra.truncation) if truncated else degree
    basis = list(algebra.basis(top))
    checked = 0
    for i, u in enumerate(basis):
        for v in basis[i:]:
            if not truncated and u.degree() + v.degree() > top:
                continue
            checked += 1
            residual = rb_residual(R, u, v, weight)
            if not residual.is_zero():
                return CheckReport(checked, RBViolation(u, v, residual))
    return CheckReport(checked, None)
