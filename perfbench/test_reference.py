"""The reference evaluator agrees with the program's pairwise check.

Every monomial operator table over GF(5) at a small bound (non-unital
k0[x]/(x^4), unital k[x]/(x^3)), at weights 0 and 1: the verdict, the
number of pairs checked, the first violating pair and its residual must
all be equal.  Run from the repository root:

    python3 -m pytest -q perfbench/test_reference.py
"""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from rbalg import AlgebraSpec, Monomial, MonomialOperatorTable, prime_field, rb_check  # noqa: E402


def all_tables(alg: ref.Algebra, p: int):
    mons = ref.basis(alg, alg.truncation)
    for shape in itertools.product([None] + mons, repeat=len(mons)):
        defined = [(src, dst) for src, dst in zip(mons, shape) if dst is not None]
        for coeffs in itertools.product(range(1, p), repeat=len(defined)):
            yield {src: {dst: c} for (src, dst), c in zip(defined, coeffs)}


@pytest.mark.parametrize("weight", [0, 1])
@pytest.mark.parametrize("unital,bound", [(False, 3), (True, 2)])
def test_reference_matches_rb_check_on_every_gf5_table(weight, unital, bound):
    p = 5
    field = prime_field(p)
    F = ref.Field(p)
    alg = ref.Algebra(1, unital, bound)
    algebra = AlgebraSpec(field, 1, unital, bound)
    w = field.from_int(weight)
    passed = 0
    for R in all_tables(alg, p):
        entries = {
            Monomial(src): (field.from_int(c), Monomial(dst))
            for src, image in R.items()
            for dst, c in image.items()
        }
        report = rb_check(MonomialOperatorTable(algebra, w, bound, entries), w, bound)
        checked, violation = ref.rb_verdict(R, bound, weight, alg, F, bound)
        assert checked == report.checked_pairs
        if violation is None:
            assert report.passed
            passed += 1
        else:
            u, v, residual = violation
            got = report.violation
            assert (got.u.exponents, got.v.exponents) == (u, v)
            assert {m.exponents: c.value for m, c in got.residual.terms()} == residual
    assert passed > 1  # the zero operator and at least one other table pass


def test_domain_repros_pass_on_the_domain_only():
    F = ref.Field(None)
    unital, plain = ref.Algebra(1, True, None), ref.Algebra(1, False, None)
    integral = ref.integral(F.norm(1), unital, F, 6)
    shift_two = ref.weight_zero_classes(1, {1: (2, F.norm(1))}, plain, F, 6)
    for R, alg in ((integral, unital), (shift_two, plain)):
        checked, violation = ref.rb_verdict(R, 6, F.norm(0), alg, F, 6, domain_only=True)
        assert checked > 0 and violation is None
        with pytest.raises(ref.OutsideDomain):
            ref.rb_verdict(R, 6, F.norm(0), alg, F, 6)


def test_reference_aybe_residual_of_unit_tensor():
    F = ref.Field(None)
    one = (0,)
    assert ref.aybe_residual({(one, one): F.norm(3)}, F.norm(3), F) == {}
    assert ref.aybe_residual({(one, one): F.norm(3)}, F.norm(2), F) != {}
    assert ref.aybe_residual({((1,), (1,)): F.norm(1)}, F.norm(1), F) != {}
