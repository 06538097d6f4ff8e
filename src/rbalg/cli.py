"""Command-line frontend: construct, check, classify, grade, aybe, selftest.

All structured output is JSON with sorted keys and canonical term
ordering, so identical invocations produce byte-identical reports;
``--pretty`` switches to a human-readable rendering.  Exit codes:
0 success / identity holds, 1 mathematical failure (a violation was
found), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from typing import List, Optional

from . import classify as classify_mod
from .aybe import TensorElement, aybe_grid_search, aybe_residual, operator_from_tensor
from .construct import (
    MultivariateFamilyParams,
    MultivariateKind,
    WeightZeroFamilyParams,
    construct_integral,
    construct_multivariate,
    construct_splitting,
    construct_weight_one_univariate,
    construct_weight_zero,
    residues,
    split_by_variables,
    split_constant_part,
    split_positive_degree,
)
from .errors import RBAlgebraError, SearchBudgetExceeded
from .fields import FieldSpec
from .grading import (
    ProductStatus,
    QuotientFamily,
    grading_decompose,
    quotient_rb_from_family,
)
from .operators import (
    AutomorphismSpec,
    MonomialOperatorTable,
    op_conjugate,
    operator_from_json,
    operators_agree,
)
from .poly import AlgebraSpec
from .rbcheck import rb_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _emit(args, data: dict, pretty_text: Optional[str] = None) -> None:
    if getattr(args, "pretty", False) and pretty_text is not None:
        payload = pretty_text if pretty_text.endswith("\n") else pretty_text + "\n"
    else:
        payload = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _algebra_from_args(args) -> AlgebraSpec:
    field = FieldSpec.from_string(args.field)
    return AlgebraSpec(
        field,
        nvars=args.nvars,
        unital=args.unital,
        truncation=args.truncation,
    )


def _load_document(path: str, parse=operator_from_json):
    """parse (by default, of an operator) applied to the JSON in the file;
    a document of the wrong form is a usage error that names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        return parse(document)
    except (KeyError, TypeError, AttributeError) as exc:
        raise RBAlgebraError(f"{path} is malformed: {type(exc).__name__}: {exc}") from exc


def _parse_grid(field: FieldSpec, text: str):
    return tuple(field.parse(part.strip()) for part in text.split(",") if part.strip())


# -- construct -------------------------------------------------------------------


def _cmd_construct(args) -> int:
    algebra = _algebra_from_args(args)
    field = algebra.field
    family = args.family
    if family == "weight-zero":
        if args.pq is None or args.m is None:
            raise RBAlgebraError("weight-zero needs --m and --pq 'p:q;p:q;...'")
        if args.m < 1:
            raise RBAlgebraError(f"--m must be >= 1, got {args.m}")
        chunks = [c for c in args.pq.split(";") if c.strip()]
        if len(chunks) != args.m:
            raise RBAlgebraError(f"--pq needs {args.m} 'p:q' chunks")
        classes = {}
        for b, chunk in zip(residues(args.m, algebra.unital), chunks):
            p_text, colon, q_text = chunk.partition(":")
            if not colon:
                raise RBAlgebraError(f"--pq chunk {chunk.strip()!r} is not 'p:q'")
            classes[b] = (int(p_text), field.parse(q_text))
        params = WeightZeroFamilyParams(args.m, classes)
        op = construct_weight_zero(params, algebra, args.degree)
    elif family == "weight-one":
        if args.alpha is None:
            raise RBAlgebraError("weight-one needs --alpha")
        op = construct_weight_one_univariate(field.parse(args.alpha), algebra, args.degree)
    elif family in ("multivariate-one", "multivariate-zero"):
        if args.alphas is None:
            raise RBAlgebraError(f"{family} needs --alphas a1,a2,...")
        alphas = tuple(field.parse(a) for a in args.alphas.split(","))
        kind = (
            MultivariateKind.WEIGHT_ONE
            if family == "multivariate-one"
            else MultivariateKind.WEIGHT_ZERO
        )
        op = construct_multivariate(MultivariateFamilyParams(kind, alphas), algebra, args.degree)
    elif family == "integral":
        base = field.parse(args.a) if args.a is not None else field.zero()
        op = construct_integral(base, algebra, args.degree)
    elif family == "splitting":
        if args.second_vars:
            indices = [int(i) for i in args.second_vars.split(",")]
            for i in indices:
                if not 1 <= i <= algebra.nvars:
                    raise RBAlgebraError(f"--second-vars takes 1..{algebra.nvars}, got {i}")
            spec = split_by_variables([i - 1 for i in indices])
        elif args.second == "constants":
            spec = split_constant_part()
        else:
            spec = split_positive_degree()
        weight = field.parse(args.weight) if args.weight is not None else field.one()
        op = construct_splitting(spec, weight, algebra, args.degree)
    elif family in ("quotient-one", "quotient-zero"):
        if args.truncation is None:
            raise RBAlgebraError(f"{family} needs --truncation")
        if args.nvars != 1 or args.unital:
            raise RBAlgebraError(f"{family} is univariate and non-unital: drop --nvars and --unital")
        source = (
            QuotientFamily.WEIGHT_ONE_ALPHA_ONE
            if family == "quotient-one"
            else QuotientFamily.WEIGHT_ZERO_RECIPROCAL
        )
        op = quotient_rb_from_family(source, args.truncation, field.p)
    else:
        raise RBAlgebraError(f"unknown family {family!r}")
    data = op.to_json_dict()
    lines = [f"weight {op.weight}, degree bound {op.degree_bound}"]
    if isinstance(op, MonomialOperatorTable):
        for src, (coeff, dst) in sorted(op.entries.items(), key=lambda kv: kv[0].sort_key()):
            lines.append(f"R({src.to_text()}) = {coeff.short_str()}*{dst.to_text()}")
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


# -- check ----------------------------------------------------------------------


def _cmd_check(args) -> int:
    op = _load_document(args.operator)
    weight = op.algebra.field.parse(args.weight)
    degree = args.degree if args.degree is not None else op.degree_bound
    report = rb_check(op, weight, degree)
    skipped = f", {report.skipped_pairs} outside the domain" if report.skipped_pairs else ""
    text = (
        f"pass ({report.checked_pairs} pairs{skipped})"
        if report.passed
        else "violation at ({}, {}): residual {}".format(
            report.violation.u.to_text(),
            report.violation.v.to_text(),
            report.violation.residual.to_text(),
        )
    )
    _emit(args, report.to_json_dict(), text)
    return EXIT_OK if report.passed else EXIT_VIOLATION


# -- classify ---------------------------------------------------------------------


def _cmd_classify(args) -> int:
    field = FieldSpec.from_string(args.field)
    if args.match_only:
        if not args.operator:
            raise RBAlgebraError("--match-only needs --operator")
        op = _load_document(args.operator)
        if not isinstance(op, MonomialOperatorTable):
            raise RBAlgebraError("--match-only works on monomial tables")
        match = classify_mod.match_family(op)
        _emit(args, match.to_json_dict(), json.dumps(match.to_json_dict()))
        return EXIT_OK
    algebra = AlgebraSpec(
        field, nvars=1, unital=(args.unital == "true"), truncation=args.degree
    )
    weight = field.from_int(args.weight)
    for flag, value in (("--max-seeds", args.max_seeds), ("--budget", args.budget)):
        if value is not None and value < 0:
            raise RBAlgebraError(f"{flag} must be >= 0, got {value}")
    strategy = None
    if args.grid or args.budget is not None or args.max_seeds is not None:
        # default grids are refused over primes above 64; explicit ones are not
        base = classify_mod.CoefficientStrategy(
            _parse_grid(field, args.grid) if args.grid else classify_mod.default_strategy(field).grid
        )
        strategy = dataclasses.replace(
            base,
            max_seeds=base.max_seeds if args.max_seeds is None else args.max_seeds,
            shape_budget=base.shape_budget if args.budget is None else args.budget,
        )
    report = classify_mod.enumerate_monomial_rb(algebra, weight, args.degree, strategy)
    lines = [
        f"{len(report.solutions)} solutions "
        f"({len(report.fully_determined())} fully determined)"
    ]
    for sol in report.solutions:
        entries = ", ".join(
            f"{src.to_text()}->{coeff.short_str()}*{dst.to_text()}"
            for src, (coeff, dst) in sorted(
                sol.table.entries.items(), key=lambda kv: kv[0].sort_key()
            )
        )
        lines.append(f"[{sol.match.kind.value}] {{{entries}}}")
    _emit(args, report.to_json_dict(), "\n".join(lines))
    return EXIT_OK


# -- grade ----------------------------------------------------------------------


def _cmd_grade(args) -> int:
    op = _load_document(args.operator)
    weight = op.algebra.field.from_int(args.weight)
    decomposition = grading_decompose(op, weight)
    lines = ["spectrum: " + ", ".join(x.short_str() for x in decomposition.spectrum)]
    for lam in decomposition.spectrum:
        span = ", ".join(p.to_text() for p in decomposition.spaces[lam])
        lines.append(f"A_{lam.short_str()} = span{{{span}}}")
    for check in decomposition.products:
        if check.status is ProductStatus.CONTAINED:
            verdict = f"contained in A_{check.product_eigenvalue.short_str()}"
        elif check.status is ProductStatus.ZERO:
            verdict = "zero" + (
                " (product undefined)"
                if check.product_eigenvalue is None
                else f" (product {check.product_eigenvalue.short_str()})"
            )
        else:
            verdict = "VIOLATION"
        lines.append(f"A_{check.left.short_str()} * A_{check.right.short_str()}: {verdict}")
    _emit(args, decomposition.to_json_dict(), "\n".join(lines))
    return EXIT_VIOLATION if decomposition.violations() else EXIT_OK


# -- aybe -----------------------------------------------------------------------


def _cmd_aybe_check(args) -> int:
    tensor = _load_document(args.r, TensorElement.from_json_dict)
    weight = tensor.algebra.field.parse(args.weight)
    residual = aybe_residual(tensor, weight)
    data = {
        "status": "pass" if residual.is_zero() else "fail",
        "residual_terms": len(residual.terms),
        "residual": residual.to_json_dict()["terms"],
    }
    _emit(args, data, "pass" if residual.is_zero() else f"nonzero residual: {residual!r}")
    return EXIT_OK if residual.is_zero() else EXIT_VIOLATION


def _cmd_aybe_search(args) -> int:
    field = FieldSpec.from_string(args.field)
    algebra = AlgebraSpec(field, nvars=args.nvars, unital=True, truncation=None)
    weight = field.parse(args.weight)
    grid = list(_parse_grid(field, args.grid)) if args.grid else [
        field.zero(),
        field.one(),
        -field.one(),
        weight,
        -weight,
    ]
    grid = list(dict.fromkeys(grid))
    solutions = aybe_grid_search(algebra, args.degree, grid, weight)
    data = {
        "count": len(solutions),
        "solutions": [s.to_json_dict()["terms"] for s in solutions],
    }
    _emit(args, data, "\n".join(repr(s) for s in solutions) or "no solutions")
    return EXIT_OK


# -- selftest ---------------------------------------------------------------------


def _selftest_cases():
    from .fields import QQ

    def inverse_degree_table():
        algebra = AlgebraSpec(QQ, nvars=1, unital=False, truncation=None)
        entries = {}
        for n in range(1, 25):
            mono = algebra.monomial(n)
            entries[mono] = (QQ.element(1, n), mono)
        return MonomialOperatorTable(algebra, QQ.zero(), 24, entries)

    def case_inverse_degree():
        table = inverse_degree_table()
        return rb_check(table, QQ.zero(), 12).passed

    def quotient_case(family, weight, coeffs, statuses):
        """The GF(5) table of family at truncation 3: its entries are
        coeffs[n-1] * x^n, it passes rb_check, and the products of its
        grading named in statuses have the given (status, eigenvalue)."""
        table = quotient_rb_from_family(family, 3, 5)
        field = table.algebra.field
        for n, coeff in enumerate(coeffs, 1):
            hit = table.entries[table.algebra.monomial(n)]
            if hit != (field.from_int(coeff), table.algebra.monomial(n)):
                return False
        weight = field.from_int(weight)
        if not rb_check(table, weight, 3).passed:
            return False
        decomposition = grading_decompose(table, weight)
        if decomposition.violations():
            return False
        status = {
            (c.left.value, c.right.value): (c.status, c.product_eigenvalue)
            for c in decomposition.products
        }
        return all(
            status[pair] == (kind, None if lam is None else field.from_int(lam))
            for pair, (kind, lam) in statuses.items()
        )

    contained, zero = ProductStatus.CONTAINED, ProductStatus.ZERO
    case_quotient_weight_one = partial(
        quotient_case, QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 1, (1, 2, 3),
        {(1, 2): (contained, 3), (1, 3): (zero, None), (2, 3): (zero, 1)},
    )
    case_quotient_weight_zero = partial(
        quotient_case, QuotientFamily.WEIGHT_ZERO_RECIPROCAL, 0, (1, 3, 2),
        {(1, 3): (contained, 2), (2, 3): (zero, None), (1, 2): (zero, 4)},
    )

    def case_conjugation_chain():
        algebra = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)
        one_mono = algebra.one_monomial()
        entries = {
            algebra.monomial(n): (QQ.one(), one_mono) for n in range(0, 7)
        }
        table = MonomialOperatorTable(algebra, -QQ.one(), 6, entries)
        shifted = op_conjugate(table, AutomorphismSpec.shift())
        splitting = construct_splitting(split_constant_part(), -QQ.one(), algebra, 6)
        return operators_agree(shifted, splitting, 6)

    def case_aybe_unit_solution():
        algebra = AlgebraSpec(QQ, nvars=1, unital=True, truncation=None)
        one_mono = algebra.one_monomial()
        for lam_int in (1, 2, -1):
            lam = QQ.from_int(lam_int)
            tensor = TensorElement(algebra, 2, {(one_mono, one_mono): lam})
            if not aybe_residual(tensor, lam).is_zero():
                return False
            op = operator_from_tensor(tensor, 6, -lam)
            if not rb_check(op, -lam, 6).passed:
                return False
        return True

    return [
        ("inverse-degree weight-zero operator", case_inverse_degree),
        ("truncated weight-one table over GF(5)", case_quotient_weight_one),
        ("truncated weight-zero table over GF(5)", case_quotient_weight_zero),
        ("shift conjugation reaches the splitting operator", case_conjugation_chain),
        ("unit tensor solves the Yang-Baxter equation", case_aybe_unit_solution),
    ]


def _cmd_selftest(args) -> int:
    results = []
    for name, runner in _selftest_cases():
        try:
            passed = bool(runner())
        except RBAlgebraError:
            passed = False
        results.append({"name": name, "status": "pass" if passed else "fail"})
    all_ok = all(r["status"] == "pass" for r in results)
    lines = [f"{r['status']:4s}  {r['name']}" for r in results]
    _emit(args, {"cases": results, "status": "pass" if all_ok else "fail"}, "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_VIOLATION


# -- argument wiring ---------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    parser.add_argument("--output", "-o", help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbalg",
        description="Exact computations with Rota-Baxter operators on polynomial algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an operator from a classified family")
    p.add_argument("--family", required=True,
                   choices=["weight-zero", "weight-one", "multivariate-one",
                            "multivariate-zero", "integral", "splitting",
                            "quotient-one", "quotient-zero"])
    p.add_argument("--field", default="Q")
    p.add_argument("--nvars", type=int, default=1)
    p.add_argument("--unital", action="store_true")
    p.add_argument("--truncation", type=int)
    p.add_argument("--degree", type=int, help="degree bound (defaults to truncation)")
    p.add_argument("--alpha", help="weight-one family parameter")
    p.add_argument("--alphas", help="comma-separated multivariate parameters")
    p.add_argument("--m", type=int, help="weight-zero residue modulus")
    p.add_argument("--pq", help="weight-zero classes as 'p:q;p:q;...'")
    p.add_argument("--a", help="integration base point")
    p.add_argument("--weight", help="splitting weight (default 1)")
    p.add_argument("--second-vars", help="1-based variables spanning the -weight part")
    p.add_argument("--second", choices=["constants", "positive"], default="positive")
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="verify the Rota-Baxter identity pairwise")
    p.add_argument("--operator", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--degree", type=int, help="degree of the pair window (defaults to the degree bound)")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="search for monomial operators, or match a table")
    p.add_argument("--weight", type=int, choices=[0, 1], default=0)
    p.add_argument("--unital", choices=["true", "false"], default="false")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--field", default="Q")
    p.add_argument("--grid", help="comma-separated seed values")
    p.add_argument("--max-seeds", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--match-only", action="store_true")
    p.add_argument("--operator", help="table to match with --match-only")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("grade", help="spectrum grading of a truncated operator")
    p.add_argument("--operator", required=True)
    p.add_argument("--weight", type=int, choices=[0, 1], required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("aybe", help="Yang-Baxter tensor computations")
    aybe_sub = p.add_subparsers(dest="aybe_command", required=True)
    pc = aybe_sub.add_parser("check", help="evaluate the tensor residual")
    pc.add_argument("--r", required=True, help="tensor JSON file")
    pc.add_argument("--weight", required=True)
    _add_common(pc)
    pc.set_defaults(func=_cmd_aybe_check)
    ps = aybe_sub.add_parser("search", help="grid search for solutions")
    ps.add_argument("--degree", type=int, default=2)
    ps.add_argument("--weight", required=True)
    ps.add_argument("--grid")
    ps.add_argument("--field", default="Q")
    ps.add_argument("--nvars", type=int, default=1)
    _add_common(ps)
    ps.set_defaults(func=_cmd_aybe_search)

    p = sub.add_parser("selftest", help="run the built-in worked examples")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RBAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SearchBudgetExceeded) and exc.stats is not None:
            stats = exc.stats
            print(
                f"search stopped at: nodes {stats.nodes_visited}, "
                f"shapes {stats.shapes_enumerated}, pruned {stats.shapes_pruned}",
                file=sys.stderr,
            )
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
