"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces functions and methods of the rbalg
modules by name, so a name deleted or renamed in the program would
otherwise break only the traced benchmark run.  This installs the tracer
on the modules the benchmark traces, grades two tables and checks three
operators under it and uninstalls it again.
"""

import importlib
import importlib.util
from pathlib import Path

from rbalg import (
    QQ,
    AlgebraSpec,
    AutomorphismSpec,
    MonomialOperatorTable,
    QuotientFamily,
    construct_integral,
    construct_weight_one_univariate,
    op_conjugate,
    prime_field,
    quotient_rb_from_family,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_program():
    run, tracing = load("run"), load("tracing")
    modules = {name: importlib.import_module(f"rbalg.{name}") for name in run.MODULES}
    functions = [(modules[mod], attr) for mod, attr in [*tracing.SPANS, *tracing.COUNTED_FUNCTIONS]]
    methods = [
        (getattr(modules[mod], cls), attr)
        for mod, cls, attr in [*tracing.TIMED_METHODS, *tracing.COUNTED_METHODS]
    ]
    methods += [(modules["fields"].FieldElement, attr) for attr in tracing.FIELD_OPS]
    before = [getattr(owner, attr) for owner, attr in functions]
    before += [owner.__dict__[attr] for owner, attr in methods]

    diagonal = quotient_rb_from_family(QuotientFamily.WEIGHT_ONE_ALPHA_ONE, 3, 5)
    field = prime_field(5)
    algebra = AlgebraSpec(field, nvars=1, unital=False, truncation=4)
    entries = {
        algebra.monomial(1): (field.from_int(2), algebra.monomial(2)),
        algebra.monomial(3): (field.one(), algebra.monomial(3)),
    }
    non_diagonal = MonomialOperatorTable(algebra, field.zero(), 4, entries)
    unital = AlgebraSpec(QQ, nvars=1, unital=True)
    checked = [  # a truncated table, a dense conjugate and an untruncated table
        (diagonal, field.one()),
        (op_conjugate(construct_integral(QQ.zero(), unital, 5), AutomorphismSpec.shift()), QQ.zero()),
        (construct_weight_one_univariate(QQ.one(), AlgebraSpec(QQ), 6), QQ.one()),
    ]

    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        for table in (diagonal, non_diagonal):
            modules["grading"].grading_decompose(table, field.one())
        for R, weight in checked:
            assert modules["rbcheck"].rb_check(R, weight, 5).passed
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()

    after = [getattr(owner, attr) for owner, attr in functions]
    after += [owner.__dict__[attr] for owner, attr in methods]
    assert after == before
    assert metrics["grading.calls"] == 2
    assert metrics["grading.matrix_calls"] == 1
    # {1, 2, 3} gives six eigenvalue pairs; {0, 1} one
    assert metrics["grading.products"] == 7
    assert metrics["rbcheck.calls"] == 3
