"""Benchmark of rbalg: one workload per process, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  A run
sets up the workload's inputs from the seed, then repeats whole rounds of
the same operations until ``--seconds`` have passed, and checks every
output against the reference evaluator (first round) or against the first
round's output (later rounds).  Right before each operation the run times
a fixed piece of the benchmark's own work, the calibration; an operation's
time is the median over the run of its ratio to the calibration next to
it, in seconds of the reference host, which cancels the host's drifting
speed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics of a traced run with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# Typical time of one calibration on the reference host (2 vCPUs, Python 3.11.7).
CAL_REF_S = 0.009
MODULES = ("fields", "poly", "operators", "rbcheck", "construct", "classify", "aybe", "grading", "linalg")

LAYER_UNITS = {"verify_yield": "ratio", "pairs_per_s": "1/s", "candidates_per_s": "1/s"}


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import importlib

    return {name: importlib.import_module(f"rbalg.{name}") for name in MODULES}


def build(workload, seed, rb):
    import workloads

    return workloads.WORKLOADS[workload](workloads.Env(rb), random.Random(f"{workload}/{seed}"))


def calibration():
    """A fixed piece of pure-Python work, independent of the seed and of the
    program: the reference evaluator checking two fixed weight-one tables,
    one over Q (Fractions) and one over GF(101) (ints), about 9 ms."""
    import reference as ref

    cases = []
    for p, alpha, N in ((None, Fraction(2, 3), 16), (101, 5, 28)):
        F = ref.Field(p)
        alg = ref.Algebra(1, False, N)
        cases.append((ref.weight_one_diagonal([alpha], alg, F, N), N, F.norm(1), alg, F))

    def run():
        for R, N, w, alg, F in cases:
            if ref.rb_verdict(R, N, w, alg, F, N)[1] is not None:
                raise RuntimeError("calibration table fails the identity")

    return run


def timed(fn):
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        fn()
    finally:
        elapsed = time.perf_counter() - start
        gc.enable()
    return elapsed


def measure_setup(args):
    """Median wall time of fresh processes that start, import and set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Round:
    def __init__(self):
        self.latencies = []  # seconds; math.inf for a failed operation
        self.busy = []  # seconds, failed or not
        self.cal = []  # seconds of the calibration run right before each operation
        self.failed = 0
        self.wrong = []
        self.raised = []


def run_round(ops, first_outputs, tracer=None, calibrate=None):
    """Run every operation once and judge its output.

    The first round's outputs are checked against the reference evaluator;
    later rounds, whose inputs are the same, must reproduce them.
    """
    rnd = Round()
    for index, op in enumerate(ops):
        if calibrate is not None:
            rnd.cal.append(timed(calibrate))
        if tracer is not None:
            tracer.op = index
            tracer.install()
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            out = None
            problem = "raised"
            rnd.raised.append(f"{op.name}: {type(exc).__name__}: {exc}")
        else:
            problem = None
        finally:
            elapsed = time.perf_counter() - start
            gc.enable()
            if tracer is not None:
                tracer.uninstall()
        rnd.busy.append(elapsed)
        if problem is None:
            sig = op.signature(out)
            if index not in first_outputs:
                try:
                    verdict = op.check(out)
                except Exception as exc:  # a malformed output can break its check
                    verdict = f"check raised {type(exc).__name__}: {exc}"
                first_outputs[index] = (verdict, sig)
            problem, expected = first_outputs[index]
            if problem is None and sig != expected:
                problem = "output differs from the first round's"
            if problem is not None:
                rnd.wrong.append(f"{op.name}: {problem}")
        if problem is None:
            rnd.latencies.append(elapsed)
        else:
            rnd.failed += 1
            rnd.latencies.append(math.inf)
    return rnd


def untraced(ops, seconds):
    calibrate = calibration()
    signatures = {}
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ops, signatures, calibrate=calibrate))
    return rounds


def traced(ops, seconds, rb, trace_path):
    """Alternate untraced and traced rounds; per-layer values of one traced round."""
    from tracing import Tracer

    tracer = Tracer(rb)
    signatures = {}
    plain, with_trace, layers = [], [], []
    start = time.perf_counter()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        while not with_trace or time.perf_counter() - start < seconds:
            plain.append(run_round(ops, signatures))
            tracer.reset()
            with_trace.append(run_round(ops, signatures, tracer))
            layers.append(tracer.layer_metrics())
            tracer.dump_spans(fh, len(with_trace))
    return plain, with_trace, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rbalg").is_dir():
        print(f"no program found at {ROOT / 'src' / 'rbalg'}", file=sys.stderr)
        return 2
    rb = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = build(args.workload, args.seed, rb)
    if args.setup_only:
        return 0

    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
        plain, rounds, layers = traced(ops, args.seconds, rb, trace_path)
        all_rounds = plain + rounds
        wrong = [w for r in all_rounds for w in r.wrong]
        if any(layer_counts(l) != layer_counts(layers[0]) for l in layers):
            wrong.append("per-layer counts differ between traced rounds")
        values = dict(layers[0])
        values["trace.overhead_s"] = best_round(rounds) - best_round(plain)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        setup_s = measure_setup(args)
        all_rounds = untraced(ops, args.seconds)
        wrong = [w for r in all_rounds for w in r.wrong]
        wall = [statistics.median(r.busy[i] for r in all_rounds) for i in range(len(ops))]
        cal = statistics.median(c for r in all_rounds for c in r.cal)
        print(f"wall: run_s={sum(wall):.6f} calibration_s={cal:.6f} rounds={len(all_rounds)}", file=sys.stderr)
        metrics = {
            "run_s": {"value": sum(calibrated(all_rounds, "busy")), "unit": "s"},
            "op_p50_ms": {"value": finite(statistics.median(calibrated(all_rounds, "latencies")) * 1000), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    for w in sorted(set(wrong)):
        print(f"WRONG: {w}", file=sys.stderr)
    for r in sorted({r for rnd in all_rounds for r in rnd.raised}):
        print(f"RAISED: {r}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(ops) * len(all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def finite(x):
    """JSON has no infinity: a median that falls on failed operations is null."""
    return x if math.isfinite(x) else None


def calibrated(rounds, attr):
    """Each operation's median ratio to the calibration run right before it,
    in seconds of the reference host; math.inf for an operation that failed."""
    n = len(rounds[0].cal)
    return [statistics.median(getattr(r, attr)[i] / r.cal[i] for r in rounds) * CAL_REF_S for i in range(n)]


def best_round(rounds):
    """Time of one round with each operation at its fastest repeat."""
    return sum(min(r.busy[i] for r in rounds) for i in range(len(rounds[0].busy)))


def layer_counts(values):
    return {k: v for k, v in values.items() if isinstance(v, int)}


def layer_unit(name):
    tail = name.split(".", 1)[1]
    if tail in LAYER_UNITS:
        return LAYER_UNITS[tail]
    return "s" if tail.endswith("_s") else "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
