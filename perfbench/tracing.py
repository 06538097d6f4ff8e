"""In-memory tracing of the program's layers from outside the program.

``Tracer.install`` replaces public functions, and the public names that
modules look up (``rbalg.classify.rb_check``, ``rbalg.linalg.det``, ...),
with wrappers; ``uninstall`` puts the originals back.  Calls into the
search, check, AYBE, grading and linear-algebra layers become spans
(name, start, end, parent, operation).  The operator, polynomial and
field layers are called far too often for a span per call, so they get
counters and, for ``apply`` and polynomial multiplication, summed time.

Self time is a span's duration minus the time of the spans and timed
counters directly inside it.  Counters of one name nested inside
themselves (``DenseOperator.apply`` calls ``apply_monomial``) add their
time once, at the outermost call.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

perf = time.perf_counter

SPANS = {
    # (module, attribute): span name
    ("classify", "enumerate_monomial_rb"): "classify.enumerate",
    ("classify", "rb_check"): "classify.verify",
    ("classify", "match_family"): "classify.match",
    ("rbcheck", "rb_check"): "rbcheck.check",
    ("aybe", "aybe_grid_search"): "aybe.search",
    ("grading", "grading_decompose"): "grading.decompose",
    ("linalg", "det"): "linalg.det",
    ("linalg", "char_poly"): "linalg.char_poly",
    ("linalg", "rational_roots"): "linalg.roots",
    ("linalg", "kernel_basis"): "linalg.kernel",
    ("linalg", "mat_pow"): "linalg.mat_pow",
    ("linalg", "in_span"): "linalg.in_span",
}

COUNTED_FUNCTIONS = {("rbcheck", "rb_residual"): "rbcheck.pairs"}

TIMED_METHODS = {
    ("operators", "MonomialOperatorTable", "apply"): "operators.apply",
    ("operators", "MonomialOperatorTable", "apply_monomial"): "operators.apply",
    ("operators", "DenseOperator", "apply"): "operators.apply",
    ("operators", "DenseOperator", "apply_monomial"): "operators.apply",
    ("poly", "Polynomial", "__mul__"): "poly.mul",
}

COUNTED_METHODS = {
    ("poly", "Polynomial", "__init__"): "poly.built",
    ("poly", "Polynomial", "__add__"): "poly.add",
}

# linear algebra that only the matrix path of grading_decompose calls
EIGEN_PATH = {"linalg.det", "linalg.char_poly", "linalg.mat_pow", "linalg.kernel"}

FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
)


class Tracer:
    def __init__(self, rbalg_modules):
        self.mods = rbalg_modules
        self.saved = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.times = defaultdict(float)
        self.stack = [[0.0]]  # child time of the enclosing frame
        self.depth = Counter()
        self.op = None

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._open_span_id()
            frame = [0.0, len(tracer.spans), name]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer.stack.pop()
                dur = end - start
                tracer.stack[-1][0] += dur
                tracer.spans[frame[1]] = (frame[1], parent, tracer.op, name, start, end, frame[0])
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _open_span_id(self):
        # span frames are [child time, span id, name]; counter frames [child time]
        for frame in reversed(self.stack):
            if len(frame) == 3:
                return frame[1]
        return None

    def _timed(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            tracer.depth[name] += 1
            frame = [0.0]
            tracer.stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                tracer.stack.pop()
                tracer.depth[name] -= 1
                if not tracer.depth[name]:
                    tracer.times[name] += dur
                tracer.stack[-1][0] += dur

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts  # hot path; install() always follows reset()

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result):
        """Counts read from a layer's public result."""
        c = self.counts
        if name == "classify.enumerate":
            s = result.stats
            c["classify.nodes"] += s.nodes_visited
            c["classify.pruned"] += s.shapes_pruned
            c["classify.shapes"] += s.shapes_enumerated
            c["classify.systems"] += s.systems_solved
            c["classify.solutions"] += len(result.solutions)
        elif name == "aybe.search":
            algebra, support_degree, grid = args[:3]
            cells = len(list(algebra.basis(support_degree))) ** 2
            c["aybe.candidates"] += len(grid) ** cells
            c["aybe.solutions"] += len(result)
        elif name == "grading.decompose":
            c["grading.products"] += len(result.products)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        m = self.mods
        for (mod, attr), name in SPANS.items():
            self._patch(m[mod], attr, self._span(name, getattr(m[mod], attr)))
        for (mod, attr), name in COUNTED_FUNCTIONS.items():
            self._patch(m[mod], attr, self._counted(name, getattr(m[mod], attr)))
        for (mod, cls, attr), name in TIMED_METHODS.items():
            owner = getattr(m[mod], cls)
            self._patch(owner, attr, self._timed(name, owner.__dict__[attr]))
        for (mod, cls, attr), name in COUNTED_METHODS.items():
            owner = getattr(m[mod], cls)
            self._patch(owner, attr, self._counted(name, owner.__dict__[attr]))
        element = m["fields"].FieldElement
        for attr in FIELD_OPS:
            self._patch(element, attr, self._counted("fields.ops", element.__dict__[attr]))

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values for the calls traced since the last reset."""
        c, t = self.counts, self.times
        n = Counter()
        dur = defaultdict(float)
        self_time = defaultdict(float)
        matrix_gradings = set()
        by_id = {}
        for sid, parent, _op, name, start, end, child in self.spans:
            by_id[sid] = name
            n[name] += 1
            dur[name] += end - start
            self_time[name] += end - start - child
        for sid, parent, _op, name, _s, _e, _c in self.spans:
            if name in EIGEN_PATH and parent is not None and by_id[parent] == "grading.decompose":
                matrix_gradings.add(parent)
        checks = ("classify.verify", "rbcheck.check")
        verified = n["classify.verify"]
        busy = sum(dur[k] for k in checks)
        pairs = c["rbcheck.pairs"]
        candidates = c["aybe.candidates"]
        return {
            "classify.nodes": c["classify.nodes"],
            "classify.pruned": c["classify.pruned"],
            "classify.shapes": c["classify.shapes"],
            "classify.self_s": self_time["classify.enumerate"],
            "classify.systems": c["classify.systems"],
            "classify.verified": verified,
            "classify.solutions": c["classify.solutions"],
            "classify.verify_yield": c["classify.solutions"] / verified if verified else 0.0,
            "classify.verify_s": dur["classify.verify"],
            "classify.match_s": dur["classify.match"],
            "rbcheck.calls": sum(n[k] for k in checks),
            "rbcheck.pairs": pairs,
            "rbcheck.busy_s": busy,
            "rbcheck.self_s": sum(self_time[k] for k in checks),
            "rbcheck.pairs_per_s": pairs / busy if busy else 0.0,
            "operators.apply_calls": c["operators.apply"],
            "operators.apply_s": t["operators.apply"],
            "poly.built": c["poly.built"],
            "poly.mul_calls": c["poly.mul"],
            "poly.mul_s": t["poly.mul"],
            "poly.add_calls": c["poly.add"],
            "fields.ops": c["fields.ops"],
            "aybe.candidates": candidates,
            "aybe.solutions": c["aybe.solutions"],
            "aybe.search_s": dur["aybe.search"],
            "aybe.candidates_per_s": candidates / dur["aybe.search"] if dur["aybe.search"] else 0.0,
            "grading.calls": n["grading.decompose"],
            "grading.matrix_calls": len(matrix_gradings),
            "grading.products": c["grading.products"],
            "grading.self_s": self_time["grading.decompose"],
            "linalg.det_calls": n["linalg.det"],
            "linalg.det_s": dur["linalg.det"],
            "linalg.char_poly_s": dur["linalg.char_poly"],
            "linalg.roots_s": dur["linalg.roots"],
            "linalg.kernel_s": dur["linalg.kernel"],
            "linalg.mat_pow_s": dur["linalg.mat_pow"],
            "linalg.in_span_s": dur["linalg.in_span"],
        }

    def dump_spans(self, fh, round_index):
        for sid, parent, op, name, start, end, child in self.spans:
            fh.write(json.dumps({
                "round": round_index, "id": sid, "parent": parent, "op": op,
                "name": name, "start": start, "end": end, "self": end - start - child,
            }) + "\n")
