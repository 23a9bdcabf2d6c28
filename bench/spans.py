"""Spans around calls into quiverdiff's public functions.

The package itself has no tracing, so this module installs it from
outside: it replaces each public function or method named in WRAPPED
with a wrapper that records a span (id, parent id, job id, name, start,
end) in memory, and rebinds every ``quiverdiff.*`` module attribute
that aliases a wrapped function, because the package binds names with
``from .x import y``.  A few wrappers also add exact counts (matrix
cells eliminated, multiply-adds, nonzeros) computed from the call's
arguments.  Counting that has to walk a matrix is recorded as its own
``trace.count`` span so that it never lands in a package layer's time.

``summarize`` turns the spans of one pass into the per-layer metrics:
inclusive times per function group, call counts, the exact counts, and
self time per layer (a span's duration minus its direct children's).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "quiverfile",
    "quiver",
    "algebra",
    "linalg",
    "derivations",
    "embedding",
    "cohomology",
)


def _nonzeros(matrix) -> int:
    return sum(1 for row in matrix.rows for x in row if x)


def _count_rref(counts, args, result):
    m = args[0]
    counts["linalg.rref_cells"] += m.num_rows * m.num_cols


def _count_matmul(counts, args, result):
    a, b = args
    counts["linalg.matmul_madds"] += a.num_rows * a.num_cols * b.num_cols
    counts["linalg.operand_entries"] += a.num_rows * a.num_cols + b.num_rows * b.num_cols
    counts["linalg.operand_nonzeros"] += _nonzeros(a) + _nonzeros(b)


def _count_matadd(counts, args, result):
    a, b = args
    counts["linalg.operand_entries"] += 2 * a.num_rows * a.num_cols
    counts["linalg.operand_nonzeros"] += _nonzeros(a) + _nonzeros(b)


def _count_basis(counts, args, result):
    counts["derivations.dim_der"] += len(result)
    for op in result.operators:
        m = op.matrix
        counts["derivations.op_entries"] += m.num_rows * m.num_cols
        counts["derivations.op_nonzeros"] += _nonzeros(m)


def _count_oracle(counts, args, result):
    counts["derivations.oracle_unknowns"] += len(args[0].paths()) ** 2


# (module, attribute path, span name, counter, counter walks a matrix)
WRAPPED = (
    ("quiverdiff.cli", "main", "cli.main", None, False),
    ("quiverdiff.quiverfile", "load", "quiverfile.load", None, False),
    ("quiverdiff.quiver", "Quiver.paths", "quiver.paths", None, False),
    ("quiverdiff.quiver", "Quiver.parallel_paths", "quiver.parallel_paths", None, False),
    ("quiverdiff.algebra", "AlgebraElement.__mul__", "algebra.mul", None, False),
    ("quiverdiff.linalg", "RationalMatrix.rref", "linalg.rref", _count_rref, False),
    ("quiverdiff.linalg", "RationalMatrix.__mul__", "linalg.matmul", _count_matmul, True),
    ("quiverdiff.linalg", "RationalMatrix.__add__", "linalg.matadd", _count_matadd, True),
    ("quiverdiff.linalg", "EchelonBasis.insert", "linalg.echelon_insert", None, False),
    ("quiverdiff.linalg", "EchelonBasis.contains", "linalg.echelon_contains", None, False),
    ("quiverdiff.linalg", "LinearSolver.__init__", "linalg.solver_init", None, False),
    ("quiverdiff.linalg", "LinearSolver.solve", "linalg.solve", None, False),
    ("quiverdiff.derivations", "LinearOperator.from_images", "derivations.from_images", None, False),
    ("quiverdiff.derivations", "LinearOperator.bracket", "derivations.bracket", None, False),
    ("quiverdiff.derivations", "DerivationBasis.coordinates_of", "derivations.coordinates_of", None, False),
    ("quiverdiff.derivations", "canonical_basis", "derivations.canonical_basis", _count_basis, True),
    ("quiverdiff.derivations", "inner_subspace", "derivations.inner_subspace", None, False),
    ("quiverdiff.derivations", "derivation_space_oracle", "derivations.oracle", _count_oracle, False),
    ("quiverdiff.derivations", "is_derivation", "derivations.is_derivation", None, False),
    ("quiverdiff.derivations", "check_coefficient_conditions", "derivations.check_coefficient_conditions", None, False),
    ("quiverdiff.derivations", "verify_bracket_identities", "derivations.verify_bracket_identities", None, False),
    ("quiverdiff.derivations", "inner_edge_bracket_sign", "derivations.inner_edge_bracket_sign", None, False),
    ("quiverdiff.embedding", "trace_faces", "embedding.trace_faces", None, False),
    ("quiverdiff.embedding", "genus", "embedding.genus", None, False),
    ("quiverdiff.embedding", "face_derivation", "embedding.face_derivation", None, False),
    ("quiverdiff.cohomology", "combinatorial_report", "cohomology.report", None, False),
    ("quiverdiff.cohomology", "hh1_dimension", "cohomology.hh1_dimension", None, False),
    ("quiverdiff.cohomology", "hh1_basis", "cohomology.hh1_basis", None, False),
    ("quiverdiff.cohomology", "hh1_structure", "cohomology.hh1_structure", None, False),
    ("quiverdiff.cohomology", "HH1Basis.coset_coordinates", "cohomology.coset_coordinates", None, False),
)

# inclusive time metrics: span names whose outermost calls are summed
TIMES = {
    "linalg.rref_s": ("linalg.rref",),
    "linalg.matmul_s": ("linalg.matmul",),
    "linalg.matadd_s": ("linalg.matadd",),
    "linalg.solver_s": ("linalg.solver_init", "linalg.solve"),
    "linalg.echelon_s": ("linalg.echelon_insert", "linalg.echelon_contains"),
    "algebra.mul_s": ("algebra.mul",),
    "derivations.bracket_s": ("derivations.bracket",),
    "derivations.verify_s": (
        "derivations.is_derivation",
        "derivations.check_coefficient_conditions",
        "derivations.verify_bracket_identities",
        "derivations.inner_edge_bracket_sign",
    ),
    "derivations.coordinates_of_s": ("derivations.coordinates_of",),
    "derivations.from_images_s": ("derivations.from_images",),
    "derivations.oracle_s": ("derivations.oracle",),
    "derivations.canonical_basis_s": ("derivations.canonical_basis",),
    "derivations.inner_subspace_s": ("derivations.inner_subspace",),
    "embedding.s": ("embedding.trace_faces", "embedding.genus", "embedding.face_derivation"),
    "cohomology.hh1_basis_s": ("cohomology.hh1_basis",),
    "cohomology.hh1_structure_s": ("cohomology.hh1_structure",),
    "cohomology.report_s": ("cohomology.report",),
    "quiver.paths_s": ("quiver.paths",),
    "quiver.parallel_paths_s": ("quiver.parallel_paths",),
    "quiverfile.load_s": ("quiverfile.load",),
}

# call-count metrics
CALLS = {
    "linalg.rref_calls": "linalg.rref",
    "linalg.matmul_calls": "linalg.matmul",
    "linalg.matadd_calls": "linalg.matadd",
    "linalg.solves": "linalg.solve",
    "linalg.echelon_inserts": "linalg.echelon_insert",
    "algebra.mul_calls": "algebra.mul",
    "derivations.bracket_calls": "derivations.bracket",
    "derivations.coordinates_of_calls": "derivations.coordinates_of",
    "derivations.from_images_calls": "derivations.from_images",
    "cohomology.coset_coordinates_calls": "cohomology.coset_coordinates",
    "cohomology.hh1_dimension_calls": "cohomology.hh1_dimension",
    "embedding.trace_faces_calls": "embedding.trace_faces",
    "quiver.parallel_paths_calls": "quiver.parallel_paths",
    "quiverfile.load_calls": "quiverfile.load",
}

# counters copied through unchanged
COUNTS = (
    "linalg.rref_cells",
    "linalg.matmul_madds",
    "derivations.oracle_unknowns",
    "derivations.dim_der",
    "quiver.num_paths",
)

# counts that depend only on the inputs, so two traced runs of one seed
# must agree on them exactly
EXACT = (
    "linalg.rref_cells",
    "linalg.matmul_madds",
    "derivations.op_density",
    "embedding.trace_faces_calls",
    "cohomology.hh1_dimension_calls",
)


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack = [0]
        self._next_id = 1

    def _wrap(self, fn, name, counter, heavy, enumerates=False):
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enumerates and args[0]._paths is not None:
                return fn(*args, **kwargs)  # cached path list: no work to trace
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.job, name, start, end))
            if enumerates:
                tracer.counts["quiver.num_paths"] += len(result)
            if counter is not None:
                if heavy:
                    cid = tracer._next_id
                    tracer._next_id = cid + 1
                    c0 = clock()
                    counter(tracer.counts, args, result)
                    spans.append((cid, parent, tracer.job, "trace.count", c0, clock()))
                else:
                    counter(tracer.counts, args, result)
            return result

        return wrapper

    def record_calibration(self, start: float, end: float) -> None:
        """Account a speed sample taken inside a job to the trace layer."""
        sid = self._next_id
        self._next_id = sid + 1
        self.spans.append((sid, self._stack[-1], self.job, "trace.calibrate", start, end))

    def install(self) -> None:
        """Wrap every entry of WRAPPED in the loaded quiverdiff package."""
        importlib.import_module("quiverdiff.cli")
        replaced = {}
        for module_name, attr, name, counter, heavy in WRAPPED:
            module = sys.modules[module_name]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[fn_name]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            wrapper = self._wrap(fn, name, counter, heavy, enumerates=(name == "quiver.paths"))
            setattr(owner, fn_name, classmethod(wrapper) if is_classmethod else wrapper)
            if not owner_name:
                replaced[id(fn)] = wrapper
        # rebind aliases made by ``from .x import y`` in every package module
        for module_name, module in list(sys.modules.items()):
            if module_name == "quiverdiff" or module_name.startswith("quiverdiff."):
                for key, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, key, replaced[id(value)])

    def dump(self, path) -> None:
        """Write the spans and counts as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans, counts, raw_s: float, ref_s: float) -> dict[str, float]:
    """Per-layer metrics for one pass.

    ``spans`` are (id, parent, job, name, start, end) tuples; ``raw_s``
    and ``ref_s`` are the pass's traced wall time, raw and in reference
    seconds.  Every time is scaled by ref_s / raw_s so that the layers'
    self times and the remainder add up to the pass's reference time.
    """
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list] = {}
    child_time = Counter()
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        if span[1]:
            child_time[span[1]] += span[5] - span[4]
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out["trace.self_s"] = 0.0
    top = calibration = 0.0
    for sid, parent, _job, name, start, end in spans:
        if not parent:
            top += end - start
        if name == "trace.calibrate":
            calibration += end - start
            continue
        out[name.split(".", 1)[0] + ".self_s"] += (end - start) - child_time[sid]

    # speed samples taken inside a span are not the span's work
    sampled = Counter()
    for _sid, parent, _job, _name, start, end in by_name.get("trace.calibrate", ()):
        while parent:
            sampled[parent] += end - start
            parent = by_id[parent][1]

    def outermost(names):
        total = 0.0
        for name in names:
            for sid, parent, _job, _name, start, end in by_name.get(name, ()):
                while parent and by_id[parent][3] not in names:
                    parent = by_id[parent][1]
                if not parent:
                    total += end - start - sampled[sid]
        return total

    for metric, names in TIMES.items():
        out[metric] = outermost(set(names))
    for metric, name in CALLS.items():
        out[metric] = len(by_name.get(name, ()))
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    out["derivations.op_density"] = _ratio(
        counts.get("derivations.op_nonzeros", 0), counts.get("derivations.op_entries", 0)
    )
    out["linalg.nonzero_frac"] = _ratio(
        counts.get("linalg.operand_nonzeros", 0), counts.get("linalg.operand_entries", 0)
    )
    # raw_s excludes the speed samples taken inside jobs
    out["trace.remainder_s"] = raw_s - (top - calibration)
    scale = ref_s / raw_s if raw_s else 1.0
    for metric in out:
        if metric.endswith(("_s", ".s")):
            out[metric] *= scale
    out["trace.wall_s"] = ref_s
    return out


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_density", "_frac", "_overhead", ".slowdown")):
        return "ratio"
    return "count"


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
