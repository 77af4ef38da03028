"""Spans around the engine's public calls, recorded from outside.

For one traced pass the Tracer replaces selected public functions and
methods of each koszul module by timing wrappers and puts the originals
back afterwards; the engine's source is never edited.  A function is
replaced in every koszul module that imported it by name, so calls from
one module into another are caught too.  Per-element helpers (spec.mult,
vec_add_into, ...) are left alone: wrapping them would cost more than the
work they do.

Every span records name, layer, start, end, parent span and job.  A
span's self time is its duration minus the durations of its children;
summed over a pass, self times cover the traced jobs exactly, and the
benchmark's own glue appears as the "bench" layer (the job root spans).
"""

import functools
import sys
import time
from collections import defaultdict

from koszul.exactla import SpanTracker

# (module, attribute path, span name).  The module is the span's layer.
TARGETS = (
    ("exactla", "CochainComplexSlice.cohomology", "cohomology"),
    ("exactla", "CochainComplexSlice.validate_complex", "validate"),
    ("exactla", "SparseMatrix.nullspace_basis", "nullspace"),
    ("bar", "bar_complex", "bar_complex"),
    ("bar", "two_sided_bar", "two_sided_bar"),
    ("dual", "koszul_dual_slice", "koszul_dual_slice"),
    ("dual", "DualSlice.homology_dims", "homology_dims"),
    ("dual", "bidual_cohomology", "bidual_cohomology"),
    ("dual", "check_power_generation", "check_power_generation"),
    ("dga", "cohomology_ring", "cohomology_ring"),
    ("dga", "FiniteDga.validate", "validate"),
    ("dga", "algebra_slice", "algebra_slice"),
    ("dga", "connective_cover", "connective_cover"),
    ("extres", "minimal_resolution", "minimal_resolution"),
    ("extres", "ext_dims", "ext_dims"),
    ("artin", "verify_square", "verify_square"),
    ("artin", "is_artin", "is_artin"),
    ("artin", "radical_filtration", "radical_filtration"),
    ("artin", "small_extension_square", "small_extension_square"),
    ("dgmod", "verify_free_filtration", "verify_free_filtration"),
    ("dgmod", "strict_tensor", "strict_tensor"),
    ("dgmod", "module_slice", "module_slice"),
    ("cli", "main", "main"),
)

LAYERS = ("bench", "exactla", "bar", "dual", "dga", "extres", "artin",
          "dgmod", "cli")


class JobTrace:
    """What one traced job touched: its slices and the sizes it built."""

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind            # "call", "hit", "miss" or "corrupt"
        self.slices = {}            # id -> CochainComplexSlice
        self.bar_basis = 0
        self.bar_caps = []
        self.ring_pairs = 0
        self.generators = 0


def _capture_slice(tracer, args, result):
    tracer.job.slices.setdefault(id(args[0]), args[0])


def _capture_bar(tracer, args, result):
    tracer.job.bar_basis += sum(len(ws) for ws in result.basis.values())
    tracer.job.bar_caps.append(result.max_weight)


def _capture_ring(tracer, args, result):
    tracer.job.ring_pairs += len(result.ring or ()) + len(result.ring_skipped)


def _capture_resolution(tracer, args, result):
    tracer.job.generators += sum(result.gen_counts().values())


HOOKS = {
    "exactla.cohomology": _capture_slice,
    "exactla.validate": _capture_slice,
    "bar.bar_complex": _capture_bar,
    "bar.two_sided_bar": _capture_bar,
    "dga.cohomology_ring": _capture_ring,
    "extres.minimal_resolution": _capture_resolution,
}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, layer, start, end, parent, job index]
        self.child = []     # seconds covered by each span's children
        self.stack = []
        self.jobs = []      # JobTrace per job root
        self.job = None
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        for modname, path, short in TARGETS:
            module = sys.modules["koszul." + modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(f"{modname}.{short}", modname, original)
            self._replace(owner, attr, wrapped)
            if not owner_name:
                for name, other in list(sys.modules.items()):
                    if (name.startswith("koszul") and other is not module
                            and getattr(other, attr, None) is original):
                        self._replace(other, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, layer, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._timed(name, layer, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _timed(self, name, layer, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        span = [name, layer, 0.0, 0.0, parent, len(self.jobs) - 1]
        self.spans.append(span)
        self.child.append(0.0)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            span[2], span[3] = start, end
            if parent is not None:
                self.child[parent] += end - start

    def run_job(self, name, kind, fn):
        """Run fn under a root span of the bench layer."""
        self.job = JobTrace(name, kind)
        self.jobs.append(self.job)
        return self._timed("bench.job", "bench", fn, (), {})

    # -- after a pass ---------------------------------------------------------

    def self_times(self):
        """Self seconds summed by span name and by layer, plus the cli.main
        self time split by whether its job was a cache hit or a miss."""
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        cli_kind = defaultdict(float)
        for (name, layer, start, end, _, job), child in zip(self.spans, self.child):
            own = end - start - child
            by_name[name] += own
            by_layer[layer] += own
            if name == "cli.main":
                cli_kind[self.jobs[job].kind] += own
        return by_name, by_layer, cli_kind

    def dump(self):
        """Spans as [name, layer, start, end, parent index, job index]."""
        return [[name, layer, round(start, 7), round(end, 7), parent, job]
                for name, layer, start, end, parent, job in self.spans]


def probe_slices(job):
    """Sizes of every slice the job materialized, with the benchmark's own
    SparseMatrix.rank call on each differential (outside the job's time).

    Returns (seconds spent in rank, summary dict, largest differential)."""
    rank_s = 0.0
    summary = {"slices": [], "nnz_total": 0, "rank_total": 0,
               "bar_basis": job.bar_basis, "weight_caps": job.bar_caps,
               "largest_d": None}
    largest = None
    for complex_ in job.slices.values():
        nnz = {}
        for d, m in sorted(complex_.diff.items()):
            start = time.perf_counter()
            rank = m.rank()
            rank_s += time.perf_counter() - start
            nnz[d] = len(m.entries)
            summary["nnz_total"] += len(m.entries)
            summary["rank_total"] += rank
            if largest is None or len(m.entries) > len(largest.entries):
                largest = m
        summary["slices"].append({"dims": complex_.dims(), "nnz": nnz})
    if largest is not None:
        summary["largest_d"] = [largest.rows, largest.cols, len(largest.entries)]
    return rank_s, summary, largest


def pivot_nnz(matrix):
    """Stored pivot entries after a SpanTracker absorbs every column of the
    matrix: the fill-in of column elimination."""
    tracker = SpanTracker(matrix.field)
    for col in matrix.columns():
        if col:
            tracker.insert(col)
    return sum(len(vec) for vec, _ in tracker.pivots.values())
