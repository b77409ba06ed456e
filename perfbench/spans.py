"""In-memory spans around the library's public functions, and the per-layer
metrics derived from them.

A `Tracer` replaces every module attribute bound to a wrapped function (for
example `stokes_fv.assembly.h1_stiffness_matrix`, which `assemble` calls, and
`stokes_fv.verify.solve`, which `run_convergence` calls) with a wrapper that
records one span per call.  Calls through those names therefore follow the
same code path as in an untraced run.  Spans stay in memory; the run writes
them out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

# Library modules whose namespaces are searched for the wrapped functions.
MODULES = (
    "stokes_fv",
    "stokes_fv.grid",
    "stokes_fv.fields",
    "stokes_fv.operators",
    "stokes_fv.assembly",
    "stokes_fv.solver",
    "stokes_fv.verify",
    "stokes_fv.cli",
)

# Layers in the order the self-time metrics are reported; `harness` is the
# benchmark's own code between library calls.
LAYERS = ("harness", "grid", "fields", "operators", "assembly", "solver", "verify")

# Factor entries are stored as an 8-byte value plus a 4-byte row index.
FACTOR_ENTRY_BYTES = 12


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    pass_no: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store.  Wrapped library calls record spans only while `recording`
    is set; `close` undoes the patches."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.pass_no = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent=parent, pass_no=self.pass_no)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span named `name` around the block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module_name: str, attr: str, count=None) -> None:
        """Record a span `<layer>.<attr>` around every call through any library
        name bound to `module_name.attr`.  `count(result, *args)` returns the
        counts stored on the span; it runs after the span's clock stops."""
        fn = getattr(sys.modules[module_name], attr)
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts.update(count(result, *args))
            return result

        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, fn))

    def close(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _edges(grid, *args):
    return {"n_edges": int(grid.n_edges)}


def _system(system, *args):
    m = system.matrix
    return {
        "matrix_nnz": int(m.nnz),
        "matrix_bytes": int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes),
    }


def _solve(report, system, *args):
    return {
        "factor_nnz": int(report.stats.get("factor_nnz", 0)),
        "solved_nnz": int(system.matrix.nnz),
        "rel_residual": float(report.residual_norm),
        "singular": int(report.singular),
    }


def _csv_written(result, fld, path, *args):
    return {"csv_bytes": os.path.getsize(path)}


# (module, function, counts taken at the span boundary)
WRAPPED = (
    ("stokes_fv.grid", "build_uniform", _edges),
    ("stokes_fv.grid", "build_tensor", _edges),
    ("stokes_fv.grid", "make_clusters", None),
    ("stokes_fv.grid", "cluster_regularity", None),
    ("stokes_fv.operators", "h1_stiffness_matrix", None),
    ("stokes_fv.operators", "divergence_matrix", None),
    ("stokes_fv.operators", "gradient_matrix", None),
    ("stokes_fv.operators", "jump_stabilization_matrix", None),
    ("stokes_fv.assembly", "cell_means", None),
    ("stokes_fv.assembly", "assemble", _system),
    ("stokes_fv.solver", "solve", _solve),
    ("stokes_fv.solver", "schur_smallest_eigen", None),
    ("stokes_fv.fields", "write_scalar_csv", _csv_written),
    ("stokes_fv.fields", "write_vector_csv", _csv_written),
    ("stokes_fv.fields", "read_scalar_csv", None),
    ("stokes_fv.fields", "read_vector_csv", None),
    ("stokes_fv.verify", "run_convergence", None),
    ("stokes_fv.verify", "checkerboard_sweep", None),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, count in WRAPPED:
        tracer.wrap(module_name, attr, count)


# Per-layer time metrics: the summed duration of the spans with these names.
TIME_METRICS = {
    "grid.build_s": ("grid.build_uniform", "grid.build_tensor"),
    "grid.clusters_s": ("grid.make_clusters",),
    "grid.regularity_s": ("grid.cluster_regularity",),
    "operators.stiffness_s": ("operators.h1_stiffness_matrix",),
    "operators.divergence_s": ("operators.divergence_matrix",),
    "operators.gradient_s": ("operators.gradient_matrix",),
    "operators.jump_s": ("operators.jump_stabilization_matrix",),
    "assembly.forcing_s": ("assembly.cell_means",),
    "assembly.assemble_s": ("assembly.assemble",),
    "solver.solve_s": ("solver.solve",),
    "solver.schur_s": ("solver.schur_smallest_eigen",),
    "fields.csv_write_s": ("fields.write_scalar_csv", "fields.write_vector_csv"),
    "fields.csv_read_s": ("fields.read_scalar_csv", "fields.read_vector_csv"),
    "verify.convergence_s": ("verify.run_convergence",),
    "verify.checkerboard_s": ("verify.checkerboard_sweep",),
    # the inf-sup probe is driven by the harness, as `stokes-fv probe` does
    "verify.infsup_s": ("harness.infsup-cluster", "harness.infsup-full"),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(tracer: Tracer, pass_no: int) -> dict:
    """Per-layer metrics of one traced pass."""
    all_spans = tracer.spans
    own = [i for i, s in enumerate(all_spans) if s.pass_no == pass_no]
    child_time = {i: 0.0 for i in own}
    for i in own:
        parent = all_spans[i].parent
        if parent >= 0:
            child_time[parent] += all_spans[i].duration

    def self_time(i):
        return all_spans[i].duration - child_time[i]

    def total(key):
        return sum(all_spans[i].counts.get(key, 0) for i in own)

    def under_verify(i):
        parent = all_spans[i].parent
        while parent >= 0:
            if _layer(all_spans[parent].name) == "verify":
                return True
            parent = all_spans[parent].parent
        return False

    metrics = {
        metric: sum(all_spans[i].duration for i in own if all_spans[i].name in names)
        for metric, names in TIME_METRICS.items()
    }
    metrics["assembly.assemble_self_s"] = sum(
        self_time(i) for i in own if all_spans[i].name == "assembly.assemble"
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            self_time(i) for i in own if _layer(all_spans[i].name) == layer
        )
    solves = [i for i in own if all_spans[i].name == "solver.solve"]
    factor_nnz = total("factor_nnz")
    solved_nnz = total("solved_nnz")
    metrics.update(
        {
            "grid.n_edges": total("n_edges"),
            "assembly.matrix_nnz": total("matrix_nnz"),
            "assembly.matrix_bytes_computed": total("matrix_bytes"),
            "solver.factor_nnz": factor_nnz,
            "solver.fill_factor": factor_nnz / solved_nnz if solved_nnz else 0.0,
            "solver.factor_bytes_computed": factor_nnz * FACTOR_ENTRY_BYTES,
            "solver.rel_residual_max": max(
                (all_spans[i].counts["rel_residual"] for i in solves), default=0.0
            ),
            "solver.singular_count": total("singular"),
            "fields.csv_bytes": total("csv_bytes"),
            "verify.solve_calls": sum(1 for i in solves if under_verify(i)),
            "trace.spans": len(own),
        }
    )
    return metrics


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
