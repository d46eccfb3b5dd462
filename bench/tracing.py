"""Span tracing for the benchmark's traced runs.

:meth:`Tracer.installed` replaces public functions of the ``sulfexp``
layer modules by timing wrappers and restores the originals on exit. The
package's layers call each other through module attributes
(``svm.svm_train``, ``linalg.solve_symmetric``, ...), so every call made
while the wrappers are installed becomes a span with a name, a start, an
end and a parent. Spans are kept in memory for one operation, folded into
per-layer totals when the operation ends, and dropped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from sulfexp.errors import NumericalError

#: Functions wrapped per layer module. Per-sample helpers such as
#: ``curves.smoothing_weights``, ``regression.role_value`` and
#: ``linalg.check_finite`` stay unwrapped: they run thousands of times per fit
#: and the wrapper's own cost would dominate their layer's time.
#: ``model.predict_expansion`` and ``svm.classify`` are per-grid-point and
#: per-candidate kernels whose time stays in their caller's self time.
LAYER_FUNCTIONS = {
    "curves": ("smooth", "cluster_features", "failure_point"),
    "clustering": ("standardize_features", "kmeans"),
    "pca": ("center_and_scale", "principal_components", "select_dominant_variables"),
    "linalg": ("solve_symmetric", "dominant_eigenpair"),
    "regression": ("fit_group_model", "design_rows", "ols_fit"),
    "svm": ("svm_train", "simplify_axis_parallel"),
    "model": ("fit_pipeline", "classify_mixture", "predict_curve",
              "predicted_failure_time", "default_bundle"),
    "dataio": ("load_manifest", "load_dataset", "load_mixtures", "load_series",
               "load_bundle", "save_bundle", "emit_plot_data"),
    "cli": ("main",),
}

DATAIO_READS = ("dataio.load_manifest", "dataio.load_dataset", "dataio.load_mixtures",
                "dataio.load_series", "dataio.load_bundle")
DATAIO_WRITES = ("dataio.save_bundle", "dataio.emit_plot_data")


def _facts_smooth(args, result):
    return {"samples": len(args[0])}


def _facts_kmeans(args, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _facts_design_rows(args, result):
    return {"rows": int(result[0].shape[0]), "dropped_rows": int(result[2])}


def _facts_svm_train(args, result):
    return {"points": len(args[0])}


def _facts_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _facts_load_mixtures(args, result):
    return {"bytes": os.path.getsize(args[0]), "rows": len(result)}


def _facts_load_series(args, result):
    return {"bytes": os.path.getsize(args[0]), "rows": sum(len(s) for s in result)}


def _facts_write(args, result):
    return {"bytes": os.path.getsize(args[1])}


#: counters read off a call's arguments and result, outside its span
FACTS = {
    "curves.smooth": _facts_smooth,
    "clustering.kmeans": _facts_kmeans,
    "regression.design_rows": _facts_design_rows,
    "svm.svm_train": _facts_svm_train,
    "dataio.load_manifest": _facts_read,
    "dataio.load_bundle": _facts_read,
    "dataio.load_mixtures": _facts_load_mixtures,
    "dataio.load_series": _facts_load_series,
    "dataio.save_bundle": _facts_write,
    "dataio.emit_plot_data": _facts_write,
}

#: per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    "svm.train_first_s", "svm.train_second_s", "svm.simplify_s",
    "svm.points_first", "svm.points_second",
    "linalg.solve_calls", "linalg.solve_s", "linalg.eig_calls", "linalg.eig_s",
    "pca.screen_s",
    "clustering.kmeans_s", "clustering.kmeans_iterations", "clustering.kmeans_converged",
    "curves.smooth_s", "curves.smooth_calls", "curves.samples", "curves.features_s",
    "regression.fit_s", "regression.ols_calls", "regression.rows", "regression.dropped_rows",
    "model.fit_self_s", "model.classify_s", "model.predict_curve_s", "model.failure_time_s",
    "model.default_bundle_builds", "model.failure_time_na",
    "dataio.read_s", "dataio.rows_parsed", "dataio.bytes_read",
    "dataio.write_s", "dataio.bytes_written",
    "cli.interpreter_s", "cli.import_s", "cli.main_s",
) + tuple(f"{layer}.self_s" for layer in LAYER_FUNCTIONS) + ("trace.overhead_s",)


def layer_unit(name: str) -> str:
    """Per-layer metrics ending in ``_s`` are seconds, ``bytes_*`` bytes, the rest counts."""
    if name.endswith("_s"):
        return "s"
    return "bytes" if ".bytes_" in name else "count"


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    facts: dict = field(default_factory=dict)
    error: type | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed and folds them into per-unit totals.

    ``totals`` sums every per-layer quantity over the operations traced so
    far; :meth:`per_unit` divides by ``units``, the work those operations
    did (fits, candidates or sessions), which the caller counts.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.totals: Counter = Counter()
        self.units = 0

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        facts = FACTS.get(full)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(full, layer, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.error = type(exc)
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if facts is not None:
                span.facts = facts(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = []
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                module = importlib.import_module(f"sulfexp.{layer}")
                for name in names:
                    fn = getattr(module, name)
                    originals.append((module, name, fn))
                    setattr(module, name, self._wrap(layer, name, fn))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation; folds its spans on exit."""
        root = Span("bench.operation", "bench", -1)
        self.spans = [root]
        self._stack = [0]
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack = []
            self.totals.update(fold(self.spans))
            self.spans = []

    def per_unit(self) -> dict[str, float]:
        n = max(self.units, 1)
        return {name: self.totals[name] / n for name in PER_LAYER}


def fold(spans: list[Span]) -> Counter:
    """Per-layer quantities of one operation's spans.

    Named ``*_s`` quantities are inclusive span durations; ``<layer>.self_s``
    is each span's duration minus its children's, summed over the layer.
    Calls are strictly nested in this single-threaded program, so the
    children's union is their sum.
    """
    out: Counter = Counter()
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    svm_trains_seen: Counter = Counter()

    for i, span in enumerate(spans):
        dur = span.seconds
        self_s = dur - child_seconds[i]
        out[f"{span.layer}.self_s"] += self_s
        parent = spans[span.parent] if span.parent >= 0 else None
        outermost_in_layer = parent is None or parent.layer != span.layer
        name = span.name
        if name == "svm.svm_train":
            svm_trains_seen[span.parent] += 1
            which = "first" if svm_trains_seen[span.parent] == 1 else "second"
            out[f"svm.train_{which}_s"] += dur
            out[f"svm.points_{which}"] += span.facts.get("points", 0)
        elif name == "svm.simplify_axis_parallel":
            out["svm.simplify_s"] += dur
        elif name == "linalg.solve_symmetric":
            out["linalg.solve_calls"] += 1
            out["linalg.solve_s"] += dur
        elif name == "linalg.dominant_eigenpair":
            out["linalg.eig_calls"] += 1
            out["linalg.eig_s"] += dur
        elif name == "clustering.kmeans":
            out["clustering.kmeans_s"] += dur
            out["clustering.kmeans_iterations"] += span.facts.get("iterations", 0)
            out["clustering.kmeans_converged"] += span.facts.get("converged", 0)
        elif name == "curves.smooth":
            out["curves.smooth_s"] += dur
            out["curves.smooth_calls"] += 1
            out["curves.samples"] += span.facts.get("samples", 0)
        elif name == "curves.cluster_features":
            out["curves.features_s"] += dur
        elif name == "regression.fit_group_model":
            out["regression.fit_s"] += dur
        elif name == "regression.ols_fit":
            out["regression.ols_calls"] += 1
        elif name == "regression.design_rows":
            out["regression.rows"] += span.facts.get("rows", 0)
            out["regression.dropped_rows"] += span.facts.get("dropped_rows", 0)
        elif name == "model.fit_pipeline":
            out["model.fit_self_s"] += self_s
        elif name == "model.classify_mixture":
            out["model.classify_s"] += dur
        elif name == "model.predict_curve":
            out["model.predict_curve_s"] += dur
        elif name == "model.predicted_failure_time":
            out["model.failure_time_s"] += dur
            if span.error is not None and issubclass(span.error, NumericalError):
                out["model.failure_time_na"] += 1
        elif name == "model.default_bundle":
            out["model.default_bundle_builds"] += 1
        elif name == "cli.main":
            out["cli.main_s"] += dur

        if name.startswith("pca.") and outermost_in_layer:
            out["pca.screen_s"] += dur
        if name in DATAIO_READS:
            if outermost_in_layer:
                out["dataio.read_s"] += dur
            out["dataio.rows_parsed"] += span.facts.get("rows", 0)
            out["dataio.bytes_read"] += span.facts.get("bytes", 0)
        elif name in DATAIO_WRITES:
            if outermost_in_layer:
                out["dataio.write_s"] += dur
            out["dataio.bytes_written"] += span.facts.get("bytes", 0)
    return out
