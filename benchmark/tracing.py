"""Span tracing around the public functions of every ``lsdr`` module.

The tracer replaces each public function of each module with a wrapper, in
every namespace that holds it: the defining module, each module that took it
with ``from ... import`` (``lsdr.pipeline.metric_mds``,
``lsdr.indices.kernel_matrix``, the names ``lsdr.cli`` imports, ...) and the
``lsdr`` package itself. Calls that go through a module global therefore pass
through the wrapper wherever they come from. Nothing under ``src/`` changes;
``uninstall`` puts the original objects back.

A span is ``[name, start, end, parent, job]``: ``name`` is
``<module>.<function>``, ``parent`` the index of the enclosing span (-1 at
the top) and ``job`` the label of the job that was running. Spans stay in
memory until the benchmark writes them out. A few wrappers also add counts
(simplices, edges kept, MDS iterations, transforms, ...) at the same
boundary, keyed by job.
"""

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

MODULES = (
    "numerics",
    "geometry",
    "graph",
    "skeleton",
    "embedding",
    "indices",
    "pipeline",
    "datasets",
    "serialize",
    "cli",
)

# The argument validator that every other function calls: its spans would
# outnumber all others together while it does no layer's work.
SKIPPED = {"numerics.as_matrix"}


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = "setup"
        self.warnings: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._skeletal: tuple[int, frozenset] | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = {name: importlib.import_module(f"lsdr.{name}") for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or f"{short}.{attr}" in SKIPPED:
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [importlib.import_module("lsdr"), *modules.values()]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._saved):
            setattr(namespace, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            state = before(args, kwargs) if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    # -- counters recorded at the layer boundaries ---------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.job][key] += value

    def _after_geometry_delaunay_tessellation(self, args, kwargs, tess, state):
        self.count("geometry.simplices", len(tess.simplices))
        self.count("geometry.tess_edges", len(tess.edges))

    def _after_graph_prune_edges(self, args, kwargs, graph, state):
        tess = args[0] if args else kwargs["tess"]
        self.count("graph.edges_tested", len(tess.edges))
        self.count("graph.edges_kept", len(graph.edges))

    def _after_skeleton_skeleton_report(self, args, kwargs, report, state):
        graph = args[0] if args else kwargs["g"]
        self.count("skeleton.boundary_points", len(report.boundary_points))
        self.count("skeleton.skeletal_points", len(report.skeletal_points))
        self._skeletal = (id(graph), frozenset(report.skeletal_points))

    def _after_graph_graph_distances(self, args, kwargs, geodesics, state):
        graph = args[0] if args else kwargs["g"]
        rows = len(geodesics.sources)
        used = rows
        if self._skeletal is not None and self._skeletal[0] == id(graph):
            used = sum(1 for s in geodesics.sources if s in self._skeletal[1])
        self.count("graph.geodesic_rows", rows)
        self.count("graph.geodesic_rows_used", used)

    def _before_embedding_metric_mds(self, args, kwargs):
        # pass a stress trace of our own unless the caller passed one; the
        # function only appends to it
        if len(args) >= 3:
            return (args[2], len(args[2])) if args[2] is not None else None
        if kwargs.get("stress_trace") is None:
            kwargs["stress_trace"] = []
        return kwargs["stress_trace"], len(kwargs["stress_trace"])

    def _after_embedding_metric_mds(self, args, kwargs, coords, state):
        from lsdr.embedding import MDS_MAX_ITER

        if state is None:
            return
        trace, start = state
        iterations = max(0, len(trace) - start - 1)
        self.count("embedding.mds_iterations", iterations)
        self.count("embedding.mds_unconverged", iterations >= MDS_MAX_ITER)

    def _after_indices_tractable_consistency_index(self, args, kwargs, report, state):
        self.count("indices.transforms", len(report.contributions))
        self.count("indices.transforms_failed", len(report.failed_transforms))

    def _before_pipeline_lsdr(self, args, kwargs):
        return len(self.warnings)

    def _after_pipeline_lsdr(self, args, kwargs, result, state):
        # the dimension-cap reduction announces itself only by its warning
        raised = [str(w.message) for w in self.warnings[state:]]
        self.count("pipeline.dimension_cap_paths", any("tessellation cap" in m for m in raised))
        self.count("pipeline.fallbacks", bool(result.degenerate_fallback))

    def _after_serialize_write_json(self, args, kwargs, result, state):
        # reports only: a command's manifest records a wall-clock duration
        path = str(args[0] if args else kwargs["path"])
        if not path.endswith(".manifest.json"):
            self.count("serialize.bytes_written", os.path.getsize(path))

    # -- reduction ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, list[float]]]:
        """Per job, per span name: [calls, self seconds, inclusive seconds].

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for (name, start, end, _, job), inner in zip(self.spans, child):
            entry = out[job][name]
            entry[0] += 1
            entry[1] += (end - start) - inner
            entry[2] += end - start
        return out


# Functions whose own time an optimisation named in the roadmap should move.
SELF_SECONDS = (
    "graph.graph_distances",
    "graph.prune_edges",
    "embedding.metric_mds",
    "embedding.stress",
    "embedding.nadaraya_embed",
    "embedding.fit_reconstruction",
    "embedding.fit_out_of_sample",
    "embedding.kernel_matrix",
    "numerics.pairwise_sq_dists",
    "geometry.delaunay_tessellation",
    "geometry.euclidean_mcst",
    "indices.knn_metrics",
    "indices.tractable_consistency_index",
    "indices.procrustes_fit",
    "indices.pca_reduce",
    "pipeline.lsdr",
    "pipeline.transform_bandwidth",
    "serialize.read_point_cloud",
    "serialize.write_json",
    "cli.main",
)
CALLS = ("embedding.metric_mds", "numerics.pairwise_sq_dists", "numerics.beta_quantile", "pipeline.lsdr")
INCLUSIVE = ("embedding.metric_mds", "pipeline.lsdr")
COUNTS = (
    "graph.geodesic_rows",
    "embedding.mds_iterations",
    "embedding.mds_unconverged",
    "geometry.simplices",
    "geometry.tess_edges",
    "skeleton.boundary_points",
    "skeleton.skeletal_points",
    "indices.transforms",
    "indices.transforms_failed",
    "pipeline.dimension_cap_paths",
    "pipeline.fallbacks",
    "serialize.bytes_written",
)


def layer_metrics(tracer: Tracer, jobs: list[str], setups: list[str]) -> dict[str, float]:
    """Per-layer figures, each the median over ``jobs`` of one job's total.

    ``<layer>.s`` is the summed self time of every span of the layer, so the
    layers partition the traced time; ``<layer>.<function>.s`` is one
    function's self time, ``.total_s`` its time including the spans below
    it, ``.calls`` its number of calls. Ratios are taken over the counts of
    all listed jobs. Datasets are generated during set-up, so that layer is
    reduced over ``setups`` instead.
    """
    totals, counts = tracer.totals(), tracer.counts

    def median(value, over=jobs):
        return statistics.median(value(j) for j in over)

    def layer_seconds(layer, job):
        return sum(v[1] for name, v in totals[job].items() if name.split(".")[0] == layer)

    def ratio(num, den):
        total = sum(counts[j].get(den, 0.0) for j in jobs)
        return sum(counts[j].get(num, 0.0) for j in jobs) / total if total else 0.0

    out = {f"{layer}.s": median(lambda j: layer_seconds(layer, j)) for layer in MODULES if layer != "datasets"}
    out["datasets.s"] = median(lambda j: layer_seconds("datasets", j), setups)
    for name in SELF_SECONDS:
        out[f"{name}.s"] = median(lambda j: totals[j][name][1])
    for name in INCLUSIVE:
        out[f"{name}.total_s"] = median(lambda j: totals[j][name][2])
    for name in CALLS:
        out[f"{name}.calls"] = median(lambda j: totals[j][name][0])
    for key in COUNTS:
        out[key] = median(lambda j: counts[j].get(key, 0.0))
    out["graph.geodesic_rows_used_ratio"] = ratio("graph.geodesic_rows_used", "graph.geodesic_rows")
    out["graph.edges_kept_ratio"] = ratio("graph.edges_kept", "graph.edges_tested")
    return out
