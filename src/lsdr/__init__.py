"""Localized skeletonization dimensionality reduction toolkit.

Builds a pruned Delaunay graph that approximates the data manifold, extracts
its boundary and skeleton, embeds the skeleton by metric MDS on graph
geodesics and carries the remaining points along with a kernel average. Also
provides trustability and consistency indices for judging any reduction
algorithm, plus classical neighbourhood-preservation metrics.
"""

__version__ = "0.1.0"

from .datasets import DatasetSpec, generate
from .embedding import (
    Embedding,
    KernelSpec,
    embed_out_of_sample,
    fit_out_of_sample,
    fit_reconstruction,
    metric_mds,
    nadaraya_embed,
    reconstruct,
)
from .errors import (
    DegeneracyError,
    DegeneracyWarning,
    InputParseError,
    LsdrError,
    NumericalError,
    ValidationError,
)
from .geometry import SpanningTree, Tessellation, delaunay_tessellation, euclidean_mcst
from .graph import GeodesicDistances, ManifoldGraph, graph_distances, prune_edges
from .indices import (
    AlgorithmAdapter,
    IdentityAdapter,
    IndexReport,
    PcaAdapter,
    ProcrustesFit,
    knn_metrics,
    pca_reduce,
    procrustes_fit,
    tractable_consistency_index,
    trustability_index,
)
from .numerics import beta_quantile, pairwise_sq_dists, sym_eigen
from .pipeline import LsdrAdapter, LsdrConfig, LsdrResult, lsdr
from .skeleton import SkeletonReport, boundary_distances, detect_boundary, mark_skeleton

__all__ = [
    "__version__",
    "DatasetSpec",
    "generate",
    "Embedding",
    "KernelSpec",
    "embed_out_of_sample",
    "fit_out_of_sample",
    "fit_reconstruction",
    "metric_mds",
    "nadaraya_embed",
    "reconstruct",
    "DegeneracyError",
    "DegeneracyWarning",
    "InputParseError",
    "LsdrError",
    "NumericalError",
    "ValidationError",
    "SpanningTree",
    "Tessellation",
    "delaunay_tessellation",
    "euclidean_mcst",
    "GeodesicDistances",
    "ManifoldGraph",
    "graph_distances",
    "prune_edges",
    "AlgorithmAdapter",
    "IdentityAdapter",
    "IndexReport",
    "PcaAdapter",
    "ProcrustesFit",
    "knn_metrics",
    "pca_reduce",
    "procrustes_fit",
    "tractable_consistency_index",
    "trustability_index",
    "beta_quantile",
    "pairwise_sq_dists",
    "sym_eigen",
    "LsdrAdapter",
    "LsdrConfig",
    "LsdrResult",
    "lsdr",
    "SkeletonReport",
    "boundary_distances",
    "detect_boundary",
    "mark_skeleton",
]
