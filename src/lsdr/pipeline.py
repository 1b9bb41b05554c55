"""End-to-end localized skeletonization and dimensionality reduction.

Stage 1 tessellates the cloud, protects the minimum spanning tree, prunes
implausible edges and computes graph geodesics. Stage 2 finds the boundary
and the skeletal points. Stage 3 embeds the skeletal points by metric MDS on
their geodesic distances and carries every other point along by a kernel
weighted average of the skeletal embeddings.

Rank-deficient (noise-free) clouds are first trimmed to their affine rank by
an exact distance-preserving reduction and processed there; clouds wider
than the tessellation's dimension cap get an approximate metric MDS step
down to the cap. Only rank-one clouds, where no tessellation exists, degrade
to plain metric MDS on all points, as do clouds whose every point lands on
the boundary.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetSpec, generate  # noqa: F401  (re-exported pipeline surface)
from .embedding import (
    Embedding,
    KernelSpec,
    metric_mds,
    nadaraya_embed,
    recommended_bandwidth,
)
from .errors import DegeneracyError, DegeneracyWarning, ValidationError
from .geometry import DIMENSION_CAP, affine_rank, delaunay_tessellation, euclidean_mcst
from .graph import GeodesicDistances, ManifoldGraph, graph_distances, prune_edges
from .indices import AlgorithmAdapter
from .numerics import as_matrix, pairwise_sq_dists
from .skeleton import SkeletonReport, skeleton_report

__all__ = [
    "LsdrConfig",
    "LsdrResult",
    "lsdr",
    "pre_reduce",
    "transform_bandwidth",
    "LsdrAdapter",
    "DatasetSpec",
    "generate",
]


@dataclass(frozen=True)
class LsdrConfig:
    """Pruning level, neighbour count, target dimension and kernel choice.

    ``bandwidth`` of the kernel may stay None to use the recommended rule
    computed from the skeleton. ``seed`` feeds the tessellation jitter.
    """

    d: int
    alpha: float = 0.95
    k: int = 3
    kernel: KernelSpec = KernelSpec("gaussian", None)
    seed: int = 0
    dim_cap: int = DIMENSION_CAP

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.k < 1:
            raise ValidationError(f"neighbour count must be at least 1, got {self.k}")
        if self.d < 1:
            raise ValidationError(f"target dimension must be at least 1, got {self.d}")


@dataclass
class LsdrResult:
    """Embedding plus every intermediate artifact for inspection.

    ``geodesics`` holds the rows of the skeletal points only, the rows stage
    3 reads; on the all-boundary fallback it holds every row.
    """

    embedding: Embedding
    skeleton: SkeletonReport | None
    graph: ManifoldGraph | None
    geodesics: GeodesicDistances | None = None
    mds_coords: np.ndarray | None = None
    bandwidth: float | None = None
    degenerate_fallback: bool = False
    pre_reduced: bool = False
    working_points: np.ndarray | None = None


def pre_reduce(x) -> np.ndarray:
    """Distance-preserving reduction to the cloud's affine rank.

    Classical scaling of the exact Euclidean distances reproduces the cloud
    in as many dimensions as its centered rank, so all pairwise distances
    survive; useful when n < p or when a caller wants the minimal exact
    coordinates.
    """
    x = as_matrix(x, "data")
    centered = x - x.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((x.shape[0], 1))
    rank = max(1, int(np.count_nonzero(s > 1e-12 * s[0])))
    return u[:, :rank] * s[:rank]


def _mds_fallback(x: np.ndarray, cfg: LsdrConfig, reason: str) -> LsdrResult:
    warnings.warn(
        f"{reason}; falling back to plain metric MDS on all points",
        DegeneracyWarning,
        stacklevel=3,
    )
    q = np.sqrt(pairwise_sq_dists(x))
    coords = metric_mds(q, cfg.d)
    emb = Embedding(
        coords=coords,
        algorithm="lsdr",
        params={"alpha": cfg.alpha, "k": cfg.k, "d": cfg.d, "fallback": reason},
    )
    return LsdrResult(
        embedding=emb,
        skeleton=None,
        graph=None,
        degenerate_fallback=True,
        working_points=x,
    )


def _build_graph(x: np.ndarray, cfg: LsdrConfig) -> ManifoldGraph:
    tess = delaunay_tessellation(x, jitter_seed=cfg.seed, dim_cap=cfg.dim_cap)
    mcst = euclidean_mcst(x, tess.edges)
    return prune_edges(tess, mcst, cfg.alpha)


def lsdr(x, cfg: LsdrConfig) -> LsdrResult:
    """Run the full pipeline on a point cloud."""
    x = as_matrix(x, "data")
    n, p = x.shape
    if cfg.d >= p:
        raise ValidationError(f"target dimension must satisfy d < p, got d={cfg.d}, p={p}")
    if cfg.d >= n:
        raise ValidationError(f"target dimension must satisfy d < n, got d={cfg.d}, n={n}")
    work = x
    pre_reduced = False
    if n <= p or affine_rank(work) < p:
        # exact distance-preserving reduction to the affine rank; a noise-free
        # manifold of rank >= 2 then fills its own ambient space and the
        # pipeline proceeds there
        work = pre_reduce(work)
        pre_reduced = True
    if work.shape[1] > cfg.dim_cap:
        warnings.warn(
            f"cloud dimension {work.shape[1]} exceeds the tessellation cap {cfg.dim_cap}; "
            "applying an approximate distance-preserving reduction first",
            DegeneracyWarning,
            stacklevel=2,
        )
        q = np.sqrt(pairwise_sq_dists(work))
        work = pre_reduce(metric_mds(q, cfg.dim_cap))
        pre_reduced = True

    if work.shape[1] < 2:
        result = _mds_fallback(
            work, cfg, "cloud lies on an exact one-dimensional manifold (no tessellation)"
        )
        result.pre_reduced = pre_reduced
        return result

    try:
        graph = _build_graph(work, cfg)
    except DegeneracyError as exc:
        result = _mds_fallback(work, cfg, f"tessellation degenerate ({exc})")
        result.pre_reduced = pre_reduced
        return result

    skeleton = skeleton_report(graph, cfg.k)
    if len(skeleton.boundary_points) == graph.n:
        geodesics = graph_distances(graph, range(graph.n))
        coords = metric_mds_on_geodesics(geodesics, cfg.d)
        emb = Embedding(
            coords=coords,
            algorithm="lsdr",
            params={
                "alpha": cfg.alpha,
                "k": cfg.k,
                "d": cfg.d,
                "fallback": "all points on the boundary",
            },
        )
        warnings.warn(
            "every point is a boundary point; degrading to metric MDS on all points",
            DegeneracyWarning,
            stacklevel=2,
        )
        return LsdrResult(
            embedding=emb,
            skeleton=skeleton,
            graph=graph,
            geodesics=geodesics,
            mds_coords=coords,
            degenerate_fallback=True,
            pre_reduced=pre_reduced,
            working_points=work,
        )

    skeletal = skeleton.skeletal_points
    geodesics = graph_distances(graph, skeletal)
    q = geodesics.block(skeletal)
    q = 0.5 * (q + q.T)
    np.fill_diagonal(q, 0.0)
    d_eff = min(cfg.d, max(1, len(skeletal) - 1))
    if d_eff < cfg.d:
        warnings.warn(
            f"only {len(skeletal)} skeletal points; reducing target dimension to {d_eff}",
            DegeneracyWarning,
            stacklevel=2,
        )
    mds_coords = metric_mds(q, d_eff)

    kernel = cfg.kernel
    sigma = kernel.bandwidth
    if kernel.family == "gaussian" and sigma is None:
        sigma = recommended_bandwidth(skeleton, geodesics)
        if sigma <= 0.0:
            sigma = float(np.sqrt(pairwise_sq_dists(work)).mean())
        kernel = kernel.with_bandwidth(sigma)
    coords = nadaraya_embed(mds_coords, work[skeletal], work, kernel)

    emb = Embedding(
        coords=coords,
        algorithm="lsdr",
        params={
            "alpha": cfg.alpha,
            "k": cfg.k,
            "d": cfg.d,
            "bandwidth": sigma,
            "kernel": kernel.family,
            "seed": cfg.seed,
        },
    )
    return LsdrResult(
        embedding=emb,
        skeleton=skeleton,
        graph=graph,
        geodesics=geodesics,
        mds_coords=mds_coords,
        bandwidth=sigma,
        degenerate_fallback=False,
        pre_reduced=pre_reduced,
        working_points=work,
    )


def metric_mds_on_geodesics(geodesics: GeodesicDistances, d: int) -> np.ndarray:
    """Metric MDS over the full geodesic distance matrix."""
    q = geodesics.dists
    if q.shape[0] != q.shape[1]:
        raise ValidationError("full geodesic matrix required for the all-points fallback")
    q = 0.5 * (q + q.T)
    np.fill_diagonal(q, 0.0)
    return metric_mds(q, d)


def transform_bandwidth(x, alpha: float = 0.95, k: int = 3, seed: int = 0) -> float:
    """Dataset-level bandwidth via the skeleton rule (for the consistency index).

    Runs the graph and skeleton stages at the given parameters and applies
    the recommended-bandwidth formula. Degenerate clouds fall back to the
    mean pairwise distance.
    """
    x = as_matrix(x, "data")
    cfg = LsdrConfig(d=1, alpha=alpha, k=k, seed=seed)
    work = x
    if work.shape[0] <= work.shape[1]:
        work = pre_reduce(work)
    if work.shape[1] > cfg.dim_cap:
        q = np.sqrt(pairwise_sq_dists(work))
        work = metric_mds(q, cfg.dim_cap)
    try:
        graph = _build_graph(work, cfg)
        skeleton = skeleton_report(graph, k)
        if 1 < len(skeleton.skeletal_points):
            geodesics = graph_distances(graph, skeleton.skeletal_points)
            sigma = recommended_bandwidth(skeleton, geodesics)
            if sigma > 0.0:
                return sigma
    except DegeneracyError:
        pass
    return float(np.sqrt(pairwise_sq_dists(work)).mean())


class LsdrAdapter(AlgorithmAdapter):
    """Adapter exposing the pipeline under the common reduce interface."""

    name = "lsdr"

    def __init__(self, alpha: float = 0.95, k: int = 3, kernel: KernelSpec | None = None, seed: int = 0):
        self.alpha = alpha
        self.k = k
        self.kernel = kernel or KernelSpec("gaussian", None)
        self.seed = seed

    def reduce(self, d: int, x: np.ndarray) -> Embedding:
        cfg = LsdrConfig(d=d, alpha=self.alpha, k=self.k, kernel=self.kernel, seed=self.seed)
        return lsdr(x, cfg).embedding
