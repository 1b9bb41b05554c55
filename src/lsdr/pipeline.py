"""End-to-end localized skeletonization and dimensionality reduction.

Stage 1 tessellates the cloud, protects the minimum spanning tree, prunes
implausible edges and computes graph geodesics. Stage 2 finds the boundary
and the skeletal points. Stage 3 embeds the skeletal points by metric MDS on
their geodesic distances and carries every other point along by a kernel
weighted average of the skeletal embeddings. It holds the s x s geodesic
block among the s skeletal points, never an n-wide row, and forms the n x s
kernel weights a row block at a time.

Rank-deficient (noise-free) clouds are first trimmed to their affine rank by
an exact distance-preserving reduction and processed there; clouds wider
than the tessellation's dimension cap keep their first ``DIMENSION_CAP``
principal components. Only rank-one clouds, where no tessellation exists,
degrade to metric MDS on all points, in closed form: their working cloud's
one principal-component column (Gower 1966), signed like ``sym_eigen``'s
vectors, and d - 1 zero columns, with no n x n matrix. Clouds with no
boundary point and clouds with fewer than d + 1 skeletal points, too few
for metric MDS to place d dimensions, fall back to metric MDS of their
distances; an all-boundary cloud is embedded by metric MDS of its full
geodesic matrix. Every embedding has exactly d columns.
``_stages`` decides every fallback, and ``lsdr`` warns once for it. The
kernel is always the Gaussian; only its bandwidth is a choice.
``transform_bandwidth`` takes the same working cloud, stages and fallbacks
at d = 1, so its bandwidth is the one ``lsdr`` would use.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import Embedding, KernelSpec, metric_mds, nadaraya_embed
from .errors import DegeneracyError, DegeneracyWarning, ValidationError
from .geometry import (
    DIMENSION_CAP,
    delaunay_tessellation,
    euclidean_mcst,
    singular_rank,
)
from .graph import (
    GeodesicDistances,
    ManifoldGraph,
    graph_distances,
    nearest_source_distances,
    prune_edges,
)
from .indices import AlgorithmAdapter
from .numerics import _row_blocks, _sign_columns, _symmetrize, as_matrix, pairwise_sq_dists
from .skeleton import SkeletonReport, skeleton_report

__all__ = [
    "LsdrConfig",
    "LsdrResult",
    "lsdr",
    "transform_bandwidth",
    "LsdrAdapter",
]


@dataclass(frozen=True)
class LsdrConfig:
    """Target dimension, pruning level, neighbour count and kernel bandwidth.

    ``bandwidth`` of the Gaussian kernel may stay None to use the skeleton's
    bandwidth rule. ``seed`` feeds the tessellation jitter.
    """

    d: int
    alpha: float = 0.95
    k: int = 3
    bandwidth: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.k < 1:
            raise ValidationError(f"neighbour count must be at least 1, got {self.k}")
        if self.d < 1:
            raise ValidationError(f"target dimension must be at least 1, got {self.d}")
        if self.bandwidth is not None:
            KernelSpec("gaussian", self.bandwidth)  # the kernel owns the bandwidth rule


@dataclass
class LsdrResult:
    """Embedding plus every intermediate artifact for inspection.

    ``geodesics`` holds the s x s geodesic block among the skeletal points,
    the matrix metric MDS reads: symmetrized as 0.5 * (q + q.T), with a zero
    diagonal. No n-wide row is kept or formed. On the all-boundary fallback
    every point is skeletal, so it is the full n x n matrix.
    """

    embedding: Embedding
    skeleton: SkeletonReport | None
    graph: ManifoldGraph | None
    geodesics: GeodesicDistances | None = None
    degenerate_fallback: bool = False
    pre_reduced: bool = False
    working_points: np.ndarray | None = None


def _principal_scores(x: np.ndarray) -> tuple[np.ndarray, int]:
    """As many principal-component scores of the centered cloud as its affine
    rank, and that rank; a zero cloud has rank 0 and one zero column."""
    u, s, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    rank = singular_rank(s)
    if rank == 0:
        return np.zeros((x.shape[0], 1)), 0
    return u[:, :rank] * s[:rank], rank


def _working_cloud(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """The cloud the stages run on, and whether it differs from ``x``.

    Any cloud but a full-rank one within the cap becomes its principal
    components: all of them (exact), or the first ``DIMENSION_CAP``.
    """
    work, rank = _principal_scores(x)
    if rank == x.shape[1] <= DIMENSION_CAP:
        return x, False
    if rank > DIMENSION_CAP:
        warnings.warn(
            f"cloud dimension {rank} exceeds the tessellation cap {DIMENSION_CAP}; "
            f"keeping its first {DIMENSION_CAP} principal components",
            DegeneracyWarning,
            stacklevel=3,
        )
        work = work[:, :DIMENSION_CAP]
    return work, True


_ALL_BOUNDARY = "all points on the boundary"
_RANK_ONE = "cloud lies on an exact one-dimensional manifold (no tessellation)"


@dataclass
class _Stages:
    """Graph and skeleton, and the reason for a fallback if the pipeline
    takes one; ``_stages`` is the only code that gives a reason."""

    reason: str | None = None
    graph: ManifoldGraph | None = None
    skeleton: SkeletonReport | None = None


def _stages(work: np.ndarray, cfg: LsdrConfig) -> _Stages:
    if work.shape[1] < 2:
        return _Stages(_RANK_ONE)
    try:
        tess = delaunay_tessellation(work, jitter_seed=cfg.seed)
    except DegeneracyError as exc:
        return _Stages(f"tessellation degenerate ({exc})")
    graph = prune_edges(tess, euclidean_mcst(work, tess.edges), cfg.alpha)
    try:
        skeleton = skeleton_report(graph, cfg.k)
    except DegeneracyError as exc:
        return _Stages(str(exc), graph)
    if len(skeleton.boundary_points) == len(work):
        return _Stages(_ALL_BOUNDARY, graph, skeleton)
    skeletal = skeleton.skeletal_points
    if len(skeletal) <= cfg.d:
        # metric MDS places d dimensions only from at least d + 1 points
        return _Stages(f"only {len(skeletal)} skeletal point(s)", graph, skeleton)
    return _Stages(None, graph, skeleton)


def _mean_distance(work: np.ndarray) -> float:
    """Mean of the n x n distance matrix of ``work``, summed in row blocks:
    within n * eps relative of the full matrix's mean."""
    n = len(work)
    total = 0.0
    for rows in _row_blocks(n, n):
        total += np.sqrt(pairwise_sq_dists(work[rows], work)).sum()
    return float(total / n**2)


def _bandwidth(stages: _Stages, work: np.ndarray) -> float:
    """The skeleton's bandwidth rule, the largest skeletal ball that reaches
    past the boundary: the maximum over the skeletal points of
    sqrt(depth^2 + nearest^2), a point's boundary distance and its graph
    distance to its nearest other skeletal point. The mean pairwise distance
    on every fallback (the all-boundary one too) or when the rule gives 0."""
    if stages.reason is None:
        skeletal = stages.skeleton.skeletal_points
        nearest = nearest_source_distances(stages.graph, skeletal)
        depth = stages.skeleton.boundary_distance[skeletal]
        sigma = float(np.sqrt(np.square(depth) + np.square(nearest)).max())
        if sigma > 0.0:
            return sigma
    return _mean_distance(work)


def lsdr(x, cfg: LsdrConfig) -> LsdrResult:
    """Run the full pipeline on a point cloud."""
    x = as_matrix(x, "data")
    n, p = x.shape
    if cfg.d >= p:
        raise ValidationError(f"target dimension must satisfy d < p, got d={cfg.d}, p={p}")
    if cfg.d >= n:
        raise ValidationError(f"target dimension must satisfy d < n, got d={cfg.d}, n={n}")
    work, pre_reduced = _working_cloud(x)
    stages = _stages(work, cfg)
    reason = stages.reason
    geodesics = None
    if reason in (None, _ALL_BOUNDARY):
        # on the all-boundary fallback every point is skeletal, so q is the
        # full geodesic matrix
        skeletal = stages.skeleton.skeletal_points
        geodesics = graph_distances(stages.graph, skeletal)
        # the block MDS reads, symmetrized in place: a path summed in the
        # two directions can differ in its last bit
        q = _symmetrize(geodesics.dists)
        np.fill_diagonal(q, 0.0)
        mds_coords = metric_mds(q, cfg.d)
    elif reason == _RANK_ONE:
        # metric MDS's exact answer: the one principal component, signed
        # like sym_eigen's vectors, then zero columns
        mds_coords = np.zeros((n, cfg.d))
        mds_coords[:, 0] = work[:, 0]
        _sign_columns(mds_coords)
    else:
        mds_coords = metric_mds(np.sqrt(pairwise_sq_dists(work)), cfg.d)

    params = {"alpha": cfg.alpha, "k": cfg.k, "d": cfg.d}
    if reason is not None:
        of = " of the geodesic distances" if reason == _ALL_BOUNDARY else ""
        warnings.warn(
            f"{reason}; falling back to metric MDS{of} on all points",
            DegeneracyWarning,
            stacklevel=2,
        )
        coords = mds_coords
        params["fallback"] = reason
    else:
        sigma = _bandwidth(stages, work) if cfg.bandwidth is None else cfg.bandwidth
        coords = nadaraya_embed(mds_coords, work[skeletal], work, KernelSpec("gaussian", sigma))
        params.update(bandwidth=sigma, kernel="gaussian", seed=cfg.seed)

    return LsdrResult(
        embedding=Embedding(coords=coords, algorithm="lsdr", params=params),
        skeleton=stages.skeleton,
        graph=stages.graph,
        geodesics=geodesics,
        degenerate_fallback=reason is not None,
        pre_reduced=pre_reduced,
        working_points=work,
    )


def transform_bandwidth(x, alpha: float = LsdrConfig.alpha, k: int = LsdrConfig.k, seed: int = 0) -> float:
    """Dataset-level bandwidth via the skeleton rule (for the consistency index).

    The bandwidth ``lsdr`` picks at these parameters, by construction: the
    same working cloud, stages and ``_bandwidth``, which reads each skeletal
    point's nearest other one from ``nearest_source_distances`` and needs no
    geodesic rows. Every fallback ``lsdr`` takes at d = 1 (no tessellation,
    no boundary point, too few skeletal points, every point on the boundary)
    gives the mean pairwise distance of the working cloud.
    """
    cfg = LsdrConfig(d=1, alpha=alpha, k=k, seed=seed)
    work, _ = _working_cloud(as_matrix(x, "data"))
    return _bandwidth(_stages(work, cfg), work)


class LsdrAdapter(AlgorithmAdapter):
    """Adapter exposing the pipeline under the common reduce interface."""

    name = "lsdr"

    def __init__(self, alpha: float = LsdrConfig.alpha, k: int = LsdrConfig.k, seed: int = 0):
        self.alpha = alpha
        self.k = k
        self.seed = seed

    def reduce(self, d: int, x: np.ndarray) -> Embedding:
        cfg = LsdrConfig(d=d, alpha=self.alpha, k=self.k, seed=self.seed)
        return lsdr(x, cfg).embedding
