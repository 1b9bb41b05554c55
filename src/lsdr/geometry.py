"""Delaunay tessellation and the Euclidean minimum-cost spanning tree.

These two structures are the raw ingredients of the manifold approximation
graph: the tessellation proposes locality edges, the spanning tree marks the
edges that must survive pruning to keep the graph connected.

Tessellation is delegated to Qhull (scipy.spatial.Delaunay) behind this
module's contract. Degenerate point sets are handled in two tiers: a cloud
whose affine rank is below the ambient dimension has no meaningful
full-dimensional tessellation and is rejected with DegeneracyError, while
merely cospherical/cocircular configurations are resolved by a deterministic
seeded jitter applied only inside this routine (reported coordinates and edge
lengths always come from the unmodified input).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay as _QhullDelaunay
from scipy.spatial import QhullError

from .errors import DegeneracyError, ValidationError
from .numerics import as_matrix
from .rng import substream

__all__ = ["Tessellation", "SpanningTree", "delaunay_tessellation", "euclidean_mcst"]

DIMENSION_CAP = 6

Edge = tuple[int, int]


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass
class Tessellation:
    """Full-dimensional simplicial tessellation of a point cloud.

    ``simplices`` holds (p+1)-vertex index tuples, ``edges`` maps unordered
    index pairs to Euclidean lengths measured on the original coordinates.
    """

    points: np.ndarray
    simplices: list[tuple[int, ...]]
    edges: dict[Edge, float]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass
class SpanningTree:
    """Spanning tree as a set of unordered index pairs plus its total length."""

    edges: set[Edge] = field(default_factory=set)
    total_length: float = 0.0


def singular_rank(s: np.ndarray) -> int:
    """Rank of a centered cloud from its descending singular values.

    A singular value counts when it exceeds 1e-12 times the largest one; a
    zero cloud has rank 0.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-12 * s[0]))


def affine_rank(points: np.ndarray) -> int:
    """Rank of the centered cloud: the dimension of the affine hull."""
    centered = points - points.mean(axis=0)
    return singular_rank(np.linalg.svd(centered, compute_uv=False))


def delaunay_tessellation(points, jitter_seed: int = 0) -> Tessellation:
    """Delaunay tessellation of ``points`` in up to ``DIMENSION_CAP`` dimensions.

    The exact coordinates go to Qhull first; if that fails on a degenerate
    configuration, a seeded jitter of magnitude 1e-9 times the bounding-box
    diagonal is applied to the coordinates handed to Qhull. The returned
    structure refers to the original coordinates only, so results are
    deterministic given the point order and the jitter seed.
    """
    pts = as_matrix(points, "points")
    n, p = pts.shape
    if p > DIMENSION_CAP:
        raise ValidationError(
            f"tessellation supports at most {DIMENSION_CAP} dimensions, got p={p}; "
            "pre-reduce the cloud first (see the pipeline module)"
        )
    if n < p + 1:
        raise ValidationError(f"need at least p+1={p + 1} points for a tessellation, got n={n}")
    if affine_rank(pts) < p:
        raise DegeneracyError(
            "point cloud is rank deficient (lies in a lower-dimensional affine subspace); "
            "no full-dimensional tessellation exists"
        )

    try:
        tri = _QhullDelaunay(pts)
    except QhullError:
        bbox_diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        rng = substream(jitter_seed, "tessellation-jitter")
        jittered = pts + rng.uniform(-1.0, 1.0, size=pts.shape) * (1e-9 * bbox_diag)
        try:
            tri = _QhullDelaunay(jittered)
        except QhullError as exc:
            raise DegeneracyError(f"tessellation failed even after jitter: {exc}") from exc

    simplices = sorted(tuple(sorted(int(v) for v in s)) for s in tri.simplices)
    edges: dict[Edge, float] = {}
    for simplex in simplices:
        for i, j in itertools.combinations(simplex, 2):
            key = _edge(i, j)
            if key not in edges:
                edges[key] = float(np.linalg.norm(pts[i] - pts[j]))
    return Tessellation(points=pts, simplices=simplices, edges=edges)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def euclidean_mcst(points, candidate_edges) -> SpanningTree:
    """Kruskal's algorithm over ``candidate_edges`` with Euclidean weights.

    Ties in edge length are broken by lexicographic vertex index so the tree
    is reproducible. The candidate set must connect all points.
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    ranked = sorted(
        (float(np.linalg.norm(pts[i] - pts[j])), i, j)
        for i, j in (_edge(a, b) for a, b in candidate_edges)
    )
    uf = _UnionFind(n)
    tree = SpanningTree()
    for length, i, j in ranked:
        if uf.union(i, j):
            tree.edges.add((i, j))
            tree.total_length += length
            if len(tree.edges) == n - 1:
                break
    if len(tree.edges) != n - 1:
        raise ValidationError("candidate edge set does not connect all points")
    return tree
