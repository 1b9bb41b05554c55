"""Delaunay tessellation and the Euclidean minimum-cost spanning tree.

These two structures are the raw ingredients of the manifold approximation
graph: the tessellation proposes locality edges, the spanning tree marks the
edges that must survive pruning to keep the graph connected.

Tessellation is delegated to Qhull (scipy.spatial.Delaunay) behind this
module's contract. Qhull always receives the cloud scaled by the power of two
that brings its largest coordinate into [0.5, 1): the scaling is exact, so
the tessellation is the cloud's own at any magnitude. Degenerate point sets
are handled in two tiers: a cloud whose affine rank is below the ambient
dimension has no meaningful full-dimensional tessellation and is rejected
with DegeneracyError, while cospherical/cocircular configurations and
repeated rows are resolved by a deterministic seeded jitter applied only
inside this routine (reported coordinates and edge lengths always come from
the unmodified input).
"""

import functools
import operator
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay as _QhullDelaunay
from scipy.spatial import QhullError

from .errors import DegeneracyError, ValidationError
from .numerics import _paired_sq_dists, as_matrix

__all__ = ["Tessellation", "SpanningTree", "delaunay_tessellation", "euclidean_mcst"]

DIMENSION_CAP = 6


@dataclass
class Tessellation:
    """Full-dimensional simplicial tessellation of a point cloud: one edge table.

    ``simplices`` is the (s, p+1) index array with ascending rows in
    lexicographic order; ``edges`` the (m, 2) pairs i < j of their edges in
    lexicographic order, ``lengths`` their (m,) Euclidean lengths measured
    on the original coordinates, and ``simplex_edges`` the (s, C(p+1, 2))
    rows of ``edges`` that hold each simplex's vertex pairs, in
    ``np.triu_indices`` order.
    """

    points: np.ndarray
    simplices: np.ndarray
    edges: np.ndarray
    lengths: np.ndarray
    simplex_edges: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass
class SpanningTree:
    """Spanning tree: (n-1, 2) pairs i < j in lexicographic order, and its length."""

    edges: np.ndarray
    total_length: float


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """The key ``i * n + j`` of each pair; lexicographic pairs have ascending keys."""
    return edges[:, 0] * n + edges[:, 1]


def vertex_stars(edges: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Each edge once per endpoint, grouped by vertex, edge ids ascending within one.

    Returns each incidence's position in ``edges.ravel()`` (edge id times two
    plus the endpoint), its vertex, and the (n,) star sizes.
    """
    ends = edges.ravel()
    position = np.argsort(ends, kind="stable")
    owner = ends[position]
    return position, owner, np.bincount(owner, minlength=n)


def _lexicographic(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def edge_lengths(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Euclidean length of each (i, j) row of ``edges``.

    The squares come from ``_paired_sq_dists``, so each length equals
    ``sqrt(pairwise_sq_dists(points))[i, j]`` bit for bit.
    """
    return np.sqrt(_paired_sq_dists(points[edges[:, 0]], points[edges[:, 1]]))


def singular_rank(s: np.ndarray) -> int:
    """Rank of a centered cloud from its descending singular values.

    A singular value counts when it exceeds 1e-12 times the largest one; a
    zero cloud has rank 0.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-12 * s[0]))


def _qhull_delaunay(pts: np.ndarray) -> _QhullDelaunay:
    """Qhull's Delaunay tessellation of ``pts``. A point Qhull leaves out of
    every simplex (it lists those in ``coplanar``; a repeated row is one) is
    a ``QhullError`` like Qhull's own failures."""
    tri = _QhullDelaunay(pts)
    if len(tri.coplanar):
        raise QhullError(f"{len(tri.coplanar)} point(s) lie in no simplex, such as repeated rows")
    return tri


def delaunay_tessellation(points, jitter_seed: int = 0) -> Tessellation:
    """Delaunay tessellation of ``points`` in 2 to ``DIMENSION_CAP`` dimensions.

    Qhull receives ``ldexp(points, -e)``, where ``2**e`` is the smallest
    power of two above the largest coordinate magnitude: an exact scaling
    that puts that magnitude in [0.5, 1), so any 2**k multiple of a cloud
    gets the same simplices, and neither huge nor tiny clouds leave the range
    Qhull handles. If Qhull fails on a degenerate configuration or leaves a
    point out of every simplex (a repeated row, for one), a seeded
    jitter of magnitude 1e-9 times the scaled bounding-box diagonal is added
    to the scaled coordinates and Qhull runs once more. The returned
    structure refers to the original coordinates only, so results are
    deterministic given the point order and the jitter seed.
    """
    pts = as_matrix(points, "points")
    n, p = pts.shape
    if p < 2:
        raise ValidationError(f"tessellation needs at least 2 dimensions, got p={p}")
    if p > DIMENSION_CAP:
        raise ValidationError(
            f"tessellation supports at most {DIMENSION_CAP} dimensions, got p={p}; "
            "pre-reduce the cloud first (see the pipeline module)"
        )
    if n < p + 1:
        raise ValidationError(f"need at least p+1={p + 1} points for a tessellation, got n={n}")
    if singular_rank(np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)) < p:
        raise DegeneracyError(
            "point cloud is rank deficient (lies in a lower-dimensional affine subspace); "
            "no full-dimensional tessellation exists"
        )

    qhull_pts = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
    try:
        tri = _qhull_delaunay(qhull_pts)
    except QhullError:
        bbox_diag = float(np.linalg.norm(qhull_pts.max(axis=0) - qhull_pts.min(axis=0)))
        rng = np.random.default_rng([int(jitter_seed) & 0xFFFFFFFF, zlib.crc32(b"tessellation-jitter")])
        jittered = qhull_pts + rng.uniform(-1.0, 1.0, size=pts.shape) * (1e-9 * bbox_diag)
        try:
            tri = _qhull_delaunay(jittered)
        except QhullError as exc:
            raise DegeneracyError(f"tessellation failed even after jitter: {exc}") from exc

    simplices = _lexicographic(np.sort(tri.simplices.astype(np.intp), axis=1))
    i, j = np.triu_indices(p + 1, 1)
    pair_keys = simplices[:, i] * n + simplices[:, j]
    keys, simplex_edges = np.unique(pair_keys, return_inverse=True)
    edges = np.column_stack(np.divmod(keys, n))
    return Tessellation(
        points=pts,
        simplices=simplices,
        edges=edges,
        lengths=edge_lengths(pts, edges),
        # numpy before 2.0 gives the inverse flat, numpy 2 in the keys' shape
        simplex_edges=simplex_edges.reshape(pair_keys.shape),
    )


def euclidean_mcst(points, candidate_edges) -> SpanningTree:
    """Kruskal's algorithm over ``candidate_edges`` with Euclidean weights.

    Ties in edge length are broken by lexicographic vertex index so the tree
    is reproducible. The candidate set must connect all points.

    The candidates are ranked once by (length, i, j) and the ranks 1..m go to
    ``scipy.sparse.csgraph.minimum_spanning_tree`` as weights. Distinct
    weights have exactly one minimum spanning tree, which is the tree
    Kruskal's loop builds in rank order; self-pairs and all but the lowest
    rank of a repeated pair are dropped first, as that loop would skip them.
    ``total_length`` is the tree's lengths summed one after another in rank
    order.
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    pairs = np.sort(np.asarray(candidate_edges, dtype=np.intp).reshape(-1, 2), axis=1)
    lengths = edge_lengths(pts, pairs)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], lengths))
    order = order[pairs[order, 0] != pairs[order, 1]]
    _, first = np.unique(edge_keys(pairs[order], n), return_index=True)
    order = order[np.sort(first)]
    ranks = np.arange(1.0, len(order) + 1.0)
    graph = csr_matrix((ranks, (pairs[order, 0], pairs[order, 1])), shape=(n, n))
    tree = order[np.sort(minimum_spanning_tree(graph).data).astype(np.intp) - 1]
    if len(tree) != n - 1:
        raise ValidationError("candidate edge set does not connect all points")
    total_length = functools.reduce(operator.add, lengths[tree].tolist(), 0.0)
    return SpanningTree(edges=_lexicographic(pairs[tree]), total_length=total_length)
