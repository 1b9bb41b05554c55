"""Boundary detection and skeletal point marking on the approximation graph.

A vertex is a boundary point when it touches an edge that belongs to at most
one surviving full-dimensional simplex. Skeletal points are the vertices
whose graph distance to the boundary is not exceeded among their k nearest
graph neighbours, i.e. the locally deepest points of the cloud.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import DegeneracyError, ValidationError
from .graph import ManifoldGraph

__all__ = [
    "SkeletonReport",
    "detect_boundary",
    "boundary_distances",
    "mark_skeleton",
    "skeleton_report",
]

SKELETAL_TIE_TOL = 1e-12


@dataclass
class SkeletonReport:
    """Boundary set, per-point boundary distances and skeletal set."""

    boundary_points: list[int]
    boundary_distance: np.ndarray
    skeletal_points: list[int]
    k_neighbours: int

    def to_dict(self) -> dict:
        return {
            "boundary_points": [int(i) for i in self.boundary_points],
            "boundary_distance": [float(v) for v in self.boundary_distance],
            "skeletal_points": [int(i) for i in self.skeletal_points],
            "k_neighbours": int(self.k_neighbours),
        }


def detect_boundary(g: ManifoldGraph) -> list[int]:
    """Vertices incident to an edge lying in at most one surviving simplex.

    A graph with no surviving simplex has every edge in none, so every vertex
    of a connected graph is a boundary point.
    """
    counts = np.bincount(g.simplex_edges.ravel(), minlength=len(g.edges))
    return np.unique(g.edges[counts <= 1]).tolist()


def boundary_distances(g: ManifoldGraph, boundary) -> np.ndarray:
    """Graph distance from every vertex to its nearest boundary vertex."""
    members = sorted(int(b) for b in boundary)
    if not members:
        raise ValidationError("boundary set is empty")
    return dijkstra(g.adjacency, directed=True, indices=members, min_only=True)


def _neighbour_table(g: ManifoldGraph, k: int) -> np.ndarray:
    """Row v: the k nearest graph neighbours of v in settling order, padded with n.

    One truncated Dijkstra from all n sources at once. Each step settles,
    for every source, its lexicographically smallest (distance, vertex)
    candidate that is not settled yet, then appends fl(d + w) for each
    neighbour of the vertex it settled. That is the pop order of a heap of
    (distance, vertex) pairs exactly, zero-length edges and sums that w
    does not change included: an unsettled vertex's smallest candidate is
    the distance a heap run would hold for it. Settled and padding entries
    stay in the table as (inf, n), so each step widens every row by the
    largest star and scans all of it; the pipeline's default k is 3.
    """
    if k < 1:
        raise ValidationError(f"neighbour count must be at least 1, got {k}")
    n, adj = g.n, g.adjacency
    # the rows of g.adjacency as neighbour and edge-length tables, padded
    # with n and inf; row n is "no vertex"
    counts = np.append(np.diff(adj.indptr), 0)
    nbr = np.full((n + 1, counts.max()), n)
    weight = np.full(nbr.shape, np.inf)
    # a boolean mask takes its entries row by row, the order of adj's entries
    filled = np.arange(nbr.shape[1]) < counts[:, None]
    nbr[filled] = adj.indices
    weight[filled] = adj.data
    settled = np.arange(n)[:, None]
    dist = np.zeros(n)
    cand_v = np.empty((n, 0), dtype=nbr.dtype)
    cand_d = np.empty((n, 0))
    for _ in range(min(k, n - 1)):
        new_v = nbr[settled[:, -1]]
        new_d = dist[:, None] + weight[settled[:, -1]]
        done = (new_v[:, :, None] == settled[:, None, :]).any(axis=2)
        new_v[done] = n
        new_d[done] = np.inf
        cand_v = np.hstack([cand_v, new_v])
        cand_d = np.hstack([cand_d, new_d])
        dist = cand_d.min(axis=1, initial=np.inf)
        vertex = np.where(cand_d == dist[:, None], cand_v, n).min(axis=1, initial=n)
        gone = cand_v == vertex[:, None]
        cand_v[gone] = n
        cand_d[gone] = np.inf
        settled = np.column_stack([settled, vertex])
    return settled[:, 1:]


def mark_skeleton(g: ManifoldGraph, d_b: np.ndarray, k: int) -> list[int]:
    """Vertices whose boundary distance is maximal within their k-neighbourhood.

    A vertex is skeletal when no one of its k nearest graph neighbours lies
    strictly deeper (farther from the boundary), with ties resolved inside
    ``SKELETAL_TIE_TOL`` times the largest finite depth, so that any 2**e
    multiple of a cloud marks the same points; points deeper than all their
    neighbours are therefore always skeletal. Boundary points (depth zero)
    never qualify: the skeleton and the boundary are disjoint except in the
    degenerate all-boundary case, where ``skeleton_report`` marks every
    point skeletal instead.
    """
    d_b = np.asarray(d_b, dtype=float)
    if d_b.shape != (g.n,):
        raise ValidationError(f"boundary distance array must have shape ({g.n},)")
    peak = np.append(d_b, -np.inf)[_neighbour_table(g, k)].max(axis=1, initial=-np.inf)
    tol = SKELETAL_TIE_TOL * d_b.max(where=np.isfinite(d_b), initial=0.0)
    return np.flatnonzero((d_b > 0.0) & (d_b >= peak - tol)).tolist()


def skeleton_report(g: ManifoldGraph, k: int) -> SkeletonReport:
    """Run boundary detection, boundary distances and skeletal marking.

    A graph in which every edge lies in two or more surviving simplices has
    no boundary point; that raises ``DegeneracyError``. When every point is
    on the boundary, every point is skeletal; the pipeline decides the rest.
    """
    boundary = detect_boundary(g)
    if not boundary:
        raise DegeneracyError("no boundary point: every edge lies in two or more surviving simplices")
    d_b = boundary_distances(g, boundary)
    if len(boundary) == g.n:
        skeletal = list(range(g.n))
    else:
        skeletal = mark_skeleton(g, d_b, k)
    return SkeletonReport(
        boundary_points=boundary,
        boundary_distance=d_b,
        skeletal_points=skeletal,
        k_neighbours=k,
    )
