"""Boundary detection and skeletal point marking on the approximation graph.

A vertex is a boundary point when it touches an edge that belongs to at most
one surviving full-dimensional simplex. Skeletal points are the vertices
whose graph distance to the boundary is not exceeded among their k nearest
graph neighbours, i.e. the locally deepest points of the cloud.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DegeneracyWarning, ValidationError
from .graph import ManifoldGraph, dijkstra_truncated, multi_source_distances

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
    """Vertices incident to an edge lying in at most one surviving simplex."""
    if len(g.simplices) == 0:
        warnings.warn(
            "graph has no surviving simplices; every point is a boundary point",
            DegeneracyWarning,
            stacklevel=2,
        )
        return list(range(g.n))
    counts = np.bincount(g.simplex_edge_ids().ravel(), minlength=len(g.edges))
    return np.unique(g.edges[counts <= 1]).tolist()


def boundary_distances(g: ManifoldGraph, boundary) -> np.ndarray:
    """Graph distance from every vertex to its nearest boundary vertex."""
    members = sorted(int(b) for b in boundary)
    if not members:
        raise ValidationError("boundary set is empty")
    return multi_source_distances(g, members)


def graph_neighbours(g: ManifoldGraph, k: int) -> list[list[int]]:
    """The k nearest graph neighbours of each vertex (self excluded).

    Neighbourhoods come from truncated single-source runs, so ties in
    distance resolve by vertex index. Disconnected vertices cannot occur
    (spanning-tree edges guarantee connectivity), but a vertex can have fewer
    than k reachable peers only when k >= n.
    """
    if k < 1:
        raise ValidationError(f"neighbour count must be at least 1, got {k}")
    adj = g.adjacency()
    neighbours = []
    for v in range(g.n):
        settled = dijkstra_truncated(adj, v, k + 1)
        neighbours.append([u for _, u in settled if u != v][:k])
    return neighbours


def mark_skeleton(g: ManifoldGraph, d_b: np.ndarray, k: int) -> list[int]:
    """Vertices whose boundary distance is maximal within their k-neighbourhood.

    A vertex is skeletal when no one of its k nearest graph neighbours lies
    strictly deeper (farther from the boundary), with ties resolved inside a
    1e-12 tolerance; points deeper than all their neighbours are therefore
    always skeletal. Boundary points (depth zero) never qualify: the skeleton
    and the boundary are disjoint except in the degenerate all-boundary case,
    which the report-level fallback handles separately.
    """
    d_b = np.asarray(d_b, dtype=float)
    if d_b.shape != (g.n,):
        raise ValidationError(f"boundary distance array must have shape ({g.n},)")
    skeletal = []
    for v, nbrs in enumerate(graph_neighbours(g, k)):
        if d_b[v] <= 0.0:
            continue
        peak = max((d_b[u] for u in nbrs), default=d_b[v])
        if d_b[v] >= peak - SKELETAL_TIE_TOL:
            skeletal.append(v)
    return skeletal


def skeleton_report(g: ManifoldGraph, k: int) -> SkeletonReport:
    """Run boundary detection, boundary distances and skeletal marking.

    A graph in which every edge lies in two or more surviving simplices has
    no boundary point; that raises ``DegeneracyError``.
    """
    boundary = detect_boundary(g)
    if not boundary:
        raise DegeneracyError("no boundary point: every edge lies in two or more surviving simplices")
    d_b = boundary_distances(g, boundary)
    if len(boundary) == g.n:
        warnings.warn(
            "every point is on the boundary (noise-free manifold); "
            "marking all points skeletal",
            DegeneracyWarning,
            stacklevel=2,
        )
        skeletal = list(range(g.n))
    else:
        skeletal = mark_skeleton(g, d_b, k)
    return SkeletonReport(
        boundary_points=boundary,
        boundary_distance=d_b,
        skeletal_points=skeletal,
        k_neighbours=k,
    )
