"""Manifold approximation graph: quantile-tested edge pruning and geodesics.

Pruning removes, at significance level alpha, the Delaunay edges whose share
of their vertex star's squared length is implausibly large under a local
Gaussian model; spanning-tree edges are exempt so the graph stays connected.
It runs in simultaneous sweeps that test every star at once, so no sweep
depends on the order of the vertices. Shortest paths over the surviving
weighted edges approximate geodesic distances on the underlying manifold.
"""

from dataclasses import dataclass
from io import StringIO

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import ValidationError
from .geometry import SpanningTree, Tessellation, edge_keys, vertex_stars
from .numerics import _row_blocks, beta_quantile

__all__ = [
    "ManifoldGraph",
    "GeodesicDistances",
    "prune_edges",
    "graph_distances",
    "nearest_source_distances",
    "dump_edge_list",
]


@dataclass
class ManifoldGraph(Tessellation):
    """Pruned tessellation: the surviving rows of its edge table and simplices.

    The layout is the tessellation's: ``edges`` holds (m, 2) pairs i < j in
    lexicographic order with their (m,) ``lengths`` and ``simplices`` the
    surviving (s, p+1) ascending rows in lexicographic order, with their
    ``simplex_edges`` in this graph's edge table. ``mcst_edges`` are the
    protected spanning-tree pairs, also in lexicographic order.
    """

    mcst_edges: np.ndarray
    alpha: float


@dataclass
class GeodesicDistances:
    """The geodesic block among a set of vertices.

    ``dists[i, j]`` is the shortest-path length from ``sources[i]`` to
    ``sources[j]``: a len(sources) x len(sources) block, never n-wide rows.
    """

    sources: list[int]
    dists: np.ndarray


def _star_thresholds(p: int, alpha: float, max_star: int) -> list[float]:
    """Beta(p/2, (k-1)p/2) quantiles at level alpha, indexed by star size k.

    Sizes 0 and 1 hold inf: those stars are exempt from the test.
    """
    return [np.inf, np.inf] + [
        beta_quantile(p / 2.0, (k - 1) * p / 2.0, alpha) for k in range(2, max_star + 1)
    ]


def _star_scan(sq: np.ndarray, owner: np.ndarray, counts: np.ndarray, thresholds: list[float]) -> np.ndarray:
    """Which incidences the Beta test of their vertex's star rejects.

    ``sq`` holds the squared length of each incidence, 0.0 for an incidence
    whose edge is gone, ``owner`` its vertex as ``vertex_stars`` returns it,
    and ``counts`` the live star sizes. The statistic of edge e_j is its
    squared length over the star's total; under a local Gaussian model it
    follows Beta(p/2, (k-1)p/2) for a star of size k, and ``thresholds[k]``
    is its quantile. ``np.bincount`` adds its weights in input order, and
    the incidences come grouped by vertex with edge ids ascending, so each
    total is a left fold from 0.0 in edge-id order; adding a gone edge's
    0.0 is exact. ``sum()`` compensates its rounding from Python 3.12 on and
    ``math.fsum`` rounds once, so either would move statistics that sit at
    the threshold. Stars of size one are exempt (``thresholds`` holds inf
    there), and a total of zero rejects nothing.
    """
    total = np.bincount(owner, weights=sq, minlength=len(counts))[owner]
    stat = np.divide(sq, total, out=np.zeros_like(sq), where=total > 0.0)
    return stat > np.array(thresholds)[counts][owner]


def prune_edges(tess: Tessellation, mcst: SpanningTree, alpha: float) -> ManifoldGraph:
    """Remove implausibly long non-tree edges from the tessellation.

    Pruning runs in whole-graph sweeps. Each sweep tests every vertex star
    against the edge set as it stood when the sweep began, and removes at
    its end every rejected edge outside the spanning tree; an edge can be
    rejected from either endpoint's star. Several long edges in one star
    shield each other (they inflate the total the statistic is normalized
    by), so the sweeps repeat until one removes nothing: each removal
    sharpens the remaining stars and exposes the next outlier. No sweep
    depends on the order of the vertices, so the pruned graph is a function
    of the tessellation, the tree and alpha, not of the row order of the
    cloud; only a star total's summation order follows the edge ids, which
    can move a statistic that sits within rounding of its threshold.
    Simplices that lose any edge are dropped; the graph's ``simplex_edges``
    are the tessellation's, renumbered, with no search.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    n, p = tess.n, tess.p
    in_tree = np.isin(edge_keys(tess.edges, n), edge_keys(mcst.edges, n))
    if np.count_nonzero(in_tree) != len(mcst.edges):
        raise ValidationError("spanning tree contains edges outside the tessellation")

    # squares by Python's float power: numpy's square rounds differently on
    # about one length in a thousand, which moves statistics at the threshold
    sq = np.array([length**2 for length in tess.lengths.tolist()])
    position, owner, _, counts = vertex_stars(tess.edges, n)
    ids = position // 2
    thresholds = _star_thresholds(p, alpha, int(counts.max(initial=0)))
    alive = np.ones(len(sq), dtype=bool)
    while True:
        live = alive[ids]
        sizes = np.bincount(owner[live], minlength=n)
        rejects = _star_scan(np.where(live, sq[ids], 0.0), owner, sizes, thresholds)
        removed = ids[rejects & ~in_tree[ids]]
        if len(removed) == 0:
            break
        alive[removed] = False

    surviving = alive[tess.simplex_edges].all(axis=1)
    return ManifoldGraph(
        points=tess.points,
        edges=tess.edges[alive],
        lengths=tess.lengths[alive],
        simplices=tess.simplices[surviving],
        # the surviving edges keep their order, so a surviving simplex's edge
        # ids are its tessellation ids renumbered by the live edges before them
        simplex_edges=(np.cumsum(alive) - 1)[tess.simplex_edges[surviving]],
        mcst_edges=mcst.edges,
        alpha=alpha,
    )


def _csr(g: ManifoldGraph) -> csr_matrix:
    """The symmetric n x n edge-length matrix: each edge in both directions.

    Searches over it run with ``directed=True``, which scans one row per
    settled vertex where ``directed=False`` would transpose the matrix and
    scan two. It is built from one set of (u, v) and (v, u) triples, not as
    ``m + m.T``: sparse addition drops explicit zeros, and zero-length edges
    (coincident points) must stay as explicit entries, which
    ``scipy.sparse.csgraph`` treats as edges.
    """
    u, v = g.edges.T
    lengths = np.concatenate([g.lengths, g.lengths])
    return csr_matrix((lengths, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(g.n, g.n))


def graph_distances(g: ManifoldGraph, vertices) -> GeodesicDistances:
    """The square block of shortest-path lengths among ``vertices``.

    Entry (i, j) is the length of a shortest path from ``vertices[i]`` to
    ``vertices[j]``, inf when there is none; rows and columns follow the
    order of ``vertices``. Dijkstra runs over one symmetric length matrix
    from chunks of the vertices, each chunk's n-wide rows one row block
    (``numerics._row_blocks``), and keeps only the requested columns, so
    memory grows as len(vertices)^2 plus one block, not len(vertices) * n.
    Each row is its own single-source search, so the chunking moves no bit.
    Edge lengths are non-negative, so every label-setting algorithm settles
    each vertex at the same float, min over neighbours u of fl(d(u) + w),
    whatever its visiting order.
    """
    src = np.array([int(v) for v in vertices], dtype=np.intp)
    if len(src) == 0:
        raise ValidationError("graph_distances needs at least one vertex")
    lengths = _csr(g)
    dists = np.empty((len(src), len(src)))
    for rows in _row_blocks(len(src), g.n):
        dists[rows] = dijkstra(lengths, directed=True, indices=src[rows])[:, src]
    return GeodesicDistances(sources=src.tolist(), dists=dists)


def nearest_source_distances(g: ManifoldGraph, sources) -> np.ndarray:
    """Graph distance from each vertex of ``sources`` to its nearest other one.

    Entry i is inf when no other source is reachable from ``sources[i]``;
    repeated sources are rejected. One multi-source search labels every
    vertex with its nearest source. An edge (u, v) between two labels closes
    a path of length d(u) + w + d(v) between two sources, and the shortest
    path from a source s to its nearest other one crosses such an edge: the
    edge into the first vertex on it whose label is not s, whose bound is at
    most the path's length (Mehlhorn, Inf. Process. Lett. 27, 1988). So the
    smallest bound over the edges at s's label is the distance in exact
    arithmetic. In floats it is a sum along a path of at most n - 1 edges,
    as a row minimum of ``graph_distances`` is, grouped differently: the two
    agree within (n - 1) * eps relative, zero and inf exactly.
    """
    src = np.array([int(s) for s in sources], dtype=np.intp)
    if len(src) == 0:
        raise ValidationError("nearest_source_distances needs at least one source")
    if len(np.unique(src)) != len(src):
        raise ValidationError("nearest_source_distances needs distinct sources")
    near, _, label = dijkstra(_csr(g), directed=True, indices=src, min_only=True, return_predecessors=True)
    # both ends of an edge are reached, or neither is and both carry the
    # same "unreached" label
    u, v = g.edges.T
    between = label[u] != label[v]
    bound = near[u[between]] + g.lengths[between] + near[v[between]]
    nearest = np.full(g.n, np.inf)
    np.minimum.at(nearest, label[u[between]], bound)
    np.minimum.at(nearest, label[v[between]], bound)
    return nearest[src]


def dump_edge_list(g: ManifoldGraph) -> str:
    """Serialize the graph's edges: header ``n p alpha``, then ``i j length flag``."""
    buf = StringIO()
    buf.write(f"{g.n} {g.p} {g.alpha!r}\n")
    flags = np.isin(edge_keys(g.edges, g.n), edge_keys(g.mcst_edges, g.n)).tolist()
    for (i, j), length, flag in zip(g.edges.tolist(), g.lengths.tolist(), flags):
        buf.write(f"{i} {j} {length!r} {int(flag)}\n")
    return buf.getvalue()
