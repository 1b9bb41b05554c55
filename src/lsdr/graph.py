"""Manifold approximation graph: quantile-tested edge pruning and geodesics.

Pruning removes, at significance level alpha, the Delaunay edges whose share
of their vertex star's squared length is implausibly large under a local
Gaussian model; spanning-tree edges are exempt so the graph stays connected.
Shortest paths over the surviving weighted edges approximate geodesic
distances on the underlying manifold.
"""

import heapq
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
    surviving (s, p+1) ascending rows in lexicographic order. ``mcst_edges``
    are the protected spanning-tree pairs, also in lexicographic order.
    """

    mcst_edges: np.ndarray
    alpha: float


@dataclass
class GeodesicDistances:
    """Shortest-path distance rows for the requested source vertices."""

    sources: list[int]
    dists: np.ndarray  # len(sources) x n, row i from sources[i]


def _star_thresholds(p: int, alpha: float, max_star: int) -> list[float]:
    """Beta(p/2, (k-1)p/2) quantiles at level alpha, indexed by star size k.

    Sizes 0 and 1 hold inf: those stars are exempt from the test.
    """
    return [np.inf, np.inf] + [
        beta_quantile(p / 2.0, (k - 1) * p / 2.0, alpha) for k in range(2, max_star + 1)
    ]


def _star_rejections(star: list[int], sq: list[float], thresholds: list[float]) -> list[int]:
    """Edge ids of one vertex star whose length statistic exceeds the threshold.

    ``sq`` holds each edge's squared length. The statistic for edge e_j is its
    squared length over the star's total squared length; under a local
    Gaussian model it follows Beta(p/2, (k-1)p/2) where k is the star size,
    and ``thresholds[k]`` is its quantile. Stars of size one are exempt (the
    statistic is degenerate there). The total is a left fold in edge-id
    order: ``sum()`` compensates its rounding from Python 3.12 on and
    ``math.fsum`` rounds once, so either would move statistics that sit at
    the threshold.
    """
    k = len(star)
    if k <= 1:
        return []
    total = 0.0
    for e in star:
        total += sq[e]
    if total <= 0.0:
        return []
    threshold = thresholds[k]
    return [e for e in star if sq[e] / total > threshold]


def _first_scan(
    sq: np.ndarray,
    owner: np.ndarray,
    column: np.ndarray,
    counts: np.ndarray,
    thresholds: list[float],
) -> np.ndarray:
    """Which incidences the scan of their vertex's full star rejects.

    ``sq`` holds the squared length of each incidence and the other arrays
    place it, as ``vertex_stars`` returns them. Each total is summed column
    by column over a zero-padded (n, K) table of the stars, which is the
    left fold of ``_star_rejections`` bit for bit, so the two reject the
    same edges of a star with all its edges alive.
    """
    table = np.zeros((len(counts), counts.max(initial=0)))
    table[owner, column] = sq
    total = np.zeros(len(counts))
    for entries in table.T:
        total += entries
    total = total[owner]
    stat = np.divide(sq, total, out=np.zeros_like(sq), where=total > 0.0)
    return stat > np.array(thresholds)[counts][owner]


def prune_edges(tess: Tessellation, mcst: SpanningTree, alpha: float) -> ManifoldGraph:
    """Remove implausibly long non-tree edges from the tessellation.

    Vertices are scanned in ascending index order; all tests at one vertex
    use the edge set as it stood when that vertex's scan began and removals
    take effect when the scan of the vertex completes. Because several long
    edges in one star shield each other (they inflate the total squared
    length the statistic is normalized by), the sweep is repeated until a
    full pass removes nothing: each removal sharpens the remaining stars and
    exposes the next outlier. An edge can be rejected from either endpoint's
    star; spanning-tree membership always overrides a rejection. Simplices
    that lose any edge are dropped.

    The sweeps visit only the vertices whose scan can remove an edge, with
    the same result as scanning every vertex: one array pass scans every
    full star at once, and a sweep then visits the vertices whose full star
    rejects an unprotected edge (first sweep only) and those whose star lost
    an edge since their last scan, in ascending order. A star unchanged since
    a scan that removed nothing can only reject protected edges again.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    n, p = tess.n, tess.p
    in_tree = np.isin(edge_keys(tess.edges, n), edge_keys(mcst.edges, n))
    if np.count_nonzero(in_tree) != len(mcst.edges):
        raise ValidationError("spanning tree contains edges outside the tessellation")

    protected = in_tree.tolist()
    # squares by Python's float power: numpy's square rounds differently on
    # about one length in a thousand, which moves statistics at the threshold
    sq = [length**2 for length in tess.lengths.tolist()]
    position, owner, column, counts = vertex_stars(tess.edges, n)
    ids = position // 2
    thresholds = _star_thresholds(p, alpha, int(counts.max(initial=0)))
    rejects = _first_scan(np.array(sq)[ids], owner, column, counts, thresholds) & ~in_tree[ids]

    sweep = np.unique(owner[rejects]).tolist()
    bounds = np.append(0, np.cumsum(counts)).tolist()
    ids, ends = ids.tolist(), tess.edges.ravel().tolist()
    alive = [True] * len(sq)
    while sweep:
        queued, rescan = set(sweep), set()
        while sweep:
            vertex = heapq.heappop(sweep)
            star = [e for e in ids[bounds[vertex] : bounds[vertex + 1]] if alive[e]]
            for e in _star_rejections(star, sq, thresholds):
                if protected[e]:
                    continue
                alive[e] = False
                # an endpoint this sweep has passed (or is at) waits for the next one
                for u in ends[2 * e : 2 * e + 2]:
                    if u <= vertex:
                        rescan.add(u)
                    elif u not in queued:
                        queued.add(u)
                        heapq.heappush(sweep, u)
        sweep = sorted(rescan)

    alive = np.array(alive)
    surviving = alive[tess.simplex_edge_ids()].all(axis=1)
    return ManifoldGraph(
        points=tess.points,
        edges=tess.edges[alive],
        lengths=tess.lengths[alive],
        simplices=tess.simplices[surviving],
        mcst_edges=mcst.edges,
        alpha=alpha,
    )


def _csr(g: ManifoldGraph) -> csr_matrix:
    """The n x n edge-length matrix, upper triangle only.

    Zero-length edges (coincident points) stay as explicit entries, which
    ``scipy.sparse.csgraph`` treats as edges.
    """
    return csr_matrix((g.lengths, (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n))


def graph_distances(g: ManifoldGraph, sources) -> GeodesicDistances:
    """Single-source shortest-path lengths from each vertex in ``sources``.

    Row i holds the distances from ``sources[i]``; unreachable vertices read
    inf. Edge lengths are non-negative, so every label-setting algorithm
    settles each vertex at the same float, min over neighbours u of
    fl(d(u) + w), whatever its visiting order.
    """
    src = [int(s) for s in sources]
    if not src:
        raise ValidationError("graph_distances needs at least one source")
    return GeodesicDistances(sources=src, dists=dijkstra(_csr(g), directed=False, indices=src))


def nearest_source_distances(g: ManifoldGraph, sources) -> np.ndarray:
    """Distance from each vertex of ``sources`` to its nearest other one.

    Entry i equals, bit for bit, the minimum of row i of
    ``graph_distances(g, sources).dists[:, sources]`` with the diagonal at inf
    (inf when no other source is reachable), without the full rows. One
    multi-source search labels every vertex with its nearest source; an
    edge (u, v) between two labels closes a path of length d(u) + w + d(v)
    between them, and the shortest path from a source to its nearest other
    one crosses such an edge (Mehlhorn, Inf. Process. Lett. 27, 1988). The
    rows are then searched only up to the largest of these per-source
    estimates. The search is label-setting and the lengths non-negative, so
    every vertex within that limit settles at the float of an unbounded run;
    a source whose bounded row reaches no other source, however its
    estimate rounded, is searched again without a limit. Each row is its own
    search, so the rows run in chunks of sources and keep only the source
    columns.
    """
    src = np.array([int(s) for s in sources], dtype=np.intp)
    if len(src) == 0:
        raise ValidationError("nearest_source_distances needs at least one source")
    csr = _csr(g)
    near, _, label = dijkstra(csr, directed=False, indices=src, min_only=True, return_predecessors=True)
    # both ends of an edge are reached, or neither is and both carry the
    # same "unreached" label
    u, v = g.edges.T
    between = label[u] != label[v]
    bound = near[u[between]] + g.lengths[between] + near[v[between]]
    estimate = np.full(g.n, np.inf)
    np.minimum.at(estimate, label[u[between]], bound)
    np.minimum.at(estimate, label[v[between]], bound)
    estimate = estimate[src]
    limit = estimate[np.isfinite(estimate)].max(initial=0.0)
    nearest = np.empty(len(src))
    for chunk in _row_blocks(len(src), g.n):
        rows = dijkstra(csr, directed=False, indices=src[chunk], limit=limit)[:, src]
        rows[np.arange(len(rows)), np.arange(chunk.start, chunk.stop)] = np.inf
        nearest[chunk] = rows.min(axis=1)
    for i in np.flatnonzero(nearest == np.inf):
        row = dijkstra(csr, directed=False, indices=src[i])[src]
        row[i] = np.inf
        nearest[i] = row.min()
    return nearest


def dump_edge_list(g: ManifoldGraph) -> str:
    """Serialize the graph's edges: header ``n p alpha``, then ``i j length flag``."""
    buf = StringIO()
    buf.write(f"{g.n} {g.p} {g.alpha!r}\n")
    flags = np.isin(edge_keys(g.edges, g.n), edge_keys(g.mcst_edges, g.n)).tolist()
    for (i, j), length, flag in zip(g.edges.tolist(), g.lengths.tolist(), flags):
        buf.write(f"{i} {j} {length!r} {int(flag)}\n")
    return buf.getvalue()
