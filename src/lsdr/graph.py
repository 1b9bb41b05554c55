"""Manifold approximation graph: quantile-tested edge pruning and geodesics.

Pruning removes, at significance level alpha, the Delaunay edges whose share
of their vertex star's squared length is implausibly large under a local
Gaussian model; spanning-tree edges are exempt so the graph stays connected.
Shortest paths over the surviving weighted edges approximate geodesic
distances on the underlying manifold.
"""

import heapq
from dataclasses import dataclass, field
from io import StringIO

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import ValidationError
from .geometry import SpanningTree, Tessellation, edge_keys
from .numerics import beta_quantile

__all__ = [
    "ManifoldGraph",
    "GeodesicDistances",
    "prune_edges",
    "graph_distances",
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

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """(neighbour, length) lists; lexicographic edges keep each list ascending."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for (i, j), length in zip(self.edges.tolist(), self.lengths.tolist()):
            adj[i].append((j, length))
            adj[j].append((i, length))
        return adj


@dataclass
class GeodesicDistances:
    """Shortest-path distance rows for the requested source vertices."""

    sources: list[int]
    dists: np.ndarray  # len(sources) x n
    _rows: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows = {s: i for i, s in enumerate(self.sources)}

    def row(self, vertex: int) -> np.ndarray:
        return self.dists[self._rows[vertex]]

    def block(self, vertices) -> np.ndarray:
        """Distances among ``vertices`` (each must be a source), as a new array."""
        return self.dists[np.ix_([self._rows[v] for v in vertices], vertices)]


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
    squared length over the star's total squared length, summed in edge-id
    order; under a local Gaussian model it follows Beta(p/2, (k-1)p/2) where k
    is the star size, and ``thresholds[k]`` is its quantile. Stars of size one
    are exempt (the statistic is degenerate there).
    """
    k = len(star)
    if k <= 1:
        return []
    total = sum(sq[e] for e in star)
    if total <= 0.0:
        return []
    threshold = thresholds[k]
    return [e for e in star if sq[e] / total > threshold]


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
    stars: list[list[int]] = [[] for _ in range(n)]
    for e, (i, j) in enumerate(tess.edges.tolist()):
        stars[i].append(e)
        stars[j].append(e)
    alive = [True] * len(sq)
    thresholds = _star_thresholds(p, alpha, max(map(len, stars), default=0))

    changed = True
    while changed:
        changed = False
        for vertex in range(n):
            star = stars[vertex] = [e for e in stars[vertex] if alive[e]]
            for e in _star_rejections(star, sq, thresholds):
                if not protected[e]:
                    alive[e] = False
                    changed = True

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


def dijkstra_truncated(
    adj: list[list[tuple[int, float]]], source: int, settle: int
) -> list[tuple[float, int]]:
    """Settle the ``settle`` nearest vertices from ``source`` (source included).

    Returns (distance, vertex) pairs in settling order; ties resolved by
    vertex index through the heap ordering.
    """
    dist = {source: 0.0}
    done: list[tuple[float, int]] = []
    settled = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap and len(done) < settle:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        done.append((d, u))
        for v, w in adj[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return done


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


def multi_source_distances(g: ManifoldGraph, sources) -> np.ndarray:
    """Distance from every vertex to the nearest vertex of ``sources``."""
    src = [int(s) for s in sources]
    if not src:
        raise ValidationError("multi_source_distances needs at least one source")
    return dijkstra(_csr(g), directed=False, indices=src, min_only=True)


def dump_edge_list(g: ManifoldGraph) -> str:
    """Serialize the graph's edges: header ``n p alpha``, then ``i j length flag``."""
    buf = StringIO()
    buf.write(f"{g.n} {g.p} {g.alpha!r}\n")
    flags = np.isin(edge_keys(g.edges, g.n), edge_keys(g.mcst_edges, g.n)).tolist()
    for (i, j), length, flag in zip(g.edges.tolist(), g.lengths.tolist(), flags):
        buf.write(f"{i} {j} {length!r} {int(flag)}\n")
    return buf.getvalue()
