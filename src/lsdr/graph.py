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

from .errors import InputParseError, ValidationError
from .geometry import SpanningTree, Tessellation
from .numerics import beta_quantile

__all__ = [
    "ManifoldGraph",
    "GeodesicDistances",
    "prune_edges",
    "graph_distances",
    "dump_edge_list",
    "parse_edge_list",
]

Edge = tuple[int, int]


@dataclass
class ManifoldGraph:
    """Pruned tessellation graph with spanning-tree edges flagged."""

    points: np.ndarray
    edges: dict[Edge, float]
    simplices: list[tuple[int, ...]]
    mcst_edges: set[Edge]
    alpha: float

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for (i, j), length in self.edges.items():
            adj[i].append((j, length))
            adj[j].append((i, length))
        for nbrs in adj:
            nbrs.sort()
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


def _star_rejections(
    vertex: int,
    incident: list[Edge],
    lengths: dict[Edge, float],
    p: int,
    alpha: float,
    quantile_cache: dict[int, float],
) -> set[Edge]:
    """Edges of one vertex star whose length statistic exceeds the threshold.

    The statistic for edge e_j is its squared length over the star's total
    squared length; under a local Gaussian model it follows
    Beta(p/2, (k-1)p/2) where k is the star size. Stars of size one are
    exempt (the statistic is degenerate there).
    """
    k = len(incident)
    if k <= 1:
        return set()
    total = sum(lengths[e] ** 2 for e in incident)
    if total <= 0.0:
        return set()
    if k not in quantile_cache:
        quantile_cache[k] = beta_quantile(p / 2.0, (k - 1) * p / 2.0, alpha)
    threshold = quantile_cache[k]
    return {e for e in incident if lengths[e] ** 2 / total > threshold}


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
    if not mcst.edges <= set(tess.edges):
        raise ValidationError("spanning tree contains edges outside the tessellation")

    n, p = tess.n, tess.p
    lengths = dict(tess.edges)
    incident: list[set[Edge]] = [set() for _ in range(n)]
    for edge in lengths:
        incident[edge[0]].add(edge)
        incident[edge[1]].add(edge)

    quantile_cache: dict[int, float] = {}
    changed = True
    while changed:
        changed = False
        for vertex in range(n):
            snapshot = sorted(incident[vertex])
            rejected = _star_rejections(vertex, snapshot, lengths, p, alpha, quantile_cache)
            for edge in rejected:
                if edge in mcst.edges or edge not in lengths:
                    continue
                del lengths[edge]
                incident[edge[0]].discard(edge)
                incident[edge[1]].discard(edge)
                changed = True

    surviving = set(lengths)
    simplices = [
        s
        for s in tess.simplices
        if all(
            ((a, b) if a < b else (b, a)) in surviving
            for idx, a in enumerate(s)
            for b in s[idx + 1 :]
        )
    ]
    return ManifoldGraph(
        points=tess.points,
        edges=lengths,
        simplices=simplices,
        mcst_edges=set(mcst.edges),
        alpha=alpha,
    )


def _csr(g: ManifoldGraph) -> csr_matrix:
    """The n x n edge-length matrix, upper triangle only.

    Zero-length edges (coincident points) stay as explicit entries, which
    ``scipy.sparse.csgraph`` treats as edges.
    """
    ij = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2)
    lengths = np.fromiter(g.edges.values(), dtype=float, count=len(g.edges))
    return csr_matrix((lengths, (ij[:, 0], ij[:, 1])), shape=(g.n, g.n))


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
    for (i, j) in sorted(g.edges):
        flag = 1 if (i, j) in g.mcst_edges else 0
        buf.write(f"{i} {j} {g.edges[(i, j)]!r} {flag}\n")
    return buf.getvalue()


def parse_edge_list(text: str):
    """Parse the edge-list format back into (n, p, alpha, edges, mcst_edges)."""
    lines = text.strip().splitlines()
    if not lines:
        raise InputParseError("edge list is empty (line 1)")
    head = lines[0].split()
    if len(head) != 3:
        raise InputParseError("edge list header must be 'n p alpha' (line 1)")
    try:
        n, p, alpha = int(head[0]), int(head[1]), float(head[2])
    except ValueError as exc:
        raise InputParseError(f"bad edge list header (line 1): {exc}") from exc
    edges: dict[Edge, float] = {}
    mcst: set[Edge] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise InputParseError(f"edge line must be 'i j length flag' (line {lineno})")
        try:
            i, j, length, flag = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise InputParseError(f"bad edge line (line {lineno}): {exc}") from exc
        if not 0 <= i < j < n:
            raise InputParseError(f"edge indices out of range (line {lineno})")
        edges[(i, j)] = length
        if flag:
            mcst.add((i, j))
    return n, p, alpha, edges, mcst
