"""Manifold approximation graph: quantile-tested edge pruning and geodesics.

Pruning removes, at significance level alpha, the Delaunay edges whose share
of their vertex star's squared length is implausibly large under a local
Gaussian model; spanning-tree edges are exempt so the graph stays connected.
It runs in simultaneous sweeps that test every star at once, so no sweep
depends on the order of the vertices. Shortest paths over the surviving
weighted edges approximate geodesic distances on the underlying manifold.
"""

import os
import signal
import threading
import warnings
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


def _block(lengths: csr_matrix, src: np.ndarray, part: slice, out: np.ndarray) -> None:
    """Write into ``out`` the rows of the geodesic block from ``src[part]``.

    Dijkstra runs from chunks of those sources, each chunk's n-wide rows one
    row block (``numerics._row_blocks``), and keeps the columns of ``src``.
    """
    for rows in _row_blocks(len(out), lengths.shape[0]):
        out[rows] = dijkstra(lengths, directed=True, indices=src[part][rows])[:, src]


# Below this many vertices settled per call (sources times graph vertices)
# the block is computed in-process: sending the parts costs more than the
# helpers save. On a 2-core VM with one helper the split lost at 23 sources
# x 150 vertices (0.69 -> 0.89 ms), tied at 30 x 200 (1.1 ms) and won from
# 49 x 300 on (2.1 -> 1.95 ms; 254 x 1500: 51 -> 28 ms).
_SPLIT_FLOOR = 10_000


def _serve(conn) -> None:
    """A helper's loop: compute each part it is sent, reply with its rows.

    The rows go back one row block per message, so the caller receives at
    most one row block into a buffer of its own before it lands in place.
    The helper serves until the caller's end of the pipe closes.
    """
    # a terminal's Ctrl-C reaches the whole process group; the caller
    # handles it, and its exit stops the helper
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            lengths, src, part = conn.recv()
        except EOFError:
            return
        out = np.empty((part.stop - part.start, len(src)))
        _block(lengths, src, part, out)
        for rows in _row_blocks(len(out), len(src)):
            conn.send_bytes(out[rows])


class _Helpers:
    """Persistent helper processes that compute parts of geodesic blocks.

    csgraph's Dijkstra holds the interpreter lock, so only processes run
    rows side by side. The calling thread sends each helper its part over
    the helper's own pipe and computes its own part meanwhile; an executor
    would not overlap, because its feeder thread waits for the lock the
    caller's Dijkstra holds. One helper per core beyond the caller's, forked
    on the first large call made while the process runs a single Python
    thread (a fork copies only the calling thread, and any lock another
    thread holds stays held in the child); otherwise the call runs in-process
    and starts nothing. Helpers are daemons, so multiprocessing's exit
    handler terminates and joins them.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.started = False
        self.live = []  # (process, connection) pairs

    def start(self) -> None:
        import multiprocessing  # here, so that importing lsdr does not pay for it

        self.started = True
        # a daemon (a multiprocessing pool's worker, say) may start no process,
        # and only Linux reports the CPUs this process may run on
        if multiprocessing.current_process().daemon or not hasattr(os, "sched_getaffinity"):
            return
        context = multiprocessing.get_context("fork")
        with warnings.catch_warnings():
            # From Python 3.12 os.fork warns whenever the process has more
            # than one OS thread, and an idle OpenBLAS pool counts. Only the
            # calling Python thread exists here, and a helper never calls
            # BLAS: it runs csgraph's Dijkstra and numpy indexing.
            warnings.filterwarnings(
                "ignore", message=r"This process .* is multi-threaded, use of fork\(\)", category=DeprecationWarning
            )
            for _ in range(len(os.sched_getaffinity(0)) - 1):
                ours, theirs = context.Pipe()
                process = context.Process(target=_serve, args=(theirs,), daemon=True)
                # listed before the fork, so the child closes its copy of our end
                self.live.append((process, ours))
                try:
                    process.start()
                except OSError:  # no fork (out of memory or processes): fewer helpers
                    self.live.pop()
                    ours.close()
                    break
                finally:
                    theirs.close()

    def drop(self, helper) -> None:
        """Stop using ``helper``: close its pipe, terminate and reap it."""
        if helper in self.live:
            self.live.remove(helper)
        process, conn = helper
        conn.close()
        process.terminate()
        process.join()

    def split(self, lengths: csr_matrix, src: np.ndarray, dists: np.ndarray) -> None:
        """Fill ``dists`` with the block: one contiguous part per process.

        Each part's rows are written in place, from the helper's messages or,
        when a helper fails, from the same searches run here. A call that
        ends early drops every helper it has not read back, so no stale rows
        stay in a pipe.
        """
        if not self.started and threading.active_count() == 1:
            self.start()
        bounds = [len(src) * k // (len(self.live) + 1) for k in range(len(self.live) + 2)]
        parts = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        pending, here = [], [parts[0]]
        for helper, part in zip(list(self.live), parts[1:]):
            _, conn = helper
            try:
                conn.send((lengths, src, part))
                pending.append((helper, part))
            except (EOFError, OSError):
                self.drop(helper)
                here.append(part)
        try:
            for part in here:
                _block(lengths, src, part, dists[part])
            while pending:
                helper, part = pending[0]
                _, conn = helper
                try:
                    for rows in _row_blocks(part.stop - part.start, len(src)):
                        conn.recv_bytes_into(dists[part][rows].reshape(-1))
                except (EOFError, OSError):
                    self.drop(helper)
                    _block(lengths, src, part, dists[part])
                pending.pop(0)
        finally:
            for helper, _ in pending:
                self.drop(helper)


_helpers = _Helpers()


def _forget_helpers() -> None:
    """In a forked child: the helpers, their pipes and their lock are the parent's."""
    global _helpers
    if _helpers.live:
        from multiprocessing import process

        for helper, conn in _helpers.live:
            conn.close()
            # or the child's exit handler would terminate the parent's helpers
            process._children.discard(helper)
    _helpers = _Helpers()


if hasattr(os, "register_at_fork"):  # not on Windows, where no helper starts
    os.register_at_fork(after_in_child=_forget_helpers)


def graph_distances(g: ManifoldGraph, vertices) -> GeodesicDistances:
    """The square block of shortest-path lengths among ``vertices``.

    Entry (i, j) is the length of a shortest path from ``vertices[i]`` to
    ``vertices[j]``, inf when there is none; rows and columns follow the
    order of ``vertices``. Dijkstra runs over one symmetric length matrix
    from chunks of the vertices and keeps only the requested columns, so
    memory grows as len(vertices)^2 plus one row block, not
    len(vertices) * n. Above ``_SPLIT_FLOOR`` the rows are split between
    this process and its helpers (``_Helpers``); a call that finds them busy
    on another thread computes its block here. Each row is its own
    single-source search, so neither the chunking nor the split moves a
    bit. Edge lengths are non-negative, so every label-setting algorithm
    settles each vertex at the same float, min over neighbours u of
    fl(d(u) + w), whatever its visiting order.
    """
    src = np.array([int(v) for v in vertices], dtype=np.intp)
    if len(src) == 0:
        raise ValidationError("graph_distances needs at least one vertex")
    lengths = _csr(g)
    dists = np.empty((len(src), len(src)))
    helpers = _helpers
    if len(src) * g.n < _SPLIT_FLOOR or not helpers.lock.acquire(blocking=False):
        _block(lengths, src, slice(None), dists)
    else:
        try:
            helpers.split(lengths, src, dists)
        finally:
            helpers.lock.release()
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
