"""Edge pruning statistics, geodesic distances, and the edge-list format."""

import errno
import functools
import heapq
import math
import multiprocessing
import operator
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

import lsdr.graph as graph_module
from lsdr import numerics
from lsdr.errors import ValidationError
from lsdr.datasets import DatasetSpec, generate
from lsdr.geometry import delaunay_tessellation, edge_keys, edge_lengths, euclidean_mcst, vertex_stars
from lsdr.graph import (
    ManifoldGraph,
    _star_scan,
    dump_edge_list,
    graph_distances,
    nearest_source_distances,
    _star_thresholds,
    prune_edges,
)
from lsdr.numerics import beta_quantile, regularized_incomplete_beta
from lsdr.skeleton import boundary_distances, detect_boundary

from test_edge_table import cloud
from test_geometry import assert_simplex_edges_are_searched, pair_set, searched_simplex_edges
from test_numerics import quadrature_beta_quantile


def build_graph(points, edges, simplices=(), mcst=(), alpha=0.95):
    """A ManifoldGraph in the edge-table layout from unordered pairs and simplices."""
    pts = np.asarray(points, dtype=float)

    def table(pairs, width):
        rows = np.sort(np.asarray(pairs, dtype=np.intp).reshape(-1, width), axis=1)
        return rows[np.lexsort(rows.T[::-1])]

    pairs = table(edges, 2)
    rows = table(simplices, pts.shape[1] + 1)
    return ManifoldGraph(
        points=pts,
        edges=pairs,
        lengths=edge_lengths(pts, pairs),
        simplices=rows,
        simplex_edges=searched_simplex_edges(rows, pairs, len(pts)),
        mcst_edges=table(mcst, 2),
        alpha=alpha,
    )


def adjacency(g: ManifoldGraph) -> list[list[tuple[int, float]]]:
    """(neighbour, length) lists; lexicographic edges keep each list ascending."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for (i, j), length in zip(g.edges.tolist(), g.lengths.tolist()):
        adj[i].append((j, length))
        adj[j].append((i, length))
    return adj


def is_connected(graph: ManifoldGraph) -> bool:
    seen = {0}
    stack = [0]
    adj = adjacency(graph)
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == graph.n


def sweep_survivors(tess, mcst, alpha) -> np.ndarray:
    """Reference: simultaneous sweeps that rescan every star each time.

    Every star of a sweep is tested against the edges alive when the sweep
    began, and the rejected edges go at its end. Totals are left folds over
    Python floats, squares products; the sweeps repeat until one
    removes nothing. Returns the mask of surviving edges.
    """
    n, p = tess.n, tess.p
    protected = np.isin(edge_keys(tess.edges, n), edge_keys(mcst.edges, n)).tolist()
    sq = [length * length for length in tess.lengths.tolist()]
    stars = [[] for _ in range(n)]
    for e, (i, j) in enumerate(tess.edges.tolist()):
        stars[i].append(e)
        stars[j].append(e)
    quantiles = {}
    alive = [True] * len(sq)
    changed = True
    while changed:
        rejected = set()
        for vertex in range(n):
            star = [e for e in stars[vertex] if alive[e]]
            k = len(star)
            total = 0.0
            for e in star:
                total += sq[e]
            if k <= 1 or total <= 0.0:
                continue
            if k not in quantiles:
                quantiles[k] = beta_quantile(p / 2.0, (k - 1) * p / 2.0, alpha)
            rejected.update(e for e in star if sq[e] / total > quantiles[k])
        removed = [e for e in rejected if not protected[e]]
        for e in removed:
            alive[e] = False
        changed = bool(removed)
    return np.array(alive)


def left_fold_rejections(sq: list[float], thresholds: list[float]) -> list[int]:
    """Positions in one star whose share of the star's left-fold total exceeds its threshold."""
    total = functools.reduce(operator.add, sq, 0.0)
    if len(sq) <= 1 or total <= 0.0:
        return []
    return [e for e, v in enumerate(sq) if v / total > thresholds[len(sq)]]


class TestPruneEdges:
    def test_squares_by_multiplication(self, monkeypatch):
        # the edge from (0, 0) to (x, 0) is x long; x * x is 10.732500670526566,
        # the correctly rounded square, where libm's pow (x ** 2) gives
        # 10.732500670526564 on glibc 2.36
        x = 3.276049552513906
        pts = np.array([[0.0, 0.0], [x, 0.0], [0.0, 1.0]])
        tess = delaunay_tessellation(pts)
        assert x in tess.lengths
        scans = []
        scan = graph_module._star_scan

        def recording_scan(sq, *rest):
            scans.append(sq)
            return scan(sq, *rest)

        monkeypatch.setattr(graph_module, "_star_scan", recording_scan)
        prune_edges(tess, euclidean_mcst(pts, tess.edges), 0.95)
        assert set(scans[0].tolist()) == {length * length for length in tess.lengths.tolist()}

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_matches_the_per_vertex_sweep(self, p):
        clouds = [cloud(p, seed) for seed in range(3)]
        if p == 2:
            clouds.append(generate(DatasetSpec("spiral", 400, seed=25)))
        for pts in clouds:
            tess = delaunay_tessellation(pts)
            mcst = euclidean_mcst(pts, tess.edges)
            for alpha in (0.5, 0.8, 0.95, 0.99):
                alive = sweep_survivors(tess, mcst, alpha)
                graph = prune_edges(tess, mcst, alpha)
                assert np.array_equal(graph.edges, tess.edges[alive])
                assert np.array_equal(graph.lengths, tess.lengths[alive])
                surviving = alive[tess.simplex_edges].all(axis=1)
                assert np.array_equal(graph.simplices, tess.simplices[surviving])

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_simplex_edge_ids_are_the_tessellations_renumbered(self, p):
        # prune_edges carries each surviving simplex's edge ids over from the
        # tessellation; they are the rows a search of the graph's own table finds
        clouds = [cloud(p, seed) for seed in range(3)]
        if p == 2:
            clouds.append(generate(DatasetSpec("spiral", 400, seed=25)))
        for pts in clouds:
            tess = delaunay_tessellation(pts)
            mcst = euclidean_mcst(pts, tess.edges)
            for alpha in (0.5, 0.95, 0.99):
                graph = prune_edges(tess, mcst, alpha)
                assert_simplex_edges_are_searched(graph)

    def test_star_total_is_a_left_fold(self):
        # 1 + 2**-53 rounds back to 1 at each step of a left fold; the exact
        # sum (``math.fsum``, and ``sum()`` from Python 3.12 on) is
        # 1 + 2**-52, which would put edge 0's statistic below the threshold
        sq = [1.0, 2.0**-53, 2.0**-53]
        thresholds = [np.inf, np.inf, np.inf, 1.0 - 2.0**-53]
        assert math.fsum(sq) == 1.0 + 2.0**-52
        assert 1.0 / math.fsum(sq) < thresholds[3] < 1.0
        rejects = _star_scan(np.array(sq), np.zeros(3, dtype=np.intp), np.array([3]), thresholds)
        assert rejects.tolist() == [True, False, False]

    def test_array_scan_totals_are_left_folds(self):
        # one star of each size from 2 to 40, squares over 16 decades; each
        # threshold sits exactly at, or one float below, the left-fold
        # statistic of the star's first edge, so a total that rounds any
        # other way flips that edge's rejection. With spread 2 a gone edge
        # (0.0 in the table) follows each live one and must leave every
        # total as it is.
        rng = np.random.default_rng(7)
        counts = np.arange(2, 41)
        stars = [(10.0 ** rng.uniform(-8, 8, k)).tolist() for k in counts]
        at = [star[0] / functools.reduce(operator.add, star, 0.0) for star in stars]
        for spread in (1, 2):
            owner = np.repeat(np.arange(len(counts)), spread * counts)
            column = np.concatenate([np.arange(spread * k) for k in counts])
            live = column % spread == 0
            sq = np.zeros(len(owner))
            sq[live] = np.concatenate(stars)
            for edge in (at, np.nextafter(at, 0.0).tolist()):
                thresholds = [np.inf, np.inf, *edge]
                rejects = _star_scan(sq, owner, counts, thresholds)
                assert not rejects[~live].any()
                expected = [left_fold_rejections(star, thresholds) for star in stars]
                got = [np.flatnonzero(rejects[live & (owner == v)]).tolist() for v in range(len(counts))]
                assert got == expected

    def test_symmetric_star_keeps_everything(self):
        # pentagon plus center: the center's five spokes are equal, so each
        # statistic is 0.2, below the alpha=0.95 threshold for that star size
        theta = 2.0 * np.pi * np.arange(5) / 5
        pts = np.vstack([[0.0, 0.0], np.c_[np.cos(theta), np.sin(theta)]])
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        threshold = quadrature_beta_quantile(1.0, 4.0, 0.95)
        assert threshold == pytest.approx(0.527, abs=5e-4)
        assert 0.2 < threshold
        graph = prune_edges(tess, mcst, 0.95)
        assert np.array_equal(graph.edges, tess.edges)
        assert np.array_equal(graph.simplices, tess.simplices)

    def test_alpha_near_one_removes_nothing(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, (40, 2))
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        graph = prune_edges(tess, mcst, 1.0 - 1e-9)
        assert np.array_equal(graph.edges, tess.edges)

    def test_noisy_circle_keeps_only_angular_neighbours(self):
        rng = np.random.default_rng(4)
        n = 40
        theta = 2.0 * np.pi * np.arange(n) / n
        r = 1.0 + rng.normal(0.0, 0.01, n)
        pts = np.c_[r * np.cos(theta), r * np.sin(theta)]
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        graph = prune_edges(tess, mcst, 0.9)
        for i, j in graph.edges:
            sep = min((j - i) % n, (i - j) % n)
            assert sep <= 2, f"edge {(i, j)} spans {sep} angular positions"
        # the ring of consecutive neighbours survives intact
        kept = pair_set(graph.edges)
        for i in range(n):
            assert (min(i, (i + 1) % n), max(i, (i + 1) % n)) in kept

    def test_mcst_edges_always_survive_and_graph_stays_connected(self):
        rng = np.random.default_rng(77)
        pts = np.vstack(
            [rng.normal(0, 1, (30, 2)), rng.normal(0, 1, (30, 2)) + [25.0, 0.0]]
        )
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        for alpha in (0.5, 0.9, 0.99):
            graph = prune_edges(tess, mcst, alpha)
            assert pair_set(mcst.edges) <= pair_set(graph.edges)
            assert is_connected(graph)

    def test_surviving_simplices_have_all_edges(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(0, 1, (50, 2))
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        graph = prune_edges(tess, mcst, 0.8)
        surviving = pair_set(graph.edges)
        for s in graph.simplices:
            for a in range(3):
                for b in range(a + 1, 3):
                    assert (min(s[a], s[b]), max(s[a], s[b])) in surviving

    def test_monotone_in_alpha_under_fixed_initial_degrees(self):
        # one-shot evaluation against the untouched tessellation stars
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 1, (60, 2))
        tess = delaunay_tessellation(pts)
        sq = np.square(tess.lengths)
        position, owner, counts = vertex_stars(tess.edges, tess.n)
        ids = position // 2

        def one_shot_survivors(alpha):
            thresholds = _star_thresholds(tess.p, alpha, int(counts.max()))
            rejected = ids[_star_scan(sq[ids], owner, counts, thresholds)]
            return set(range(len(sq))) - set(rejected.tolist())

        previous = None
        for alpha in (0.5, 0.7, 0.9, 0.99):
            survivors = one_shot_survivors(alpha)
            if previous is not None:
                assert previous <= survivors
            previous = survivors

    def test_thresholds_are_the_beta_quantiles_by_star_size(self):
        thresholds = _star_thresholds(3, 0.9, 5)
        assert thresholds[:2] == [np.inf, np.inf]
        assert thresholds[2:] == [beta_quantile(1.5, (k - 1) * 1.5, 0.9) for k in range(2, 6)]

    def test_statistic_follows_beta_law(self):
        # small-sample version of the distribution acceptance check
        rng = np.random.default_rng(99)
        p, k, draws = 2, 5, 4000
        offsets = rng.standard_normal((draws, k, p))
        sq = np.sum(offsets**2, axis=2)
        t = sq[:, 0] / sq.sum(axis=1)
        t.sort()
        cdf = np.array([regularized_incomplete_beta(p / 2, (k - 1) * p / 2, v) for v in t])
        ecdf_hi = np.arange(1, draws + 1) / draws
        ecdf_lo = np.arange(0, draws) / draws
        ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(cdf - ecdf_lo).max())
        assert ks < 0.03

    @pytest.mark.parametrize(
        "spec",
        [
            DatasetSpec("trefoil_knot", 300, seed=2),
            DatasetSpec("spiral", 1500, seed=26),
            DatasetSpec("sphere_surface", 500, noise=0.02, seed=2),
        ],
        ids=["trefoil", "spiral", "sphere"],
    )
    def test_pruned_graph_does_not_depend_on_row_order(self, spec):
        # each run's pairs are mapped back to the original row indices; the
        # tessellation itself must not move, or the test proves nothing
        x = generate(spec)

        def original_pairs(edges, perm):
            return pair_set(np.sort(perm[edges], axis=1))

        tess = delaunay_tessellation(x)
        pruned = pair_set(prune_edges(tess, euclidean_mcst(x, tess.edges), 0.95).edges)
        assert len(pruned) < len(tess.edges)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(x))
            pts = x[perm]
            moved = delaunay_tessellation(pts)
            assert original_pairs(moved.edges, perm) == pair_set(tess.edges)
            graph = prune_edges(moved, euclidean_mcst(pts, moved.edges), 0.95)
            assert original_pairs(graph.edges, perm) == pruned

    def test_rejects_alpha_out_of_range(self):
        pts = np.random.default_rng(0).uniform(0, 1, (10, 2))
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        with pytest.raises(ValidationError):
            prune_edges(tess, mcst, 1.0)


def counting_dijkstra(runs: list):
    """csgraph's ``dijkstra``, appending each call's source count to ``runs``."""

    def counted(*args, **kwargs):
        runs.append(len(kwargs["indices"]))
        return dijkstra(*args, **kwargs)

    return counted


def heap_dijkstra(g, sources) -> np.ndarray:
    """Reference: textbook heap Dijkstra from every vertex of ``sources`` at once."""
    adj = adjacency(g)
    out = np.full(g.n, np.inf)
    heap = []
    for s in sources:
        out[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > out[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < out[v]:
                out[v] = nd
                heapq.heappush(heap, (nd, v))
    return out


class TestGraphDistances:
    def test_path(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1), (1, 2)])
        res = graph_distances(g, range(3))
        assert res.dists[0, 2] == pytest.approx(2.0)

    def test_triangle_direct_edge_wins(self):
        g = build_graph([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [(0, 1), (0, 2), (1, 2)])
        res = graph_distances(g, range(3))
        assert res.dists[1, 2] == pytest.approx(5.0)

    def test_matches_floyd_warshall_exactly(self):
        # dyadic rational weights keep every path sum exact, so the two
        # algorithms must agree bit for bit despite different summation orders
        rng = np.random.default_rng(31)
        n = 30
        pts = rng.uniform(0, 1, (n, 2))
        edges = {}
        for i in range(n - 1):
            edges[(i, i + 1)] = int(rng.integers(1, 33)) / 8.0
        for _ in range(50):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if i != j and (i, j) not in edges:
                edges[(i, j)] = int(rng.integers(1, 33)) / 8.0
        pairs = sorted(edges)
        no_simplices = np.empty((0, 3), dtype=np.intp)
        g = ManifoldGraph(
            points=pts,
            edges=np.array(pairs),
            lengths=np.array([edges[e] for e in pairs]),
            simplices=no_simplices,
            simplex_edges=searched_simplex_edges(no_simplices, np.array(pairs), n),
            mcst_edges=np.empty((0, 2), dtype=np.intp),
            alpha=0.9,
        )
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for (i, j), w in edges.items():
            dist[i, j] = dist[j, i] = min(dist[i, j], w)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    via = dist[i, k] + dist[k, j]
                    if via < dist[i, j]:
                        dist[i, j] = via
        res = graph_distances(g, range(n))
        assert np.array_equal(res.dists, dist)

    def test_geodesic_dominates_euclidean_and_is_symmetric(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(0, 1, (40, 2))
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        graph = prune_edges(tess, mcst, 0.95)
        res = graph_distances(graph, range(40))
        euclid = np.sqrt(
            np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        )
        assert np.all(res.dists >= euclid - 1e-9)
        assert np.abs(res.dists - res.dists.T).max() < 1e-12
        assert np.all(np.diag(res.dists) == 0.0)

    def test_matches_heap_dijkstra_on_a_pruned_delaunay_graph(self):
        # Euclidean lengths are not dyadic, so path sums round; with
        # non-negative weights every label-setting order still settles each
        # vertex at min over neighbours of fl(d(u) + w), hence equal floats
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 1, (200, 2))
        tess = delaunay_tessellation(pts)
        graph = prune_edges(tess, euclidean_mcst(pts, tess.edges), 0.95)
        assert len(graph.edges) < len(tess.edges)
        res = graph_distances(graph, range(graph.n))
        expected = np.array([heap_dijkstra(graph, [s]) for s in range(graph.n)])
        assert np.array_equal(res.dists, expected)
        boundary = detect_boundary(graph)
        assert np.array_equal(boundary_distances(graph, boundary), heap_dijkstra(graph, boundary))

    def test_zero_length_edge_is_an_edge(self):
        # coincident points give an explicit zero in the sparse length
        # matrix; dropping it as a structural zero would disconnect vertex 0
        g = build_graph([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [(0, 1), (1, 2)])
        # each edge in both directions, the zero kept as an explicit entry
        matrix = g.adjacency
        assert matrix.nnz == 4 and matrix[0, 1] == matrix[1, 0] == 0.0
        assert graph_distances(g, range(3)).dists[[0, 2]].tolist() == [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assert boundary_distances(g, [0]).tolist() == [0.0, 0.0, 1.0]
        assert boundary_distances(g, [2]).tolist() == [1.0, 1.0, 0.0]
        assert nearest_source_distances(g, [0, 1]).tolist() == [0.0, 0.0]
        assert nearest_source_distances(g, [0, 2]).tolist() == [1.0, 1.0]

    def test_row_and_block_follow_the_source_order(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], [(0, 1), (1, 2)])
        assert graph_distances(g, range(3)).dists[0].tolist() == [0.0, 1.0, 3.0]
        res = graph_distances(g, [2, 0])
        assert res.sources == [2, 0]
        assert res.dists.tolist() == [[0.0, 3.0], [3.0, 0.0]]

    def test_chunked_block_is_the_all_pairs_matrix_restricted(self, monkeypatch):
        # a tiny row block splits the sources into chunks of two; each row is
        # its own search, so the block keeps the all-pairs matrix's bits
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 1, (150, 2))
        tess = delaunay_tessellation(pts)
        graph = prune_edges(tess, euclidean_mcst(pts, tess.edges), 0.95)
        full = graph_distances(graph, range(graph.n)).dists
        vertices = [int(v) for v in rng.permutation(graph.n)[:37]] + [5]
        runs = []
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 2 * graph.n)
        monkeypatch.setattr(graph_module, "dijkstra", counting_dijkstra(runs))
        res = graph_distances(graph, vertices)
        assert runs == [2] * 19
        assert res.sources == vertices
        assert np.array_equal(res.dists, full[np.ix_(vertices, vertices)])

    def test_requires_sources(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
        with pytest.raises(ValidationError):
            graph_distances(g, [])


def block_bytes(g, sources):
    """The bytes of ``graph_distances``'s block (a pool worker's task)."""
    return graph_distances(g, sources).dists.tobytes()


@pytest.fixture(scope="module")
def spiral_block():
    """The pruned spiral n=1500 (seed 26) graph, 200 sources out of order,
    and their block computed in-process."""
    x = generate(DatasetSpec("spiral", 1500, seed=26))
    tess = delaunay_tessellation(x)
    g = prune_edges(tess, euclidean_mcst(x, tess.edges), 0.95)
    sources = [int(v) for v in np.random.default_rng(8).permutation(g.n)[:200]]
    assert len(sources) * g.n >= graph_module._SPLIT_FLOOR
    serial = np.empty((len(sources), len(sources)))
    graph_module._block(g.adjacency, np.array(sources), slice(None), serial)
    return g, sources, serial.tobytes()


@pytest.fixture
def helpers(monkeypatch):
    """Fresh, unstarted helpers for a two-CPU affinity (so one helper on any
    machine), each stopped after the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fresh = graph_module._Helpers()
    monkeypatch.setattr(graph_module, "_helpers", fresh)
    yield fresh
    for helper in list(fresh.live):
        fresh.drop(helper)


class TestSplitBlock:
    """Above the size floor the block is split between this process and its
    helpers; every path must give the in-process bytes."""

    def test_split_block_equals_the_in_process_block(self, spiral_block, helpers, monkeypatch):
        g, sources, serial = spiral_block
        assert graph_distances(g, sources).dists.tobytes() == serial
        assert len(helpers.live) == 1 and helpers.live[0][0].is_alive()
        # the calling process searches from its own half of the sources only
        runs = []
        monkeypatch.setattr(graph_module, "dijkstra", counting_dijkstra(runs))
        res = graph_distances(g, sources)
        assert sum(runs) == len(sources) // 2
        assert res.sources == sources and res.dists.tobytes() == serial

    def test_one_cpu_starts_no_process(self, spiral_block, helpers, monkeypatch):
        g, sources, serial = spiral_block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        children = multiprocessing.active_children()
        assert graph_distances(g, sources).dists.tobytes() == serial
        assert helpers.started and helpers.live == []
        assert multiprocessing.active_children() == children

    def test_a_failed_fork_leaves_the_rows_in_process(self, spiral_block, helpers, monkeypatch):
        g, sources, serial = spiral_block

        def no_fork(process):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        assert graph_distances(g, sources).dists.tobytes() == serial
        assert helpers.started and helpers.live == []

    def test_a_pool_worker_starts_no_process(self, spiral_block, helpers):
        # multiprocessing forbids a daemonic process, as a pool's worker is,
        # to start children
        g, sources, serial = spiral_block
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork beside threads, Python 3.12+
            with multiprocessing.get_context("fork").Pool(1) as pool:
                assert pool.apply(block_bytes, (g, sources), {}) == serial

    def test_a_first_call_beside_another_thread_starts_no_process(self, spiral_block, helpers):
        g, sources, serial = spiral_block
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(30,))
        waiting.start()
        try:
            assert graph_distances(g, sources).dists.tobytes() == serial
            assert not helpers.started and helpers.live == []
        finally:
            release.set()
            waiting.join(timeout=30)
        assert not waiting.is_alive()
        # alone again, the next call starts them
        assert graph_distances(g, sources).dists.tobytes() == serial
        assert len(helpers.live) == 1

    @pytest.mark.parametrize("when", ["before the call", "during the call"])
    def test_a_killed_helper_is_dropped_and_its_rows_computed_here(self, spiral_block, helpers, monkeypatch, when):
        g, sources, serial = spiral_block
        graph_distances(g, sources)
        [(process, _)] = helpers.live

        def kill():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30)
            assert process.exitcode == -signal.SIGKILL

        if when == "before the call":
            kill()
        else:
            # the helper dies after it got its part, while this process
            # searches from its own: the rows come from a failed receive
            block = graph_module._block

            def killing_block(*args):
                if process.exitcode is None:
                    kill()
                block(*args)

            monkeypatch.setattr(graph_module, "_block", killing_block)
        runs = []
        monkeypatch.setattr(graph_module, "dijkstra", counting_dijkstra(runs))
        assert graph_distances(g, sources).dists.tobytes() == serial
        # every row was searched here
        assert sum(runs) == len(sources)
        assert helpers.live == []
        assert graph_distances(g, sources).dists.tobytes() == serial

    def test_a_call_that_fails_drops_the_helpers_it_did_not_read(self, spiral_block, helpers, monkeypatch):
        # the helper's rows of the failed call must not be read by the next
        g, sources, serial = spiral_block
        graph_distances(g, sources)
        [(process, _)] = helpers.live

        def failing_block(*args):
            raise MemoryError

        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "_block", failing_block)
            with pytest.raises(MemoryError):
                graph_distances(g, sources)
        assert helpers.live == [] and process.exitcode is not None
        assert not helpers.lock.locked()
        assert graph_distances(g, sources).dists.tobytes() == serial

    def test_three_cpus_split_the_block_in_thirds(self, spiral_block, helpers, monkeypatch):
        g, sources, serial = spiral_block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert graph_distances(g, sources).dists.tobytes() == serial
        assert len(helpers.live) == 2 and all(process.is_alive() for process, _ in helpers.live)
        # the calling process searches from its own third of the sources only
        runs = []
        monkeypatch.setattr(graph_module, "dijkstra", counting_dijkstra(runs))
        res = graph_distances(g, sources)
        assert sum(runs) == len(sources) // 3
        assert res.sources == sources and res.dists.tobytes() == serial

    def test_a_failing_own_part_drops_both_unread_helpers(self, spiral_block, helpers, monkeypatch):
        g, sources, serial = spiral_block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        graph_distances(g, sources)
        processes = [process for process, _ in helpers.live]
        assert len(processes) == 2

        def failing_block(*args):
            raise MemoryError

        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "_block", failing_block)
            with pytest.raises(MemoryError):
                graph_distances(g, sources)
        assert helpers.live == [] and all(process.exitcode is not None for process in processes)
        assert not helpers.lock.locked()
        assert graph_distances(g, sources).dists.tobytes() == serial

    def test_two_threads_at_once_both_get_the_serial_bytes(self, spiral_block, helpers):
        g, sources, serial = spiral_block
        graph_distances(g, sources)
        start = threading.Barrier(2)
        results = [None, None]

        def call(slot):
            start.wait(timeout=30)
            results[slot] = graph_distances(g, sources).dists.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial, serial]
        # neither call left a helper out of step or the lock held
        assert len(helpers.live) == 1 and not helpers.lock.locked()
        assert graph_distances(g, sources).dists.tobytes() == serial

    def test_a_forked_child_holds_no_helpers(self, spiral_block, helpers):
        g, sources, serial = spiral_block
        graph_distances(g, sources)
        [(process, _)] = helpers.live
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork beside BLAS threads; the child
            # only reports its state
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                # the children multiprocessing's exit handler would terminate
                children = [child.pid for child in multiprocessing.active_children()]
                state = (len(graph_module._helpers.live), graph_module._helpers.started, process.pid in children)
                os.write(write, repr(state).encode())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read) as reply:
            state = reply.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert state == repr((0, False, False))
        # the parent keeps its helper
        assert helpers.live[0][0] is process and process.is_alive()
        assert graph_distances(g, sources).dists.tobytes() == serial


def assert_dump_matches(text: str, graph: ManifoldGraph) -> None:
    """``text`` is the header ``n p alpha``, then ``i j repr(length) flag`` per edge.

    The edges come in the graph's order; the flag is 1 exactly for the
    spanning-tree edges.
    """
    mcst = pair_set(graph.mcst_edges)
    edges = list(map(tuple, graph.edges.tolist()))
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == f"{graph.n} {graph.p} {graph.alpha!r}"
    assert lines[1:] == [
        f"{i} {j} {length!r} {int((i, j) in mcst)}"
        for (i, j), length in zip(edges, graph.lengths.tolist())
    ]
    assert mcst <= set(edges)


class TestEdgeListFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(52)
        pts = rng.uniform(0, 1, (20, 2))
        tess = delaunay_tessellation(pts)
        mcst = euclidean_mcst(pts, tess.edges)
        graph = prune_edges(tess, mcst, 0.95)
        text = dump_edge_list(graph)
        assert_dump_matches(text, graph)
        head, *rows = [line.split() for line in text.splitlines()]
        assert (int(head[0]), int(head[1]), float(head[2])) == (graph.n, graph.p, graph.alpha)
        edges = {(int(i), int(j)): float(length) for i, j, length, _ in rows}
        assert edges == dict(zip(map(tuple, graph.edges.tolist()), graph.lengths.tolist()))
        flagged = {(int(i), int(j)) for i, j, _, flag in rows if flag == "1"}
        assert flagged == pair_set(graph.mcst_edges)
