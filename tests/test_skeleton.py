"""Boundary detection and skeletal marking against hull and Dijkstra oracles."""

import ast
import heapq
import inspect
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import ConvexHull

import lsdr.graph as graph_module
import lsdr.skeleton as skeleton_module
from lsdr.datasets import DatasetSpec, generate
from lsdr.errors import ValidationError
from lsdr.geometry import delaunay_tessellation, edge_lengths, euclidean_mcst
from lsdr.graph import ManifoldGraph, graph_distances, nearest_source_distances, prune_edges
from lsdr.serialize import write_json
from lsdr.skeleton import (
    _neighbour_table,
    boundary_distances,
    detect_boundary,
    mark_skeleton,
    skeleton_report,
)

from test_geometry import searched_simplex_edges
from test_graph import adjacency, build_graph


def neighbour_rows(g, k):
    """The rows of ``_neighbour_table`` with its padding n stripped."""
    return [[u for u in row if u < g.n] for row in _neighbour_table(g, k).tolist()]


def tessellation_graph(points, alpha=1.0 - 1e-9):
    tess = delaunay_tessellation(points)
    mcst = euclidean_mcst(points, tess.edges)
    return prune_edges(tess, mcst, alpha)


class TestDetectBoundary:
    def test_two_triangles_sharing_an_edge(self):
        g = build_graph(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]],
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)],
            simplices=[(0, 1, 2), (0, 1, 3)],
        )
        assert detect_boundary(g) == [0, 1, 2, 3]

    def test_grid_boundary_is_the_perimeter(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.c_[xs.ravel(), ys.ravel()]
        g = tessellation_graph(pts)
        boundary = detect_boundary(g)
        perimeter = sorted(
            i for i, (x, y) in enumerate(pts) if x in (0.0, 4.0) or y in (0.0, 4.0)
        )
        assert boundary == perimeter
        assert len(boundary) == 16

    def test_uniform_square_hull_vertices_flagged(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 1, (200, 2))
        g = tessellation_graph(pts, alpha=0.95)
        boundary = set(detect_boundary(g))
        for v in ConvexHull(pts).vertices:
            assert int(v) in boundary

    def test_simplex_free_graph_is_all_boundary_without_a_warning(self):
        # every edge lies in no simplex, so every vertex of the connected graph
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1), (1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detect_boundary(g) == [0, 1, 2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        pts = rng.uniform(0, 1, (60, 2))
        g = tessellation_graph(pts, alpha=0.95)
        boundary = detect_boundary(g)
        perm = rng.permutation(60)
        g_perm = tessellation_graph(pts[perm], alpha=0.95)
        boundary_perm = detect_boundary(g_perm)
        # position i of the permuted cloud is original point perm[i]
        assert sorted(perm[boundary_perm]) == boundary


class TestBoundaryDistances:
    def test_all_boundary_gives_zeros(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1), (1, 2)])
        assert boundary_distances(g, [0, 1, 2]).tolist() == [0.0, 0.0, 0.0]

    def test_path_with_end_boundary(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1), (1, 2)])
        assert boundary_distances(g, [0, 2]).tolist() == [0.0, 1.0, 0.0]

    def test_matches_per_source_dijkstra_min(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.c_[xs.ravel(), ys.ravel()]
        g = tessellation_graph(pts)
        boundary = detect_boundary(g)
        d_b = boundary_distances(g, boundary)
        per_source = graph_distances(g, range(g.n)).dists[boundary].min(axis=0)
        assert np.array_equal(d_b, per_source)


def dijkstra_truncated(adj, source: int, settle: int) -> list[tuple[float, int]]:
    """Reference: settle the ``settle`` nearest vertices from ``source`` with a heap.

    Returns (distance, vertex) pairs in settling order; ties resolve by
    vertex index through the heap ordering.
    """
    # an int zero keeps the sums exact when the lengths are Fractions
    dist = {source: 0}
    done: list[tuple[float, int]] = []
    settled = set()
    heap: list[tuple[float, int]] = [(0, source)]
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


def heap_neighbours(g: ManifoldGraph, k: int) -> list[list[int]]:
    adj = adjacency(g)
    return [[u for _, u in dijkstra_truncated(adj, v, k + 1) if u != v][:k] for v in range(g.n)]


def with_extra_vertices(g: ManifoldGraph, twins: int, tiny: bool) -> ManifoldGraph:
    """``g`` plus coincident copies of its first vertices and a 1e-20 edge.

    Copy t of vertex t hangs on a zero-length edge (and on vertex t's first
    neighbour, so equal path lengths meet); the last new vertex, when
    ``tiny``, hangs on vertex 0 by an edge of length 1e-20, which no
    distance near the cloud's scale can tell from zero.
    """
    points, pairs, lengths = [g.points], [g.edges], [g.lengths]
    n = g.n
    for t in range(twins):
        other = int(g.edges[(g.edges == t).any(axis=1)][0].sum()) - t
        points.append(g.points[t : t + 1])
        pairs.append(np.array([[t, n], [other, n]]))
        lengths.append(edge_lengths(g.points, np.array([[t, t], [other, t]])))
        n += 1
    if tiny:
        points.append(g.points[:1])
        pairs.append(np.array([[0, n]]))
        lengths.append(np.array([1e-20]))
    edges = np.vstack(pairs)
    order = np.lexsort(edges.T[::-1])
    points = np.vstack(points)
    return ManifoldGraph(
        points=points,
        edges=edges[order],
        lengths=np.concatenate(lengths)[order],
        simplices=g.simplices,
        simplex_edges=searched_simplex_edges(g.simplices, edges[order], len(points)),
        mcst_edges=g.mcst_edges,
        alpha=g.alpha,
    )


class TestGraphNeighbours:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 3),
        st.integers(5, 40),
        st.sampled_from([0.5, 0.8, 0.95]),
        st.integers(0, 3),
        st.booleans(),
        st.data(),
    )
    def test_matches_a_heap_dijkstra_per_vertex(self, seed, p, n, alpha, twins, tiny, data):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, p)) * 1e3
        g = with_extra_vertices(tessellation_graph(pts, alpha), twins, tiny)
        k = data.draw(st.sampled_from(sorted({1, 2, 3, g.n - 1, g.n, g.n + 2})))
        expected = heap_neighbours(g, k)
        assert neighbour_rows(g, k) == expected
        d_b = rng.integers(0, 3, g.n) / 2.0
        skeletal = [
            v
            for v in range(g.n)
            if d_b[v] > 0.0 and d_b[v] >= max((d_b[u] for u in expected[v]), default=d_b[v]) - 1e-12 * d_b.max()
        ]
        assert mark_skeleton(g, d_b, k) == skeletal

    def test_every_k_up_to_n(self):
        rng = np.random.default_rng(5)
        g = with_extra_vertices(tessellation_graph(rng.uniform(0, 1, (12, 2)), 0.8), 2, True)
        for k in range(1, g.n + 2):
            assert neighbour_rows(g, k) == heap_neighbours(g, k)

    def test_ties_resolve_by_vertex_index(self):
        # three coincident points, one of them on a 1e-20 edge
        g = build_graph(
            [[0.0, 0.0], [1e3, 0.0], [1e3, 0.0], [2e3, 0.0], [1e3, 0.0]],
            [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)],
        )
        g.lengths[g.edges.tolist().index([2, 4])] = 1e-20
        # from 3, vertex 4 sits at fl(1e3 + 1e-20) = 1e3, level with 1 and 2
        assert neighbour_rows(g, 3) == heap_neighbours(g, 3) == [
            [1, 2, 4],
            [0, 3, 2],
            [4, 0, 3],
            [1, 2, 4],
            [2, 0, 3],
        ]

    def test_disconnected_vertices_have_fewer_neighbours(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]], [(0, 1)])
        assert neighbour_rows(g, 2) == heap_neighbours(g, 2) == [[1], [0], []]


class TestNearestSourceDistances:
    """The boundary-edge minimum against an exact-arithmetic Dijkstra."""

    @staticmethod
    def _exact_nearest(g, sources):
        """Each source's nearest other one in rational arithmetic, None if none."""
        adj = [[(v, Fraction(w)) for v, w in row] for row in adjacency(g)]
        others = set(sources)
        return [
            next((d for d, u in dijkstra_truncated(adj, s, g.n) if u != s and u in others), None)
            for s in sources
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 3),
        st.integers(5, 40),
        st.sampled_from([0.5, 0.8, 0.95]),
        st.integers(0, 3),
        st.booleans(),
        st.data(),
    )
    def test_within_path_roundoff_of_the_exact_distance(self, seed, p, n, alpha, twins, tiny, data):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, p)) * 1e3
        g = with_extra_vertices(tessellation_graph(pts, alpha), twins, tiny)
        sources = set(rng.choice(g.n, data.draw(st.integers(1, g.n), label="sources"), replace=False).tolist())
        if data.draw(st.booleans(), label="with the extra vertices"):
            # coincident sources, and sources 1e-20 apart
            sources |= set(range(twins + 1)) | set(range(n, g.n))
        sources = rng.permutation(sorted(sources)).tolist()
        nearest = nearest_source_distances(g, sources)
        # a sum along a path of at most n - 1 edges rounds at most n - 2 times
        tol = (g.n - 1) * np.finfo(float).eps
        for got, exact in zip(nearest.tolist(), self._exact_nearest(g, sources)):
            if exact is None or exact == 0:
                assert got == (np.inf if exact is None else 0.0)
            else:
                assert abs(Fraction(got) - exact) <= Fraction(tol) * exact

    def test_repeated_sources_are_rejected(self):
        g = tessellation_graph(np.random.default_rng(2).standard_normal((12, 2)))
        with pytest.raises(ValidationError, match="distinct sources"):
            nearest_source_distances(g, [3, 5, 3])

    def test_a_lone_source_has_no_nearest_other(self):
        g = tessellation_graph(np.random.default_rng(2).standard_normal((12, 2)))
        assert nearest_source_distances(g, [3]).tolist() == [np.inf]

    def test_requires_sources(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
        with pytest.raises(ValidationError, match="at least one source"):
            nearest_source_distances(g, [])


class ReadLog(csr_matrix):
    """A csr_matrix that logs every read of its three arrays."""

    log: list = []

    def __getattribute__(self, name):
        if name in ("indptr", "indices", "data"):
            object.__getattribute__(self, "log").append(name)
        return super().__getattribute__(name)


class TestOneAdjacency:
    """Every search over a pruned graph reads its one ``adjacency`` matrix."""

    def test_the_four_searches_read_the_same_matrix_object(self, monkeypatch):
        g = tessellation_graph(np.random.default_rng(4).uniform(0, 1, (60, 2)), 0.95)
        # each edge in both directions, built once with the graph
        assert g.adjacency.nnz == 2 * len(g.edges)
        assert np.array_equal(g.adjacency.toarray(), g.adjacency.toarray().T)
        searches = {
            "boundary": lambda: boundary_distances(g, detect_boundary(g)),
            "neighbours": lambda: _neighbour_table(g, 3),
            "block": lambda: graph_distances(g, range(g.n)).dists,
            "nearest": lambda: nearest_source_distances(g, [0, 7, 30]),
        }
        expected = {name: search() for name, search in searches.items()}
        spy = ReadLog(g.adjacency)
        spy.log = []
        g.adjacency = spy
        handed = []
        # the split's part: the matrix graph_distances hands to the helpers
        monkeypatch.setattr(graph_module, "_SPLIT_FLOOR", 0)

        def split(helpers, lengths, src, dists):
            handed.append(lengths)
            graph_module._block(lengths, src, slice(None), dists)

        monkeypatch.setattr(graph_module._Helpers, "split", split)
        searched = []

        def recording_dijkstra(matrix, *args, **kwargs):
            searched.append(matrix)
            return dijkstra(matrix, *args, **kwargs)

        for module in (graph_module, skeleton_module):
            monkeypatch.setattr(module, "dijkstra", recording_dijkstra)
        for name, search in searches.items():
            spy.log.clear()
            searched.clear()
            assert np.array_equal(search(), expected[name]), name
            assert spy.log, f"{name} did not read g.adjacency"
            assert all(matrix is spy for matrix in searched), name
        assert len(handed) == 1 and handed[0] is spy

    def test_skeleton_imports_nothing_private_from_graph(self):
        tree = ast.parse(inspect.getsource(skeleton_module))
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "graph"
            for alias in node.names
        ]
        assert imported and not [name for name in imported if name.startswith("_")]


class TestMarkSkeleton:
    def test_constant_depth_marks_everything(self):
        n = 8
        theta = 2 * np.pi * np.arange(n) / n
        pts = np.c_[np.cos(theta), np.sin(theta)]
        g = build_graph(pts, [(i, (i + 1) % n) for i in range(n)])
        d_b = np.ones(n)
        assert mark_skeleton(g, d_b, 2) == list(range(n))

    def test_path_interior_maximum(self):
        pts = np.c_[np.arange(5.0), np.zeros(5)]
        g = build_graph(pts, [(i, i + 1) for i in range(4)])
        d_b = boundary_distances(g, [0, 4])
        assert d_b.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]
        assert mark_skeleton(g, d_b, 2) == [2]

    def test_a_vertex_cut_off_from_the_boundary_leaves_the_tolerance_finite(self):
        # vertex 5 has no edge, so its depth is inf; the tie tolerance scales
        # with the largest finite depth, 2
        pts = np.c_[np.arange(6.0), np.zeros(6)]
        g = build_graph(pts, [(i, i + 1) for i in range(4)])
        d_b = boundary_distances(g, [0, 4])
        assert d_b.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0, np.inf]
        assert mark_skeleton(g, d_b, 2) == [2, 5]

    def test_strictly_deeper_point_is_skeletal(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (50, 2))
        g = tessellation_graph(pts, alpha=0.95)
        rep = skeleton_report(g, 3)
        nbrs = neighbour_rows(g, 3)
        for v in range(50):
            if all(rep.boundary_distance[v] > rep.boundary_distance[u] for u in nbrs[v]):
                assert v in rep.skeletal_points

    def test_spiral_skeleton_hugs_the_generating_curve(self):
        # thin noisy strip along an Archimedean spiral: skeletal points stay
        # in the middle third of the strip's width around the clean curve
        rng = np.random.default_rng(3)
        n, r0, pitch = 300, 1.0, 0.35
        theta = np.sort((np.arange(n) + rng.uniform(0, 1, n)) * (4.0 * np.pi / n))
        r_clean = r0 + pitch * theta
        pts = np.c_[r_clean * np.cos(theta), r_clean * np.sin(theta)]
        pts = pts + rng.normal(0.0, 0.04, pts.shape)
        g = tessellation_graph(pts, alpha=0.95)
        rep = skeleton_report(g, 3)
        deviation = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - r_clean)
        width = 2.0 * deviation.max()
        skel_dev = deviation[rep.skeletal_points]
        assert len(rep.skeletal_points) > 0
        assert skel_dev.max() <= width / 3.0

    def test_increasing_k_never_grows_the_skeleton(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, (80, 2))
        g = tessellation_graph(pts, alpha=0.95)
        d_b = boundary_distances(g, detect_boundary(g))
        sizes = []
        for k in (1, 2, 3, 5, 8):
            nbrs = neighbour_rows(g, k)
            sizes.append(len(mark_skeleton(g, d_b, k)))
        # neighbour sets are nested by construction (same tie-break), so the
        # skeletal criterion only gets harder as k grows
        for k in (1, 2, 3, 5):
            smaller = neighbour_rows(g, k)
            larger = neighbour_rows(g, k + 1)
            assert all(set(s) <= set(l) for s, l in zip(smaller, larger))
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("e", [-40, -20, 20, 40])
    def test_a_power_of_two_multiple_keeps_the_skeleton(self, e):
        # the tie tolerance scales with the depths: at 2**-40 an absolute
        # 1e-12 would swallow whole depth differences and mark 294 points
        pts = generate(DatasetSpec("spiral", 600, seed=3))
        base = skeleton_report(tessellation_graph(pts, alpha=0.95), 3)
        scaled = skeleton_report(tessellation_graph(np.ldexp(pts, e), alpha=0.95), 3)
        assert len(base.skeletal_points) == 103
        assert scaled.boundary_points == base.boundary_points
        assert scaled.skeletal_points == base.skeletal_points


class TestSkeletonReport:
    def test_report_round_trips_through_json_dict(self, tmp_path):
        rng = np.random.default_rng(19)
        pts = rng.uniform(0, 1, (40, 2))
        g = tessellation_graph(pts, alpha=0.95)
        rep = skeleton_report(g, 3)
        path = tmp_path / "emb_skeleton.json"
        write_json(path, rep.to_dict())
        back = json.loads(path.read_text())
        assert sorted(back) == ["boundary_distance", "boundary_points", "k_neighbours", "skeletal_points"]
        assert back["boundary_points"] == rep.boundary_points
        assert back["skeletal_points"] == rep.skeletal_points
        assert back["boundary_distance"] == rep.boundary_distance.tolist()
        assert back["k_neighbours"] == rep.k_neighbours

    def test_nonempty_skeleton_whenever_interior_exists(self):
        for seed in range(5):
            pts = np.random.default_rng(seed).uniform(0, 1, (60, 2))
            g = tessellation_graph(pts, alpha=0.95)
            rep = skeleton_report(g, 3)
            if len(rep.boundary_points) < 60:
                assert rep.skeletal_points

    def test_all_boundary_degenerate_case_marks_every_point_without_a_warning(self):
        # the report only describes the graph; the pipeline warns for its fallback
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
        g = tessellation_graph(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = skeleton_report(g, 1)
        assert rep.boundary_points == [0, 1, 2]
        assert rep.skeletal_points == [0, 1, 2]
