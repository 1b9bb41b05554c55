"""Tessellation and spanning tree against brute-force geometric oracles."""

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import DisjointSet
from scipy.spatial import QhullError

from lsdr import geometry
from lsdr.datasets import FAMILIES, DatasetSpec, generate
from lsdr.errors import DegeneracyError, ValidationError
from lsdr.geometry import delaunay_tessellation, edge_keys, edge_lengths, euclidean_mcst
from lsdr.numerics import pairwise_sq_dists


def family_clouds(p: int, n: int = 60) -> list:
    """The cloud of every dataset family of dimension ``p``."""
    clouds = []
    for family in FAMILIES:
        try:
            x = generate(DatasetSpec(family, n, p=p, seed=1))
        except ValidationError:  # the family's dimension is fixed
            x = generate(DatasetSpec(family, n, seed=1))
        if x.shape[1] == p:
            clouds.append(x)
    return clouds


def pair_set(pairs) -> set:
    """The rows of an (m, 2) index array as a set of tuples."""
    return set(map(tuple, np.asarray(pairs).tolist()))


def searched_simplex_edges(simplices, edges, n: int) -> np.ndarray:
    """Each simplex's vertex pairs, in ``np.triu_indices`` order, looked up in
    the edge table by binary search: the reference for ``simplex_edges``."""
    i, j = np.triu_indices(simplices.shape[1], 1)
    return np.searchsorted(edge_keys(edges, n), simplices[:, i] * n + simplices[:, j])


def assert_simplex_edges_are_searched(g) -> None:
    """``g.simplex_edges`` equals the search over ``g``'s own edge table, dtype included."""
    expected = searched_simplex_edges(g.simplices, g.edges, g.n)
    assert g.simplex_edges.dtype == expected.dtype
    assert np.array_equal(g.simplex_edges, expected)


def circumcircle(a, b, c):
    """Center and radius of the circle through three points (2D)."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    center = np.array([ux, uy])
    return center, np.linalg.norm(a - center)


def all_spanning_trees_min_length(points):
    """Exhaustive minimum over every spanning tree (Pruefer enumeration)."""
    n = len(points)
    best = np.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        seq_list = list(seq)
        total = 0.0
        avail = sorted(i for i in range(n) if degree[i] == 1)
        deg = degree[:]
        for v in seq_list:
            leaf = min(i for i in range(n) if deg[i] == 1)
            total += np.linalg.norm(points[leaf] - points[v])
            deg[leaf] -= 1
            deg[v] -= 1
        last = [i for i in range(n) if deg[i] == 1]
        total += np.linalg.norm(points[last[0]] - points[last[1]])
        best = min(best, total)
        del avail
    return best


def kruskal_complete_graph(points):
    """Independent Kruskal over the complete graph."""
    n = len(points)
    edges = sorted(
        (np.linalg.norm(points[i] - points[j]), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0.0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
    return total


def disjoint_set_kruskal(points, candidate_edges):
    """Reference: Kruskal's loop, merging through ``DisjointSet`` in (length, i, j) order.

    Returns the tree's lexicographic pairs and its lengths summed in merge order.
    """
    pts = np.asarray(points, dtype=float)
    pairs = np.sort(np.asarray(candidate_edges, dtype=np.intp).reshape(-1, 2), axis=1)
    lengths = edge_lengths(pts, pairs)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], lengths))
    components = DisjointSet(range(len(pts)))
    tree, total = [], 0.0
    for e in order.tolist():
        if components.merge(*pairs[e].tolist()):
            tree.append(e)
            total += float(lengths[e])
    if len(tree) != len(pts) - 1:
        raise ValidationError("candidate edge set does not connect all points")
    rows = pairs[tree]
    return rows[np.lexsort(rows.T[::-1])], total


def assert_kruskal_tree(points, candidates):
    rows, total = disjoint_set_kruskal(points, candidates)
    tree = euclidean_mcst(points, candidates)
    assert np.array_equal(tree.edges, rows)
    assert tree.total_length == total


class TestDelaunay:
    def test_minimal_triangle(self):
        tess = delaunay_tessellation([[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]])
        assert len(tess.simplices) == 1
        assert len(tess.edges) == 3

    def test_unit_square(self):
        tess = delaunay_tessellation([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert len(tess.simplices) == 2
        assert len(tess.edges) == 5

    def test_circle_hull_edges_and_empty_circumcircles(self):
        n = 20
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = np.c_[np.cos(theta), np.sin(theta)]
        tess = delaunay_tessellation(pts)
        edges = pair_set(tess.edges)
        for i in range(n):
            assert (min(i, (i + 1) % n), max(i, (i + 1) % n)) in edges
        # brute force: no point strictly inside any triangle's circumcircle
        # (tolerance well above the 1e-9 jitter scale)
        for tri in tess.simplices:
            center, radius = circumcircle(*pts[list(tri)])
            for q in range(n):
                if q in tri:
                    continue
                assert np.linalg.norm(pts[q] - center) > radius - 1e-6

    def test_edge_lengths_use_original_coordinates(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
        tess = delaunay_tessellation(pts)
        lengths = dict(zip(map(tuple, tess.edges.tolist()), tess.lengths.tolist()))
        assert lengths[(0, 1)] == 5.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (30, 2))
        a = delaunay_tessellation(pts, jitter_seed=4)
        b = delaunay_tessellation(pts, jitter_seed=4)
        assert np.array_equal(a.simplices, b.simplices)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.lengths, b.lengths)

    @pytest.mark.parametrize("scale", [2.0**70, 1e40, 1e60, 1e100])
    def test_huge_coordinates_tessellate_like_the_unit_cloud(self, scale):
        # unscaled, Qhull fails on this cloud from 1e60 on, and from 1e120 on
        # it crashes the process (see the reduce test in test_cli)
        pts = np.random.default_rng(0).standard_normal((40, 3))
        big = pts * scale
        tess = delaunay_tessellation(big)
        assert np.array_equal(tess.simplices, delaunay_tessellation(pts).simplices)
        assert np.array_equal(tess.points, big)
        i, j = tess.edges.T
        assert np.array_equal(tess.lengths, np.sqrt(pairwise_sq_dists(big))[i, j])

    def test_an_edge_length_that_overflows_is_a_usage_error(self):
        # Qhull tessellates the unit square times 2**600 at its own scale, but
        # every squared edge length overflows, and an infinite edge leaves its
        # far end unreached by every graph search
        square = np.ldexp([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 600)
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError, match="^tessellation edge lengths overflow the float range$"):
                delaunay_tessellation(square)

    @pytest.mark.parametrize("k", [-600, -7, 0, 11, 400])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_every_cloud_reaches_qhull_at_one_power_of_two_scale(self, monkeypatch, p, k):
        seen = []
        qhull = geometry._QhullDelaunay
        monkeypatch.setattr(geometry, "_QhullDelaunay", lambda pts: seen.append(pts) or qhull(pts))
        for x in family_clouds(p):
            unit = delaunay_tessellation(x)
            seen.clear()
            scaled = np.ldexp(x, k)
            tess = delaunay_tessellation(scaled)
            assert 0.5 <= np.abs(seen[0]).max() < 1.0
            assert np.array_equal(seen[0], np.ldexp(scaled, -np.frexp(np.abs(scaled).max())[1]))
            assert np.array_equal(tess.simplices, unit.simplices)
            assert np.array_equal(tess.points, scaled)
            i, j = tess.edges.T
            assert np.array_equal(tess.lengths, np.sqrt(pairwise_sq_dists(scaled))[i, j])

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40 + 5])
    def test_a_failed_qhull_run_is_retried_on_the_seeded_jitter(self, monkeypatch, seed):
        seen = []
        qhull = geometry._QhullDelaunay

        def fail_once(pts):
            seen.append(pts)
            if len(seen) == 1:
                raise QhullError("QH6154 initial simplex is flat")
            return qhull(pts)

        monkeypatch.setattr(geometry, "_QhullDelaunay", fail_once)
        pts = np.random.default_rng(6).standard_normal((30, 3))
        tess = delaunay_tessellation(pts, jitter_seed=seed)
        # the largest |coordinate| is about 2.55, so Qhull sees the cloud times 1/4
        scaled = np.ldexp(pts, -2)
        rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(b"tessellation-jitter")])
        bbox_diagonal = float(np.linalg.norm(scaled.max(axis=0) - scaled.min(axis=0)))
        jittered = scaled + rng.uniform(-1.0, 1.0, pts.shape) * (1e-9 * bbox_diagonal)
        # a 1e-9 jitter rarely moves the simplices, so the retry's input is pinned too
        assert len(seen) == 2 and np.array_equal(seen[0], scaled) and np.array_equal(seen[1], jittered)
        simplices = np.sort(qhull(jittered).simplices, axis=1)
        assert np.array_equal(tess.simplices, simplices[np.lexsort(simplices.T[::-1])])
        assert np.array_equal(tess.points, pts)
        assert_simplex_edges_are_searched(tess)

    def test_a_cloud_qhull_rejects_even_jittered_is_degenerate(self, monkeypatch):
        def fail(pts):
            raise QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(geometry, "_QhullDelaunay", fail)
        with pytest.raises(DegeneracyError, match="even after jitter"):
            delaunay_tessellation(np.random.default_rng(6).standard_normal((30, 3)))

    def test_repeated_rows_take_the_jittered_retry(self, monkeypatch):
        # Qhull leaves all but one copy of a repeated row out of every simplex
        # (its ``coplanar``); on the seeded jitter the copies are apart
        seen = []
        qhull = geometry._QhullDelaunay

        def spy(pts):
            seen.append(qhull(pts))
            return seen[-1]

        monkeypatch.setattr(geometry, "_QhullDelaunay", spy)
        pts = np.random.default_rng(6).standard_normal((30, 3))[np.r_[0:30, 4, 17, 4]]
        tess = delaunay_tessellation(pts)
        assert [len(tri.coplanar) for tri in seen] == [3, 0]
        assert np.array_equal(np.unique(tess.simplices), np.arange(33))
        # the copies are 0 apart in the original coordinates
        assert tess.lengths.min() == 0.0
        assert_simplex_edges_are_searched(tess)

    def test_a_row_left_out_even_jittered_is_degenerate(self, monkeypatch):
        qhull = geometry._QhullDelaunay

        def leave_one_out(pts):
            tri = qhull(pts)
            tri.coplanar = np.array([[0, 0, 1]], dtype=np.intc)
            return tri

        monkeypatch.setattr(geometry, "_QhullDelaunay", leave_one_out)
        message = r"^tessellation failed even after jitter: 1 point\(s\) lie in no simplex, such as repeated rows$"
        with pytest.raises(DegeneracyError, match=message):
            delaunay_tessellation(np.random.default_rng(6).standard_normal((30, 3)))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValidationError):
            delaunay_tessellation([[0.0, 0.0], [1.0, 1.0]])

    def test_rejects_high_dimension(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError, match="pre-reduce"):
            delaunay_tessellation(rng.standard_normal((20, 7)))

    def test_rejects_rank_deficient_cloud(self):
        line = np.c_[np.linspace(0, 1, 10), np.zeros(10)]
        with pytest.raises(DegeneracyError):
            delaunay_tessellation(line)

    def test_every_edge_in_some_simplex(self):
        rng = np.random.default_rng(8)
        tess = delaunay_tessellation(rng.standard_normal((25, 3)))
        from_simplices = set()
        for s in tess.simplices:
            from_simplices.update(itertools.combinations(s.tolist(), 2))
        assert pair_set(tess.edges) == from_simplices

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_simplex_edges_are_the_searched_rows(self, p):
        clouds = family_clouds(p) + [np.random.default_rng(seed).standard_normal((40, p)) for seed in range(3)]
        if p == 2:
            clouds.append(generate(DatasetSpec("spiral", 400, seed=25)))
        for pts in clouds:
            assert_simplex_edges_are_searched(delaunay_tessellation(pts))

    def test_no_edge_flip_improves_the_minimum_angle(self):
        # 2D local optimality: flipping any interior edge of a convex quad
        # never increases the smaller of the two triangles' minimum angles
        def min_angle(tri, pts):
            best = np.inf
            for i in range(3):
                a, b, c = pts[tri[i]], pts[tri[(i + 1) % 3]], pts[tri[(i + 2) % 3]]
                u, v = b - a, c - a
                cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
                best = min(best, np.arccos(np.clip(cosang, -1.0, 1.0)))
            return best

        rng = np.random.default_rng(44)
        pts = rng.uniform(0, 1, (12, 2))
        tess = delaunay_tessellation(pts)
        owners: dict = {}
        for tri in tess.simplices:
            for e in itertools.combinations(tri, 2):
                owners.setdefault(e, []).append(tri)
        for (a, b), tris in owners.items():
            if len(tris) != 2:
                continue
            c = next(v for v in tris[0] if v not in (a, b))
            d = next(v for v in tris[1] if v not in (a, b))
            # the flip is only geometric when c and d straddle the edge a-b
            def side(p, q, r):
                u, v = pts[q] - pts[p], pts[r] - pts[p]
                return np.sign(u[0] * v[1] - u[1] * v[0])

            if side(a, b, c) == side(a, b, d) or side(c, d, a) == side(c, d, b):
                continue
            current = min(min_angle(tris[0], pts), min_angle(tris[1], pts))
            flipped = min(
                min_angle((c, d, a), pts), min_angle((c, d, b), pts)
            )
            assert current >= flipped - 1e-12


class TestMcst:
    def test_collinear_chain(self):
        pts = np.c_[np.arange(4.0), np.zeros(4)]
        candidates = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        tree = euclidean_mcst(pts, candidates)
        assert pair_set(tree.edges) == {(0, 1), (1, 2), (2, 3)}
        assert tree.total_length == pytest.approx(3.0)

    def test_three_four_five_triangle(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        tree = euclidean_mcst(pts, [(0, 1), (0, 2), (1, 2)])
        assert pair_set(tree.edges) == {(0, 1), (0, 2)}

    def test_exhaustive_minimum_small(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 1, (7, 2))
        candidates = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        tree = euclidean_mcst(pts, candidates)
        assert tree.total_length == pytest.approx(all_spanning_trees_min_length(pts), abs=1e-12)

    def test_matches_complete_graph_kruskal(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (12, 2))
        tess = delaunay_tessellation(pts)
        tree = euclidean_mcst(pts, tess.edges)
        assert tree.total_length == pytest.approx(kruskal_complete_graph(pts), abs=1e-12)

    def test_subset_of_delaunay_edges(self):
        rng = np.random.default_rng(30)
        for seed in range(5):
            pts = np.random.default_rng(seed).uniform(0, 1, (40, 2))
            tess = delaunay_tessellation(pts)
            tree = euclidean_mcst(pts, tess.edges)
            assert pair_set(tree.edges) <= pair_set(tess.edges)
        del rng

    def test_two_cluster_single_bridge(self):
        # small version of the statement checked at scale in the acceptance suite
        bridges = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(0.0, 1.0, (60, 2))
            b = rng.normal(0.0, 1.0, (60, 2))
            b[:, 0] += 12.0
            pts = np.vstack([a, b])
            tess = delaunay_tessellation(pts)
            tree = euclidean_mcst(pts, tess.edges)
            crossing = [e for e in tree.edges if (e[0] < 60) != (e[1] < 60)]
            bridges.append(len(crossing))
        assert bridges.count(1) >= 9

    def test_rejects_disconnected_candidates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        with pytest.raises(ValidationError):
            euclidean_mcst(pts, [(0, 1), (2, 3)])

    def test_all_ties_on_a_unit_grid(self):
        xs, ys = np.meshgrid(np.arange(7.0), np.arange(7.0))
        pts = np.c_[xs.ravel(), ys.ravel()]
        assert_kruskal_tree(pts, list(itertools.combinations(range(49), 2)))
        assert_kruskal_tree(pts, delaunay_tessellation(pts).edges)

    def test_repeated_and_self_pairs(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, (30, 2))
        edges = delaunay_tessellation(pts).edges
        noisy = np.vstack([edges, edges[::-1, ::-1], edges[:5], [[3, 3], [0, 0]]])
        noisy = noisy[rng.permutation(len(noisy))]
        assert_kruskal_tree(pts, noisy)
        clean = euclidean_mcst(pts, edges)
        assert np.array_equal(euclidean_mcst(pts, noisy).edges, clean.edges)

    def test_disconnected_candidates_raise_the_same_error(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        candidates = [(0, 1), (2, 3), (1, 1), (1, 0), (3, 3)]
        message = "^candidate edge set does not connect all points$"
        with pytest.raises(ValidationError, match=message):
            disjoint_set_kruskal(pts, candidates)
        with pytest.raises(ValidationError, match=message):
            euclidean_mcst(pts, candidates)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 25), st.integers(0, 80), st.integers(0, 2**32 - 1))
    def test_matches_the_disjoint_set_loop(self, n, m, seed):
        # integer coordinates: coincident points and many equal lengths
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, (n, 2)).astype(float)
        candidates = rng.integers(0, n, (m, 2))
        try:
            expected = disjoint_set_kruskal(pts, candidates)
        except ValidationError:
            with pytest.raises(ValidationError):
                euclidean_mcst(pts, candidates)
            return
        tree = euclidean_mcst(pts, candidates)
        assert np.array_equal(tree.edges, expected[0])
        assert tree.total_length == expected[1]
