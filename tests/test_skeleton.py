"""Boundary detection and skeletal marking against hull and Dijkstra oracles."""

import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from lsdr.errors import DegeneracyWarning
from lsdr.geometry import delaunay_tessellation, euclidean_mcst
from lsdr.graph import graph_distances, prune_edges
from lsdr.serialize import write_json
from lsdr.skeleton import (
    boundary_distances,
    detect_boundary,
    graph_neighbours,
    mark_skeleton,
    skeleton_report,
)

from test_graph import build_graph


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

    def test_simplex_free_graph_warns_all_boundary(self):
        g = build_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1), (1, 2)])
        with pytest.warns(DegeneracyWarning):
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
        per_source = graph_distances(g, boundary).dists.min(axis=0)
        assert np.array_equal(d_b, per_source)


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

    def test_strictly_deeper_point_is_skeletal(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (50, 2))
        g = tessellation_graph(pts, alpha=0.95)
        rep = skeleton_report(g, 3)
        nbrs = graph_neighbours(g, 3)
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
            nbrs = graph_neighbours(g, k)
            sizes.append(len(mark_skeleton(g, d_b, k)))
        # neighbour sets are nested by construction (same tie-break), so the
        # skeletal criterion only gets harder as k grows
        for k in (1, 2, 3, 5):
            smaller = graph_neighbours(g, k)
            larger = graph_neighbours(g, k + 1)
            assert all(set(s) <= set(l) for s, l in zip(smaller, larger))
        assert sizes == sorted(sizes, reverse=True)


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

    def test_all_boundary_degenerate_case_warns(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
        g = tessellation_graph(pts)
        with pytest.warns(DegeneracyWarning):
            rep = skeleton_report(g, 1)
        assert rep.boundary_points == [0, 1, 2]
        assert rep.skeletal_points == [0, 1, 2]
