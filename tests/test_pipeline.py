"""End-to-end pipeline behaviour: fidelity, determinism, degeneracies."""

import contextlib
import inspect
import io
import itertools
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsdr import pipeline
from lsdr.cli import build_parser
from lsdr.cli import main as cli_main
from lsdr.datasets import DatasetSpec, generate, spiral_with_angle
from lsdr.embedding import KernelSpec, metric_mds, nadaraya_embed
from lsdr.errors import DegeneracyError, DegeneracyWarning, LsdrError, ValidationError
from lsdr.graph import graph_distances
from lsdr.indices import procrustes_fit, tractable_consistency_index
from lsdr.numerics import pairwise_sq_dists
from lsdr.pipeline import (
    LsdrAdapter,
    LsdrConfig,
    _mean_distance,
    _principal_scores,
    _working_cloud,
    lsdr,
    transform_bandwidth,
)
from lsdr.serialize import read_point_cloud, write_point_cloud
from lsdr.skeleton import SkeletonReport

from test_graph import build_graph, is_connected


def spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return float(np.corrcoef(ra, rb)[0, 1])


class TestSpiralPipeline:
    def test_tracks_generating_angle(self):
        pts, theta = spiral_with_angle(DatasetSpec("spiral", 300, seed=18))
        res = lsdr(pts, LsdrConfig(d=1, seed=0))
        assert abs(spearman(res.embedding.coords[:, 0], theta)) >= 0.95

    def test_graph_artifact_is_connected(self):
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 200, seed=2))
        res = lsdr(pts, LsdrConfig(d=1, seed=0))
        assert is_connected(res.graph)

    def test_deterministic(self):
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 150, seed=9))
        cfg = LsdrConfig(d=1, seed=0)
        a = lsdr(pts, cfg).embedding.coords
        b = lsdr(pts, cfg).embedding.coords
        assert np.array_equal(a, b)

    def test_permutation_equivariance_up_to_similarity(self):
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 120, seed=6))
        cfg = LsdrConfig(d=1, seed=0)
        base = lsdr(pts, cfg).embedding.coords
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(pts))
        permuted = lsdr(pts[perm], cfg).embedding.coords
        fit = procrustes_fit(permuted, base[perm])
        assert fit.residual < 1e-6 * len(pts)

    def test_skeletal_geodesics_reproduce_the_all_pairs_run(self):
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 150, seed=4))
        res = lsdr(pts, LsdrConfig(d=1, seed=0))
        skeletal = res.skeleton.skeletal_points
        assert res.geodesics.sources == skeletal
        # stage 3 again, from the all-pairs matrix restricted to skeletal rows
        full = graph_distances(res.graph, range(res.graph.n))
        q = full.dists[np.ix_(skeletal, skeletal)]
        q = 0.5 * (q + q.T)
        np.fill_diagonal(q, 0.0)
        # the result keeps that block, the matrix MDS read, and no n-wide row
        assert np.array_equal(res.geodesics.dists, q)
        work = res.working_points
        sigma = pipeline._bandwidth(pipeline._Stages(graph=res.graph, skeleton=res.skeleton), work)
        coords = nadaraya_embed(
            metric_mds(q, 1), work[skeletal], work, KernelSpec("gaussian", sigma)
        )
        assert sigma == res.embedding.params["bandwidth"]
        assert np.array_equal(coords, res.embedding.coords)


class TestThreeClusterPipeline:
    def test_cluster_order_and_gap_ordering(self):
        spec = DatasetSpec(
            "gaussian_clusters", 150, p=2, seed=5, params={"clusters": 3, "gaps": [15.0, 30.0]}
        )
        x = generate(spec)
        labels = np.repeat([0, 1, 2], 50)
        res = lsdr(x, LsdrConfig(d=1, seed=0))
        y = res.embedding.coords[:, 0]
        means = [y[labels == c].mean() for c in range(3)]
        assert means[0] < means[1] < means[2] or means[0] > means[1] > means[2]
        assert abs(means[2] - means[1]) > abs(means[1] - means[0])


class TestTwoLinearClusters:
    def test_clusters_map_to_disjoint_intervals_unlike_pca(self):
        # the information sits along the low-variance direction: a variance
        # maximizing projection mixes the two lines, the graph pipeline keeps
        # them apart
        from lsdr.indices import pca_reduce

        x = generate(DatasetSpec("two_linear_clusters", 200, seed=7))
        labels = np.array([0] * 100 + [1] * 100)
        y = lsdr(x, LsdrConfig(d=1, seed=0)).embedding.coords[:, 0]
        a, b = y[labels == 0], y[labels == 1]
        assert a.max() < b.min() or b.max() < a.min()
        p = pca_reduce(x, 1).coords[:, 0]
        pa, pb = p[labels == 0], p[labels == 1]
        assert not (pa.max() < pb.min() or pb.max() < pa.min())


def _shape_cloud(shape: str) -> np.ndarray:
    """A small cloud on which the pipeline falls back, by name."""
    if shape == "triangle":
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    if shape == "squashed octagon":
        t = np.arange(8) * np.pi / 4
        return np.c_[np.cos(t), 0.9 * np.sin(t)]
    if shape == "collinear line":
        t = np.linspace(0.0, 1.0, 20)
        return np.c_[3.0 * t, 4.0 * t]
    if shape == "3x3 grid":
        return np.array(list(itertools.product(range(3), repeat=2)), dtype=float)
    g = np.random.default_rng(1).standard_normal((6, 4))  # cospherical in R^4
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class TestDegenerateInputs:
    def test_noise_free_line_falls_back_to_metric_mds(self):
        t = np.linspace(0.0, 7.0, 50)
        pts = np.c_[3.0 * t, 4.0 * t]
        with pytest.warns(DegeneracyWarning):
            res = lsdr(pts, LsdrConfig(d=1, seed=0))
        assert res.degenerate_fallback
        assert res.skeleton is None and res.graph is None
        positions = np.c_[5.0 * t]
        fit = procrustes_fit(res.embedding.coords, positions)
        assert fit.residual < 1e-8 * 50

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_rank_one_cloud_is_its_principal_component_without_metric_mds(self, d, monkeypatch):
        def refuse(q, d):
            raise AssertionError("metric MDS ran on a rank-one cloud")

        monkeypatch.setattr(pipeline, "metric_mds", refuse)
        t = np.random.default_rng(6).uniform(-5.0, 5.0, 200)
        x = np.outer(t, [1.0, -2.0, 2.0]) + 3.0  # a unit-speed direction times 3
        with pytest.warns(DegeneracyWarning, match="one-dimensional manifold"):
            res = lsdr(x, LsdrConfig(d=d, seed=0))
        coords = res.embedding.coords
        assert coords.shape == (200, d)
        # the working cloud's column, its largest-magnitude entry positive
        column = res.working_points[:, 0]
        peak = np.argmax(np.abs(column))
        assert np.array_equal(coords[:, 0], column if column[peak] > 0.0 else -column)
        assert coords[peak, 0] > 0.0
        exact = 3.0 * (t - t.mean())
        exact = exact if exact[peak] > 0.0 else -exact
        assert np.abs(coords[:, 0] - exact).max() <= 1e-14 * np.abs(exact).max()
        assert np.array_equal(coords[:, 1:], np.zeros((200, d - 1)))
        with pytest.warns(DegeneracyWarning, match="one-dimensional manifold"):
            coincident = lsdr(np.ones((10, 3)), LsdrConfig(d=d, seed=0)).embedding.coords
        assert np.array_equal(coincident, np.zeros((10, d)))

    def test_repeated_rows_reduce_with_no_fallback(self):
        # without the tessellation's retry these copies make the spanning tree fail
        rows = np.r_[0:300, 3, 50, 100, 150, 299]
        x = generate(DatasetSpec("swiss_roll", 300, seed=0))[rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneracyWarning)
            res = lsdr(x, LsdrConfig(d=2, seed=0))
        assert not res.degenerate_fallback and "fallback" not in res.embedding.params
        coords = res.embedding.coords
        assert np.array_equal(coords[300:], coords[[3, 50, 100, 150, 299]])

    def test_embedding_params_record_the_fallback(self):
        t = np.linspace(0.0, 1.0, 20)
        pts = np.c_[t, np.zeros(20)]
        with pytest.warns(DegeneracyWarning):
            res = lsdr(pts, LsdrConfig(d=1, seed=0))
        assert "fallback" in res.embedding.params

    def test_a_degenerate_tessellation_falls_back_to_metric_mds_of_the_distances(self, tmp_path, monkeypatch):
        # Qhull's messages run over several lines
        message = "QH6154 initial simplex is flat\nWhile executing: | qhull d Qbb Qt Q12 Qc Qz"

        def refuse(points, jitter_seed=0):
            raise DegeneracyError(message)

        monkeypatch.setattr(pipeline, "delaunay_tessellation", refuse)
        x = generate(DatasetSpec("swiss_roll", 60, seed=2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = lsdr(x, LsdrConfig(d=2, seed=0))
        assert [w.category for w in caught] == [DegeneracyWarning]
        reason = f"tessellation degenerate ({message})"
        assert str(caught[0].message) == f"{reason}; falling back to metric MDS on all points"
        assert res.degenerate_fallback and res.graph is None and res.skeleton is None
        assert res.embedding.params["fallback"] == reason
        assert np.array_equal(res.embedding.coords, metric_mds(np.sqrt(pairwise_sq_dists(x)), 2))
        assert transform_bandwidth(x) == _mean_distance(x)
        path, out = tmp_path / "x.csv", tmp_path / "emb.csv"
        write_point_cloud(path, x)
        with pytest.warns(DegeneracyWarning):
            code = cli_main(["reduce", str(path), "--d", "2", "--strict", "--dump-graph", "--out", str(out)])
        assert code == 5
        assert not (tmp_path / "emb_graph.txt").exists() and not (tmp_path / "emb_skeleton.json").exists()
        # the reason stays on the CSV's one comment line
        assert json.loads(out.read_text().splitlines()[0][2:])["fallback"] == reason
        assert np.array_equal(read_point_cloud(out), res.embedding.coords)

    def test_noise_free_plane_is_trimmed_and_processed(self):
        # rank-2 cloud in 3-space: exact reduction to the plane, then the
        # normal pipeline runs there instead of falling back
        rng = np.random.default_rng(1)
        uv = rng.uniform(0, 1, (120, 2))
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        res = lsdr(uv @ basis, LsdrConfig(d=1, seed=0))
        assert not res.degenerate_fallback
        assert res.pre_reduced
        assert res.working_points.shape[1] == 2
        assert res.skeleton is not None

    @pytest.mark.parametrize("shape", ["triangle", "squashed octagon"])
    def test_all_boundary_cloud_falls_back_to_mds_on_the_full_geodesics(self, shape):
        pts = _shape_cloud(shape)
        n = len(pts)
        with pytest.warns(DegeneracyWarning, match="all points on the boundary"):
            res = lsdr(pts, LsdrConfig(d=1, seed=0))
        assert res.degenerate_fallback
        assert res.embedding.params["fallback"] == "all points on the boundary"
        assert res.geodesics.sources == list(range(n))
        q = graph_distances(res.graph, range(n)).dists
        q = 0.5 * (q + q.T)
        np.fill_diagonal(q, 0.0)
        assert np.array_equal(res.geodesics.dists, q)
        assert np.array_equal(res.embedding.coords, metric_mds(q, 1))
        # like every other fallback, the bandwidth is the mean pairwise distance
        assert res.embedding.params.get("bandwidth") is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            sigma = transform_bandwidth(pts, seed=0)
        assert sigma == float(np.sqrt(pairwise_sq_dists(pts)).mean())

    @pytest.mark.parametrize(
        "shape", ["triangle", "squashed octagon", "collinear line", "3x3 grid", "cospherical in R^4"]
    )
    def test_a_fallback_warns_once(self, shape):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = lsdr(_shape_cloud(shape), LsdrConfig(d=1, seed=0))
        assert res.degenerate_fallback
        raised = [str(w.message) for w in caught if issubclass(w.category, DegeneracyWarning)]
        # an all-boundary cloud is embedded from its geodesics, every other one from its distances
        of = " of the geodesic distances" if shape in ("triangle", "squashed octagon") else ""
        assert raised == [f"{res.embedding.params['fallback']}; falling back to metric MDS{of} on all points"]

    @pytest.mark.parametrize(
        "shape, reason",
        [("3x3 grid", "only 1 skeletal point(s)"), ("cospherical in R^4", "no boundary point")],
    )
    def test_cloud_without_a_skeleton_falls_back_at_every_entry_point(self, shape, reason):
        pts = _shape_cloud(shape)
        with pytest.warns(DegeneracyWarning, match="falling back to metric MDS on all points"):
            res = lsdr(pts, LsdrConfig(d=1, seed=0))
        assert res.degenerate_fallback and res.embedding.params.get("bandwidth") is None
        assert res.embedding.params["fallback"].startswith(reason)
        dist = np.sqrt(pairwise_sq_dists(pts))
        assert np.array_equal(res.embedding.coords, metric_mds(dist, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            sigma = transform_bandwidth(pts, seed=0)
            code, emb_bytes, err = _reduce_cli(pts, 1)
        assert sigma == float(dist.mean())
        assert code == 5 and err.startswith("ERROR degeneracy")
        meta = json.loads(emb_bytes.decode().splitlines()[0][2:])
        assert meta["fallback"] == res.embedding.params["fallback"]

    def test_skeleton_of_at_most_d_points_falls_back_at_every_entry_point(self):
        # two skeletal points: a skeleton at d = 1, too few for d = 3
        rng = np.random.default_rng(4)
        rng.integers(2, 5), rng.integers(7, 14), rng.integers(2, 4)  # p = 4, n = 13, d = 3
        x = rng.normal(size=(13, 4))
        with pytest.warns(DegeneracyWarning, match="falling back to metric MDS on all points"):
            res = lsdr(x, LsdrConfig(d=3, seed=0))
        assert res.degenerate_fallback and res.embedding.params.get("bandwidth") is None
        assert res.embedding.params["fallback"] == "only 2 skeletal point(s)"
        assert np.array_equal(res.embedding.coords, metric_mds(np.sqrt(pairwise_sq_dists(x)), 3))
        one = lsdr(x, LsdrConfig(d=1, seed=0))
        assert not one.degenerate_fallback and len(one.skeleton.skeletal_points) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            sigma = transform_bandwidth(x, seed=0)
            code, emb_bytes, err = _reduce_cli(x, 3)
            tci = tractable_consistency_index(
                LsdrAdapter(seed=0), x, 3, KernelSpec("gaussian", sigma), transform_subsample=8
            )
        assert sigma == one.embedding.params["bandwidth"]
        assert code == 5 and err.startswith("ERROR degeneracy")
        meta = json.loads(emb_bytes.decode().splitlines()[0][2:])
        assert meta["fallback"] == "only 2 skeletal point(s)"
        assert tci.failed_transforms == []

    def test_a_tiny_cloud_tessellates_and_falls_back_on_its_empty_skeleton(self):
        # Qhull tessellates the cloud at its own scale, but every squared edge
        # length underflows to 0, so no point is skeletal
        x = np.ldexp(generate(DatasetSpec("spiral", 600, seed=3)), -600)
        message = r"^only 0 skeletal point\(s\); falling back to metric MDS on all points$"
        with pytest.warns(DegeneracyWarning, match=message):
            res = lsdr(x, LsdrConfig(d=1, seed=0))
        assert res.degenerate_fallback and res.graph is not None
        assert res.embedding.params["fallback"] == "only 0 skeletal point(s)"
        assert np.array_equal(res.embedding.coords, np.zeros((600, 1)))

    def test_dimension_cap_triggers_approximate_pre_reduction(self):
        spec = DatasetSpec(
            "gaussian_clusters", 60, p=10, seed=2, params={"clusters": 2, "separation": 10.0}
        )
        x = generate(spec)
        with pytest.warns(DegeneracyWarning, match="exceeds the tessellation cap"):
            res = lsdr(x, LsdrConfig(d=1, seed=0))
        assert res.pre_reduced
        assert res.working_points.shape == (60, 6)
        # the cap keeps the first six principal components, bit for bit
        assert np.array_equal(res.working_points, _principal_scores(x)[0][:, :6])
        assert np.all(np.isfinite(res.embedding.coords))

    def test_rejects_d_not_below_p(self):
        x = np.random.default_rng(0).standard_normal((30, 2))
        with pytest.raises(ValidationError):
            lsdr(x, LsdrConfig(d=2, seed=0))


class TestPreReduce:
    def test_triangle_side_lengths_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 10))
        reduced = _principal_scores(x)[0]
        assert reduced.shape[1] <= 2
        orig = np.sqrt(pairwise_sq_dists(x))
        new = np.sqrt(pairwise_sq_dists(reduced))
        assert np.abs(orig - new).max() < 1e-8

    def test_collinear_triple_lands_in_one_dimension(self):
        x = np.outer([0.0, 1.0, 2.0], np.ones(10))
        reduced = _principal_scores(x)[0]
        assert reduced.shape[1] == 1

    def test_five_points_in_fifty_dimensions(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 50))
        reduced = _principal_scores(x)[0]
        assert reduced.shape[1] <= 4
        orig = np.sqrt(pairwise_sq_dists(x))
        new = np.sqrt(pairwise_sq_dists(reduced))
        scale = orig[np.triu_indices(5, 1)]
        rel = np.abs(orig - new)[np.triu_indices(5, 1)] / scale
        assert rel.max() < 1e-6

    def test_low_dimensional_input_is_a_rigid_motion(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 2))
        reduced = _principal_scores(x)[0]
        assert reduced.shape == (20, 2)
        fit = procrustes_fit(x, reduced)
        assert fit.residual < 1e-12 * 20
        assert fit.scale == pytest.approx(1.0, abs=1e-9)

    def test_pipeline_pre_reduces_when_n_below_p(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 50))
        with pytest.warns(DegeneracyWarning):
            res = lsdr(x, LsdrConfig(d=1, seed=0))
        assert res.pre_reduced
        assert np.all(np.isfinite(res.embedding.coords))


class TestBandwidthRule:
    """``_bandwidth`` without a fallback: the largest sqrt(depth^2 + nearest^2)
    over the skeletal points, nearest the graph distance to the nearest other
    skeletal point."""

    @staticmethod
    def _bandwidth(points, edges, d_b, skeletal):
        graph = build_graph(points, edges)
        report = SkeletonReport(
            boundary_points=[0],
            boundary_distance=np.asarray(d_b, dtype=float),
            skeletal_points=skeletal,
            k_neighbours=3,
        )
        return pipeline._bandwidth(pipeline._Stages(graph=graph, skeleton=report), graph.points)

    def test_two_skeletal_points(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]
        assert self._bandwidth(pts, [(0, 1), (1, 2)], [0.0, 0.0, 0.0], [1, 2]) == pytest.approx(2.0)

    def test_unit_spaced_path_with_unit_depth(self):
        n = 4
        pts = np.c_[np.arange(n, dtype=float), np.zeros(n)]
        path = [(i, i + 1) for i in range(n - 1)]
        assert self._bandwidth(pts, path, np.ones(n), list(range(n))) == pytest.approx(np.sqrt(2.0))

    def test_squares_by_multiplication(self):
        # x * x is the correctly rounded square; libm's pow (x ** 2) is one
        # ulp low, and this bandwidth would be one ulp low with it
        x = 3.276049552513906
        pts = [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]
        assert self._bandwidth(pts, [(0, 1), (1, 2)], [0.0, x, 0.5], [1, 2]) == 3.8382939791692046

    def test_matches_direct_re_evaluation_on_spiral(self):
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 200, seed=4))
        res = lsdr(pts, LsdrConfig(d=1))
        rep = res.skeleton
        geo = graph_distances(res.graph, range(res.graph.n))
        sigma = res.embedding.params["bandwidth"]
        best = 0.0
        for i in rep.skeletal_points:
            nearest = min(
                geo.dists[i, j] for j in rep.skeletal_points if j != i
            )
            depth = rep.boundary_distance[i]
            best = max(best, np.sqrt(depth * depth + nearest * nearest))
        assert sigma == pytest.approx(best, rel=1e-12)
        assert transform_bandwidth(pts) == sigma


class TestAdapters:
    def test_every_entry_point_takes_its_defaults_from_lsdr_config(self):
        defaults = {"alpha": LsdrConfig.alpha, "k": LsdrConfig.k}
        assert defaults == {"alpha": 0.95, "k": 3}
        for fn in (transform_bandwidth, LsdrAdapter):
            params = inspect.signature(fn).parameters
            assert {name: params[name].default for name in defaults} == defaults
        adapter = LsdrAdapter()
        assert (adapter.alpha, adapter.k) == (LsdrConfig.alpha, LsdrConfig.k)
        parser = build_parser()
        for command in (["reduce", "x.csv", "--d", "1"], ["index", "x.csv"]):
            args = vars(parser.parse_args(command))
            assert {name: args[name] for name in defaults} == defaults

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.inf, np.nan])
    def test_the_config_refuses_a_bandwidth_with_the_kernels_message(self, bandwidth):
        with pytest.raises(ValidationError) as kernel:
            KernelSpec("gaussian", bandwidth)
        with pytest.raises(ValidationError) as config:
            LsdrConfig(d=1, bandwidth=bandwidth)
        assert str(config.value) == str(kernel.value)

    def test_lsdr_adapter_matches_pipeline(self):
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 100, seed=1))
        adapter = LsdrAdapter(seed=0)
        emb = adapter.reduce(1, pts)
        direct = lsdr(pts, LsdrConfig(d=1, seed=0)).embedding
        assert np.array_equal(emb.coords, direct.coords)

    def test_transform_bandwidth_positive_and_deterministic(self):
        # equal, bit for bit, to the bandwidth lsdr picks at the same
        # parameters: on a plane (affine-rank trim), on the acceptance
        # clusters (dimension cap), on a spiral at non-default parameters and
        # on a trefoil where the row minima of the skeletal geodesic block
        # give a bandwidth one ulp away from the boundary-edge minimum
        uv = np.random.default_rng(1).uniform(0, 1, (120, 2))
        plane = uv @ np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        clusters = generate(
            DatasetSpec(
                "gaussian_clusters", 100, p=10, seed=3, params={"clusters": 3, "separation": 10.0}
            )
        )
        pts, _ = spiral_with_angle(DatasetSpec("spiral", 100, seed=1))
        trefoil = generate(DatasetSpec("trefoil_knot", 600, seed=0))
        cases = [
            (plane, 0.95, 3, 0),
            (clusters, 0.95, 3, 0),
            (pts, 0.95, 3, 0),
            (pts, 0.9, 4, 2),
            (trefoil, 0.95, 3, 0),
        ]
        for x, alpha, k, seed in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegeneracyWarning)
                a = transform_bandwidth(x, alpha, k, seed)
                b = transform_bandwidth(x, alpha, k, seed)
                res = lsdr(x, LsdrConfig(d=1, alpha=alpha, k=k, seed=seed))
            assert a == b > 0.0
            assert a == res.embedding.params["bandwidth"]

    def test_fallback_mean_distance_needs_no_n_by_n_matrix(self):
        # one column has no tessellation: the bandwidth is the mean pairwise
        # distance, summed over row blocks
        x = np.random.default_rng(0).uniform(0.0, 5.0, (3000, 1))
        tracemalloc.start()
        try:
            sigma = transform_bandwidth(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        full = np.sqrt(pairwise_sq_dists(x)).mean()
        assert abs(sigma - full) <= len(x) * np.finfo(float).eps * full


def _degenerate_cloud(kind: str, p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        t = rng.integers(-5, 6, rng.integers(p + 1, 12)).astype(float)
        return np.outer(t, rng.standard_normal(p)) + rng.standard_normal(p)
    if kind == "cospherical":
        g = rng.standard_normal((rng.integers(p + 1, 12), p))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if kind == "grid":
        return np.array(list(itertools.product(range(3 if p < 4 else 2), repeat=p)), dtype=float)
    if kind == "duplicated":
        # one to p + 3 distinct rows, repeated at random
        base = rng.standard_normal((rng.integers(1, p + 4), p))
        return base[rng.integers(0, len(base), p + 5)]
    return rng.standard_normal((p + 1, p))  # n = p + 1


def _outcome(call):
    try:
        return call()
    except LsdrError as exc:
        return ("error", type(exc).__name__, str(exc))


def _reduce_cli(x: np.ndarray, d: int):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "x.csv", Path(tmp) / "emb.csv"
        write_point_cloud(data, x)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["reduce", str(data), "--d", str(d), "--strict", "--out", str(out)])
        return code, out.read_bytes() if out.exists() else None, err.getvalue()


def _entry_points(x: np.ndarray, d: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = _outcome(lambda: lsdr(x, LsdrConfig(d=d, seed=0)))
        sigma = _outcome(lambda: transform_bandwidth(x, seed=0))
        cli = _reduce_cli(x, d)
    if not isinstance(res, tuple):
        res = (
            res.embedding.coords.shape,
            res.embedding.coords.tobytes(),
            res.degenerate_fallback,
            res.embedding.params.get("fallback"),
            res.embedding.params.get("bandwidth"),
        )
    return res, sigma, cli


class TestEntryPointsOnDegenerateInput:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["collinear", "cospherical", "grid", "duplicated", "n = p + 1"]),
        st.integers(2, 4),
        st.integers(0, 10_000),
        st.booleans(),
    )
    def test_fallback_or_typed_error_and_identical_bytes(self, kind, p, seed, widest):
        x = _degenerate_cloud(kind, p, seed)
        d = p - 1 if widest else 1
        first = _entry_points(x, d)
        assert _entry_points(x, d) == first
        res, sigma, (code, emb_bytes, err) = first
        if res[0] == "error":
            assert code in (2, 4)
            assert err.startswith("ERROR ") and err.count("\n") == 1
            return
        shape, _, fell_back, reason, bandwidth = res
        assert shape == (len(x), d)
        meta = json.loads(emb_bytes.decode().splitlines()[0][2:])
        if fell_back:
            assert reason and bandwidth is None
            assert code == 5 and meta["fallback"] == reason
            # transform_bandwidth runs the stages at d = 1, and only the
            # skeleton's size makes a fallback that depends on d
            if d == 1 or not reason.startswith("only"):
                assert sigma == _mean_distance(_working_cloud(x)[0])
        else:
            assert reason is None and code == 0 and "fallback" not in meta
            assert sigma == bandwidth
