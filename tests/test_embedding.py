"""Metric MDS, kernel embedding, out-of-sample and reconstruction models."""

import ast
import inspect
import warnings

import numpy as np
import pytest

from lsdr.datasets import DatasetSpec, generate, spiral_with_angle
from lsdr import embedding, numerics
from lsdr.embedding import (
    KernelSpec,
    classical_scaling,
    distinct_rows,
    embed_out_of_sample,
    fit_out_of_sample,
    fit_reconstruction,
    kernel_matrix,
    metric_mds,
    nadaraya_embed,
    reconstruct,
)
from lsdr.errors import ValidationError
from lsdr.indices import pca_reduce, procrustes_fit
from lsdr.numerics import pairwise_sq_dists


def euclidean_distances(x):
    return np.sqrt(pairwise_sq_dists(x))


def stress(q, y):
    """The sum MDS stops on: half of each row's squared distance mismatches,
    summed over the rows, so each pair counts once from each end."""
    return float(np.sqrt(np.sum(0.5 * ((q - euclidean_distances(y)) ** 2).sum(axis=1))))


def whole_array_smacof(q, d):
    """Metric MDS over whole s x s arrays: the iterates and the stress trace."""
    n = len(q)

    def guttman(y):
        dist = euclidean_distances(y)
        b = np.zeros_like(q)
        np.divide(q, dist, out=b, where=dist > 0.0)
        b = -b
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        return b

    y = classical_scaling(q, d)
    trace = [stress(q, y)]
    for _ in range(500):
        if trace[-1] <= 1e-14 * q.max():
            break
        y_next = (guttman(y) @ y) / n
        trace.append(stress(q, y_next))
        y = y_next
        if trace[-2] > 0.0 and (trace[-2] - trace[-1]) / trace[-2] < 1e-9:
            break
    return y, trace


def swiss_roll(n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    h = rng.uniform(0.0, 10.0, n)
    pts = np.c_[t * np.cos(t), h, t * np.sin(t)]
    return pts + rng.normal(0.0, noise, pts.shape), np.c_[t, h]


class TestMetricMds:
    def test_collinear_points_recover_gaps(self):
        q = euclidean_distances(np.array([[0.0], [1.0], [2.0]]))
        y = metric_mds(q, 1)[:, 0]
        diffs = np.abs(np.diff(np.sort(y)))
        assert np.allclose(diffs, [1.0, 1.0], atol=1e-9)

    def test_euclidean_input_recovered_up_to_similarity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((25, 2))
        y = metric_mds(euclidean_distances(x), 2)
        assert procrustes_fit(x, y).residual < 1e-8 * 25

    def test_unit_square_side_and_diagonal_lengths(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        y = metric_mds(euclidean_distances(corners), 2)
        d = euclidean_distances(y)
        assert d[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert d[1, 2] == pytest.approx(1.0, abs=1e-6)
        assert d[2, 3] == pytest.approx(1.0, abs=1e-6)
        assert d[3, 0] == pytest.approx(1.0, abs=1e-6)
        assert d[0, 2] == pytest.approx(np.sqrt(2.0), abs=1e-6)
        assert d[1, 3] == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_stress_never_increases(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 5))
        q = euclidean_distances(x)
        trace: list = []
        metric_mds(q, 2, stress_trace=trace)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)

    def test_uniform_scaling_scales_output(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 3))
        c = 2.5
        y1 = metric_mds(euclidean_distances(x), 2)
        y2 = metric_mds(euclidean_distances(c * x), 2)
        fit = procrustes_fit(y2, y1)
        assert fit.residual < 1e-6 * 20
        assert fit.scale == pytest.approx(c, abs=1e-6)

    def test_classical_scaling_clamps_negative_eigenvalues(self):
        # graph-like non-Euclidean distances still give a finite start
        q = np.array(
            [
                [0.0, 1.0, 2.0, 1.0],
                [1.0, 0.0, 1.0, 2.0],
                [2.0, 1.0, 0.0, 1.0],
                [1.0, 2.0, 1.0, 0.0],
            ]
        )
        y = classical_scaling(q, 3)
        assert np.all(np.isfinite(y))

    def test_trace_ends_at_the_stress_of_the_result(self):
        rng = np.random.default_rng(11)
        q = euclidean_distances(rng.standard_normal((30, 5)))
        trace: list = []
        y = metric_mds(q, 2, stress_trace=trace)
        assert len(trace) > 1
        assert trace[-1] == stress(q, y)
        total = 0.0
        for i in range(30):
            for j in range(i + 1, 30):
                total += (q[i, j] - np.linalg.norm(y[i] - y[j])) ** 2
        assert trace[-1] == pytest.approx(np.sqrt(total), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_row_blocks_give_the_whole_array_iteration(self, d, monkeypatch):
        # s = 700 makes two row blocks of the Guttman matrix
        x, _ = swiss_roll(700, 5, noise=0.5)
        q = euclidean_distances(x)
        assert len(list(numerics._row_blocks(700, 700))) == 2
        trace: list = []
        y = metric_mds(q, d, stress_trace=trace)
        expected_y, expected_trace = whole_array_smacof(q, d)
        assert len(trace) > 2
        assert np.array_equal(y, expected_y)
        assert trace == expected_trace
        # the stress does not depend on the block size
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 7 * 700)
        small: list = []
        assert np.array_equal(metric_mds(q, d, stress_trace=small), y)
        assert small == trace

    def test_rejects_asymmetric_input(self):
        q = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            metric_mds(q, 1)

    @pytest.mark.parametrize("e", [-40, 0, 40])
    def test_symmetry_is_checked_relative_to_the_largest_distance(self, e):
        q = np.ldexp(euclidean_distances(np.random.default_rng(2).standard_normal((6, 2))), e)
        metric_mds(q, 1)
        q[0, 1] += 1e-6 * q.max()
        with pytest.raises(ValidationError, match="^distance matrix is not symmetric$"):
            metric_mds(q, 1)

    def test_rejects_negative_distances(self):
        q = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            metric_mds(q, 1)


class TestKernelMatrix:
    def test_gaussian_self_kernel_is_exact_far_from_the_origin(self):
        x = np.random.default_rng(4).standard_normal((20, 3)) + 1000.0
        k = kernel_matrix(KernelSpec("gaussian", 0.5), x, x)
        assert np.all(np.diag(k) == 1.0)
        assert np.array_equal(k, k.T)

    def test_bandwidths_past_the_float_range_take_the_gaussians_limits(self):
        # coincident points, as in a training set with duplicates
        x = np.random.default_rng(4).standard_normal((6, 2))[[0, 1, 2, 2, 3, 4, 5, 0]]
        coincident = pairwise_sq_dists(x) == 0.0
        # 2 sigma^2 overflows: every weight is 1
        for sigma in (1e200, 1.2e154, np.finfo(float).max):
            assert np.array_equal(kernel_matrix(KernelSpec("gaussian", sigma), x, x), np.ones((8, 8)))
        # 2 sigma^2 underflows to 0: 1 exactly where the distance is 0, never NaN
        for sigma in (1e-300, 5e-324):
            k = kernel_matrix(KernelSpec("gaussian", sigma), x, x)
            assert np.array_equal(k, coincident.astype(float))

    def test_two_sigma_squared_squares_by_multiplication(self):
        # x * x is 10.732500670526566, the correctly rounded square; libm's
        # pow (x ** 2) gives 10.732500670526564 on glibc 2.36
        x = 3.276049552513906
        # the squared distance is that same product, so the exponent is -1/2
        assert kernel_matrix(KernelSpec("gaussian", x), [[0.0]], [[x]])[0, 0] == np.exp(-0.5)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-3, 0.5, 7.0, 1e150, 9e153])
    def test_bandwidths_whose_two_sigma_squared_is_a_float_keep_their_bits(self, sigma):
        x = np.random.default_rng(9).standard_normal((7, 3)) * sigma
        expected = np.exp(pairwise_sq_dists(x) / -(2.0 * (sigma * sigma)))
        assert np.array_equal(kernel_matrix(KernelSpec("gaussian", sigma), x, x), expected)

    @pytest.mark.parametrize(
        "family, bandwidth",
        [("linear", 1.0), ("bregman-indicator", 1.0), ("gaussian", None), ("gaussian", 0.0), ("gaussian", np.inf)],
    )
    def test_spec_accepts_only_a_gaussian_with_a_positive_finite_bandwidth(self, family, bandwidth):
        with pytest.raises(ValidationError):
            KernelSpec(family, bandwidth)


class TestStress:
    def test_perfect_embedding_is_zero(self):
        x = np.random.default_rng(0).standard_normal((8, 2))
        assert stress(euclidean_distances(x), x) == pytest.approx(0.0, abs=1e-12)

    def test_unit_pair_against_zero_targets(self):
        q = np.zeros((2, 2))
        y = np.array([[0.0], [1.0]])
        assert stress(q, y) == pytest.approx(1.0)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 2))
        q = euclidean_distances(rng.standard_normal((6, 2)))
        total = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                total += (q[i, j] - np.linalg.norm(x[i] - x[j])) ** 2
        assert stress(q, x) == pytest.approx(np.sqrt(total), rel=1e-12)


class TestNadarayaEmbed:
    def test_single_skeletal_point_gives_constant_map(self):
        out = nadaraya_embed(
            [[5.0]], [[0.0, 0.0]], [[1.0, 1.0], [2.0, 0.5], [0.0, 0.0]],
            KernelSpec("gaussian", 1.0),
        )
        assert np.allclose(out, 5.0)

    def test_midpoint_of_two_skeletal_points(self):
        out = nadaraya_embed(
            [[-1.0], [1.0]],
            [[0.0, 0.0], [2.0, 0.0]],
            [[1.0, 0.0]],
            KernelSpec("gaussian", 0.7),
        )
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_spiral_output_tracks_generating_angle(self):
        spec = DatasetSpec("spiral", 300, seed=18)
        pts, theta = spiral_with_angle(spec)
        from lsdr.pipeline import LsdrConfig, lsdr

        res = lsdr(pts, LsdrConfig(d=1, seed=0))
        y = res.embedding.coords[:, 0]
        ra = np.argsort(np.argsort(y))
        rb = np.argsort(np.argsort(theta))
        rho = np.corrcoef(ra, rb)[0, 1]
        assert abs(rho) >= 0.95

    def test_underflow_falls_back_to_nearest_skeletal(self):
        with pytest.warns(UserWarning, match="underflowed"):
            out = nadaraya_embed(
                [[-1.0], [1.0]],
                [[0.0, 0.0], [10.0, 0.0]],
                [[2000.0, 0.0]],
                KernelSpec("gaussian", 0.5),
            )
        assert out[0, 0] == 1.0  # nearest skeletal point is the second one


class TestOutOfSample:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((15, 3))
        y = rng.standard_normal((15, 2))
        sigma = float(np.median(euclidean_distances(x)))
        model = fit_out_of_sample(x, y, KernelSpec("gaussian", sigma))
        back = embed_out_of_sample(model, x)
        assert np.linalg.norm(back - y) < 1e-5 * np.linalg.norm(y)

    def test_single_training_point_scales_by_kernel_ratio(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[3.0]])
        model = fit_out_of_sample(x, y, KernelSpec("gaussian", 1.0))
        q = np.array([[1.0, 0.0]])
        expected = 3.0 * np.exp(-0.5) / (1.0 + model.ridge)
        assert embed_out_of_sample(model, q)[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_matches_independent_dense_solve(self):
        # well-conditioned bandwidth so the ridge is negligible against the
        # exact-inverse oracle
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 2))
        sigma = 0.8
        model = fit_out_of_sample(x, y, KernelSpec("gaussian", sigma))
        query = 0.5 * (x[0] + x[1])
        # oracle: evaluate y_j^T K^{-1} K(q) with an explicit inverse
        k = np.exp(-pairwise_sq_dists(x) / (2 * (sigma * sigma)))
        kq = np.exp(-np.sum((x - query) ** 2, axis=1) / (2 * (sigma * sigma)))
        oracle = y.T @ np.linalg.inv(k) @ kq
        got = embed_out_of_sample(model, query.reshape(1, -1))[0]
        assert np.allclose(got, oracle, atol=1e-5 * max(1.0, np.abs(oracle).max()))

    def test_duplicates_dropped_with_warning(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0], [2.0], [9.0]])
        with pytest.warns(UserWarning, match="duplicate"):
            model = fit_out_of_sample(x, y, KernelSpec("gaussian", 1.0))
        assert model.train_points.shape[0] == 2

    def test_kernel_system_residual_within_ridge_tolerance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 2))
        model = fit_out_of_sample(x, y, KernelSpec("gaussian", 2.0))
        k = kernel_matrix(model.kernel, model.train_points, model.train_points)
        resid = k @ model.alpha_coefficients - model.train_embedding
        # solve used K + ridge I, so the defect is ridge * alpha
        assert np.allclose(resid, -model.ridge * model.alpha_coefficients, atol=1e-10)


class TestReconstruction:
    def test_constant_embedding_reconstructs_column_means(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        y = np.ones((12, 1))
        with pytest.warns(UserWarning, match="rank deficient"):
            recon = fit_reconstruction(x, y, KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0))
        assert np.abs(recon.beta_coefficients).max() == pytest.approx(0.0, abs=1e-12)
        out = reconstruct(recon, np.array([0.3]))
        assert np.allclose(out, x.mean(axis=0))

    @pytest.mark.parametrize("e", [-40, -30, -25, 30])
    def test_the_rank_test_is_relative_to_the_systems_scale(self, e):
        # PCA's output on a swiss roll (n = 300) scaled by 2^e: the rank-2
        # constraint system scales by 4^e, and an absolute floor read it as
        # rank 0 from e = -25 down
        x = generate(DatasetSpec("swiss_roll", 300, seed=0))
        base = pca_reduce(x, 2).coords
        kernel = KernelSpec("gaussian", 1.0)
        at_one = reconstruct(fit_reconstruction(x, base, kernel, kernel), base)
        scaled = np.ldexp(base, e)
        kernel = KernelSpec("gaussian", float(np.ldexp(1.0, e)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recon = fit_reconstruction(np.ldexp(x, e), scaled, kernel, kernel)
        assert np.array_equal(reconstruct(recon, scaled), np.ldexp(at_one, e))

    def test_swiss_roll_c_matrix_matches_double_loop(self):
        x, latent = swiss_roll(50, seed=8)
        sigma_x = float(np.median(euclidean_distances(x)))
        sigma_y = float(np.median(euclidean_distances(latent)))
        recon = fit_reconstruction(
            x, latent, KernelSpec("gaussian", sigma_x), KernelSpec("gaussian", sigma_y)
        )
        n, p = x.shape
        d = latent.shape[1]
        for j in range(d):
            for l in range(p):
                direct = (
                    sum(x[i, l] * latent[i, j] for i in range(n)) / n
                    - (sum(x[i, l] for i in range(n)) / n)
                    * (sum(latent[i, j] for i in range(n)) / n)
                )
                assert recon.c_matrix[j, l] == pytest.approx(direct, abs=1e-10)

    def test_swiss_roll_residuals_uncorrelated_with_embedding(self):
        x, latent = swiss_roll(50, seed=8)
        sigma_x = float(np.median(euclidean_distances(x)))
        sigma_y = float(np.median(euclidean_distances(latent)))
        recon = fit_reconstruction(
            x, latent, KernelSpec("gaussian", sigma_x), KernelSpec("gaussian", sigma_y)
        )
        residuals = x - reconstruct(recon, latent)
        centered_y = latent - latent.mean(axis=0)
        cov = centered_y.T @ (residuals - residuals.mean(axis=0)) / 50
        assert np.abs(cov).max() <= 1e-6

    def test_training_residual_means_are_zero(self):
        x, latent = swiss_roll(50, seed=15)
        recon = fit_reconstruction(
            x, latent, KernelSpec("gaussian", 3.0), KernelSpec("gaussian", 2.0)
        )
        residuals = x - reconstruct(recon, latent)
        assert np.abs(residuals.mean(axis=0)).max() <= 1e-6

    def test_reconstruct_matches_from_scratch_evaluation(self):
        x, latent = swiss_roll(30, seed=21)
        sigma_y = 2.0
        recon = fit_reconstruction(
            x, latent, KernelSpec("gaussian", 3.0), KernelSpec("gaussian", sigma_y)
        )
        i = 7
        yq = latent[i]
        n, p = x.shape
        k_row = np.exp(-np.sum((latent - yq) ** 2, axis=1) / (2 * (sigma_y * sigma_y)))
        col_means = np.exp(-pairwise_sq_dists(latent) / (2 * (sigma_y * sigma_y))).mean(axis=0)
        expected = x.mean(axis=0) + (k_row - col_means) @ recon.beta_coefficients
        assert np.allclose(reconstruct(recon, yq), expected, atol=1e-10)

    def test_row_blocks_give_the_one_block_fit_on_duplicate_rows(self, monkeypatch):
        # the fit reads K_y in row blocks and the reconstruction forms kernel
        # rows in row blocks: the column means are the one-block means bit for
        # bit, and the products agree with one block to roundoff
        kernel_y = KernelSpec("gaussian", 1.5)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            distinct = rng.standard_normal((30, 3))
            x = distinct[rng.integers(0, 30, 60)]
            # an embedding is a function of the point, so duplicates stay duplicates
            y = np.c_[x[:, 0] + np.sin(x[:, 2]), x[:, 1] * x[:, 2]]
            with pytest.warns(UserWarning, match="duplicate training point"):
                keep = distinct_rows(x)
            one = fit_reconstruction(x[keep], y[keep], kernel_y, kernel_y)
            assert np.array_equal(one.kernel_col_means, kernel_matrix(kernel_y, y[keep], y[keep]).mean(axis=0))
            whole = reconstruct(one, y)
            with monkeypatch.context() as m:
                m.setattr(numerics, "_STACK_FLOATS", 7 * len(keep))
                blocked = fit_reconstruction(x[keep], y[keep], kernel_y, kernel_y)
                rows = reconstruct(blocked, y)
            assert np.array_equal(blocked.kernel_col_means, one.kernel_col_means)
            assert np.allclose(blocked.beta_coefficients, one.beta_coefficients, rtol=1e-12, atol=0)
            assert np.allclose(rows, whole, rtol=0, atol=1e-12 * np.abs(whole).max())


def test_embedding_imports_only_errors_and_numerics():
    # the bandwidth rule reads the skeleton, so the pipeline holds it
    tree = ast.parse(inspect.getsource(embedding))
    local = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"errors", "numerics"}
