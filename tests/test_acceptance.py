"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from lsdr.datasets import DatasetSpec, generate, spiral_with_angle
from lsdr.embedding import (
    KernelSpec,
    embed_out_of_sample,
    fit_out_of_sample,
    fit_reconstruction,
    metric_mds,
    reconstruct,
)
from lsdr.geometry import delaunay_tessellation, euclidean_mcst
from lsdr.graph import prune_edges
from lsdr.indices import (
    PcaAdapter,
    knn_metrics,
    procrustes_fit,
    tractable_consistency_index,
    trustability_index,
)
from lsdr.numerics import pairwise_sq_dists, regularized_incomplete_beta
from lsdr.pipeline import LsdrAdapter, LsdrConfig, lsdr, transform_bandwidth
from lsdr.skeleton import detect_boundary

from test_indices import brute_force_knn_metrics, random_similarity_pair


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL ({time.time() - start:6.2f}s): {description}")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {description}")
    assert elapsed < budget_seconds, f"runtime budget exceeded: {elapsed:.1f}s"


def s_datasets(n=200):
    return {
        "S1": DatasetSpec("gaussian_clusters", n, p=10, seed=101, params={"clusters": 3}),
        "S2": DatasetSpec("uniform_hypercube", n, p=10, seed=102),
        "S3": DatasetSpec("sphere_surface", n, noise=0.02, seed=103),
        "S4": DatasetSpec("swiss_roll", n, seed=104),
    }


def test_01_pca_trustability_zero_on_simulation_setups():
    with criterion(1, "normalized PCA trustability <= 1e-8 on S1-S4", 20.0):
        for name, spec in s_datasets().items():
            start = time.time()
            x = generate(spec)
            ti = trustability_index(PcaAdapter(), x)
            assert abs(ti) / spec.n <= 1e-8, f"{name}: normalized TI {ti / spec.n}"
            assert time.time() - start < 5.0, f"{name} exceeded 5 s"


def test_02_procrustes_exactness_on_seeded_similarity_pairs():
    with criterion(2, "100 similarity pairs: residual < 1e-10, closed form within 1e-8", 2.0):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 6))
            a, b, *_ = random_similarity_pair(rng, 50, p)
            fit = procrustes_fit(a, b)
            assert fit.residual < 1e-10
            direct = float(
                np.sum((a - fit.mu[None, :] - fit.scale * (b @ fit.rotation.T)) ** 2)
            )
            assert abs(fit.residual - direct) < 1e-8


def test_03_metric_mds_recovers_euclidean_configurations():
    with criterion(3, "metric MDS on exact distances: residual < 1e-8 n over 100 clouds", 30.0):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = 2 if seed % 2 == 0 else 3
            n = int(rng.integers(10, 41))
            x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
            q = np.sqrt(pairwise_sq_dists(x))
            y = metric_mds(q, p)
            assert procrustes_fit(x, y).residual < 1e-8 * n


def test_04_spanning_tree_bridges_two_clusters_once():
    with criterion(4, "two 100-point clusters, 10 sigma apart: one bridge in >= 99/100", 60.0):
        single = 0
        for seed in range(100):
            spec = DatasetSpec(
                "gaussian_clusters", 200, p=2, seed=seed,
                params={"clusters": 2, "separation": 10.0},
            )
            x = generate(spec)
            tess = delaunay_tessellation(x)
            tree = euclidean_mcst(x, tess.edges)
            crossings = sum(1 for i, j in tree.edges if (i < 100) != (j < 100))
            if crossings == 1:
                single += 1
        assert single >= 99, f"only {single}/100 trials had exactly one bridge"


def test_05_edge_statistic_follows_the_beta_law():
    with criterion(5, "edge statistic KS distance <= 0.02 for p in {2,3}, k in {4,8}", 30.0):
        draws = 10_000
        rng = np.random.default_rng(505)
        for p in (2, 3):
            for k in (4, 8):
                offsets = rng.standard_normal((draws, k, p))
                sq = np.sum(offsets**2, axis=2)
                t = np.sort(sq[:, 0] / sq.sum(axis=1))
                cdf = np.array(
                    [regularized_incomplete_beta(p / 2.0, (k - 1) * p / 2.0, v) for v in t]
                )
                hi = np.arange(1, draws + 1) / draws
                lo = np.arange(0, draws) / draws
                ks = max(np.abs(hi - cdf).max(), np.abs(cdf - lo).max())
                assert ks <= 0.02, f"p={p} k={k}: KS={ks:.4f}"


def test_06_spiral_fidelity():
    with criterion(6, "default spiral: |spearman| >= 0.95, max gap <= 10x median", 60.0):
        pts, theta = spiral_with_angle(DatasetSpec("spiral", 300, seed=25))
        res = lsdr(pts, LsdrConfig(d=1, seed=0))
        y = res.embedding.coords[:, 0]
        ra = np.argsort(np.argsort(y))
        rb = np.argsort(np.argsort(theta))
        rho = np.corrcoef(ra, rb)[0, 1]
        assert abs(rho) >= 0.95, f"spearman {rho:.4f}"
        gaps = np.diff(np.sort(y))
        assert gaps.max() <= 10.0 * np.median(gaps), (
            f"gap ratio {gaps.max() / np.median(gaps):.2f}"
        )


def test_07_three_cluster_global_structure():
    with criterion(7, "three clusters, gaps 1:2: order and gap ordering preserved", 60.0):
        spec = DatasetSpec(
            "gaussian_clusters", 150, p=2, seed=5, params={"clusters": 3, "gaps": [15.0, 30.0]}
        )
        x = generate(spec)
        labels = np.repeat([0, 1, 2], 50)
        res = lsdr(x, LsdrConfig(d=1, seed=0))
        y = res.embedding.coords[:, 0]
        means = [y[labels == c].mean() for c in range(3)]
        ordered = means[0] < means[1] < means[2] or means[0] > means[1] > means[2]
        assert ordered, f"cluster order lost: {means}"
        assert abs(means[2] - means[1]) > abs(means[1] - means[0]), (
            "inter-cluster gap ordering lost"
        )


def test_08_out_of_sample_interpolation():
    with criterion(8, "20 seeded fits reproduce training embeddings within 1e-5", 10.0):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(12, 30))
            p = int(rng.integers(2, 5))
            d = int(rng.integers(1, p))
            x = rng.standard_normal((n, p))
            y = rng.standard_normal((n, d))
            # local bandwidth keeps the kernel system well conditioned, so the
            # ridge stays far below the interpolation tolerance
            sigma = 0.25 * float(np.median(np.sqrt(pairwise_sq_dists(x))))
            model = fit_out_of_sample(x, y, KernelSpec("gaussian", sigma))
            back = embed_out_of_sample(model, x)
            assert np.linalg.norm(back - y) <= 1e-5 * np.linalg.norm(y)


def test_09_reconstruction_condition_on_swiss_roll():
    with criterion(9, "swiss-roll fit: |Cov(resid, embed)| <= 1e-6 and c matches", 10.0):
        rng = np.random.default_rng(909)
        t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, 50)
        h = rng.uniform(0.0, 10.0, 50)
        x = np.c_[t * np.cos(t), h, t * np.sin(t)] + rng.normal(0.0, 0.05, (50, 3))
        latent = np.c_[t, h]
        sigma_x = float(np.median(np.sqrt(pairwise_sq_dists(x))))
        sigma_y = float(np.median(np.sqrt(pairwise_sq_dists(latent))))
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
                assert abs(recon.c_matrix[j, l] - direct) <= 1e-10
        residuals = x - reconstruct(recon, latent)
        centered_y = latent - latent.mean(axis=0)
        cov = centered_y.T @ (residuals - residuals.mean(axis=0)) / n
        assert np.abs(cov).max() <= 1e-6, f"max |cov| = {np.abs(cov).max():.2e}"


def test_10_hull_vertices_are_boundary_points():
    with criterion(10, "20 uniform squares: every hull vertex flagged boundary", 60.0):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0.0, 1.0, (200, 2))
            tess = delaunay_tessellation(pts)
            graph = prune_edges(tess, euclidean_mcst(pts, tess.edges), 0.95)
            boundary = set(detect_boundary(graph))
            hull = {int(v) for v in ConvexHull(pts).vertices}
            assert hull <= boundary, f"seed {seed}: missing {hull - boundary}"


def test_11_consistency_index_ordering_pca_vs_lsdr():
    with criterion(11, "TCI(PCA) > TCI(LSDR) on clustered data; max monotone", 600.0):
        spec = DatasetSpec(
            "gaussian_clusters", 100, p=10, seed=3, params={"clusters": 3, "separation": 10.0}
        )
        x = generate(spec)
        sigma = transform_bandwidth(x, seed=0)
        kernel = KernelSpec("gaussian", sigma)
        pca_report = tractable_consistency_index(
            PcaAdapter(), x, 2, kernel, transform_subsample=16, seed=0
        )
        import warnings

        with warnings.catch_warnings():
            # p=10 exceeds the tessellation cap: every rerun keeps the
            # first 6 principal components
            warnings.simplefilter("ignore")
            lsdr_report = tractable_consistency_index(
                LsdrAdapter(seed=0), x, 2, kernel, transform_subsample=16, seed=0
            )
        assert not pca_report.failed_transforms
        assert not lsdr_report.failed_transforms
        assert pca_report.value > lsdr_report.value, (
            f"TCI(PCA)={pca_report.value:.3f} vs TCI(LSDR)={lsdr_report.value:.3f}"
        )
        # adding transforms never lowers the reported maximum
        for report in (pca_report, lsdr_report):
            residuals = [t.residual for t in report.contributions]
            best = 0.0
            for r in residuals:
                assert max(best, r) >= best
                best = max(best, r)
            assert report.value == pytest.approx(best)


def test_12_knn_metrics_match_brute_force():
    with criterion(12, "TSI/trustworthiness/continuity equal brute force exactly", 5.0):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((10, 5))
            y = rng.standard_normal((10, 2))
            for k in (2, 4):
                assert knn_metrics(x, y, k) == brute_force_knn_metrics(x, y, k)
