"""Procrustes alignment, trustability/consistency indices and kNN metrics."""

import hashlib
import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from lsdr import indices, numerics
from lsdr.datasets import DatasetSpec, generate
from lsdr.embedding import (
    Embedding,
    KernelSpec,
    fit_out_of_sample,
    fit_reconstruction,
    kernel_matrix,
    reconstruct,
)
from lsdr.errors import DegeneracyWarning, ValidationError
from lsdr.indices import (
    AlgorithmAdapter,
    IdentityAdapter,
    IndexReport,
    PcaAdapter,
    TciReport,
    TransformResult,
    knn_metrics,
    pca_reduce,
    procrustes_fit,
    tractable_consistency_index,
    trustability_index,
)
from lsdr.numerics import pairwise_sq_dists
from lsdr.pipeline import transform_bandwidth


def random_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def random_similarity_pair(rng, n, p):
    b = rng.standard_normal((n, p))
    rotation = random_orthogonal(rng, p)
    scale = rng.uniform(0.5, 2.0)
    mu = rng.standard_normal(p)
    a = mu[None, :] + scale * (b @ rotation.T)
    return a, b, mu, scale, rotation


class ConstantAdapter(AlgorithmAdapter):
    name = "constant"

    def reduce(self, d, x):
        return Embedding(coords=np.ones((x.shape[0], d)), algorithm="constant")


class RotatedAdapter(AlgorithmAdapter):
    """Wraps another adapter and rotates its output by a fixed orthogonal map."""

    def __init__(self, inner, rotation):
        self.inner = inner
        self.rotation = rotation
        self.name = f"rotated-{inner.name}"

    def reduce(self, d, x):
        emb = self.inner.reduce(d, x)
        return Embedding(coords=emb.coords @ self.rotation.T, algorithm=self.name)


class TestProcrustes:
    def test_identical_inputs(self):
        a = np.random.default_rng(0).standard_normal((12, 3))
        fit = procrustes_fit(a, a)
        assert fit.scale == pytest.approx(1.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(fit.apply(a), a, atol=1e-10)

    def test_scale_and_shift(self):
        b = np.random.default_rng(1).standard_normal((10, 2))
        a = 2.0 * b + 1.0
        fit = procrustes_fit(a, b)
        assert fit.scale == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(fit.mu, [1.0, 1.0], atol=1e-10)
        assert fit.residual == pytest.approx(0.0, abs=1e-10)

    def test_recovers_constructed_similarity(self):
        rng = np.random.default_rng(42)
        a, b, mu, scale, rotation = random_similarity_pair(rng, 20, 3)
        fit = procrustes_fit(a, b)
        assert fit.residual < 1e-10
        assert np.abs(fit.apply(b) - a).max() < 1e-8

    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(3)
        fit = procrustes_fit(rng.standard_normal((15, 4)), rng.standard_normal((15, 4)))
        assert np.abs(fit.rotation.T @ fit.rotation - np.eye(4)).max() < 1e-10

    def test_closed_form_residual_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((14, 3))
            b = rng.standard_normal((14, 3))
            fit = procrustes_fit(a, b)
            direct = float(np.sum((a - fit.mu[None, :] - fit.scale * (b @ fit.rotation.T)) ** 2))
            assert fit.residual == pytest.approx(direct, abs=1e-8)

    def test_closed_form_residual_where_the_square_overflows(self):
        # (3 * 2**600)**2 overflows; its quotient by 2**700 is 9 * 2**500
        residuals = indices._closed_form_residuals([2.0**1000], np.array([[3.0 * 2.0**600]]), 2.0**700)
        assert residuals == [2.0**1000 - 9.0 * 2.0**500]
        # wherever the square is finite the residual is the plain float expression
        rng = np.random.default_rng(8)
        for u, t, denom in zip(rng.uniform(0, 1.3e154, 50), rng.uniform(0, 1e300, 50), rng.uniform(1.0, 1e300, 50)):
            assert indices._closed_form_residuals([t], np.array([[u]]), denom) == [t - float(u) ** 2 / denom]

    def test_residual_of_a_cloud_near_the_float_limit(self):
        # scaling both clouds by 2**480 scales the residual by 4**480, though
        # the square of the singular-value sum overflows on the way
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((14, 3)), rng.standard_normal((14, 3))
        scaled = procrustes_fit(np.ldexp(a, 480), np.ldexp(b, 480)).residual
        assert np.isfinite(scaled)
        assert scaled == pytest.approx(procrustes_fit(a, b).residual * 4.0**480, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_similarity_transforms_leave_no_residual(self, seed):
        rng = np.random.default_rng(seed)
        a, b, *_ = random_similarity_pair(rng, 15, 3)
        assert procrustes_fit(a, b).residual < 1e-10

    def test_rejects_constant_source(self):
        a = np.random.default_rng(5).standard_normal((8, 2))
        with pytest.raises(ValidationError):
            procrustes_fit(a, np.ones((8, 2)))


class TestTrustabilityIndex:
    def test_identity_adapter_is_fully_trustable(self):
        x = np.random.default_rng(1).standard_normal((30, 4))
        assert abs(trustability_index(IdentityAdapter(), x)) < 1e-8

    def test_pca_at_full_dimension_is_fully_trustable(self):
        x = np.random.default_rng(2).standard_normal((40, 5))
        assert abs(trustability_index(PcaAdapter(), x)) < 1e-8

    def test_constant_output_scores_zero_by_the_formula(self):
        # known pathological case: all cross-products vanish
        x = np.random.default_rng(3).standard_normal((20, 3))
        ti = trustability_index(ConstantAdapter(), x)
        xt = x - x.mean(axis=0)
        y = np.ones((20, 3))
        yt = y - y.mean(axis=0)
        direct = (
            np.sum(np.linalg.svd(yt.T @ yt, compute_uv=False))
            - np.sum(np.linalg.svd(xt.T @ yt, compute_uv=False)) ** 2
            / np.sum(np.linalg.svd(xt.T @ xt, compute_uv=False))
        )
        assert ti == pytest.approx(direct, abs=1e-12)
        assert ti == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_output_rotation(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((25, 4))
        rotation = random_orthogonal(rng, 4)
        plain = trustability_index(PcaAdapter(), x)
        rotated = trustability_index(RotatedAdapter(PcaAdapter(), rotation), x)
        assert rotated == pytest.approx(plain, abs=1e-8)

    def test_lossy_full_dimension_output_scores_positive(self):
        class SquashAdapter(AlgorithmAdapter):
            name = "squash"

            def reduce(self, d, x):
                out = x.copy()
                out[:, -1] = 0.0  # drop one coordinate: not a similarity map
                return Embedding(coords=out[:, :d], algorithm="squash")

        x = np.random.default_rng(21).standard_normal((30, 3))
        ti = trustability_index(SquashAdapter(), x)
        assert ti > 1e-3
        assert ti >= -1e-8

    def test_rejects_zero_variance_data(self):
        with pytest.raises(ValidationError):
            trustability_index(IdentityAdapter(), np.ones((10, 2)))


class TestTractableConsistencyIndex:
    def test_constant_adapter_scores_zero(self):
        x = np.random.default_rng(0).standard_normal((12, 2))
        with pytest.warns(UserWarning, match="rank deficient"):
            report = tractable_consistency_index(
                ConstantAdapter(), x, 1, KernelSpec("gaussian", 1.0), transform_subsample=4
            )
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_singleton_subsample_equals_its_contribution(self):
        x = np.random.default_rng(5).standard_normal((14, 3))
        report = tractable_consistency_index(
            PcaAdapter(), x, 2, KernelSpec("gaussian", 1.0), transform_subsample=1, seed=3
        )
        assert len(report.contributions) == 1
        assert report.value == report.contributions[0].residual
        assert report.subsampled

    def test_max_is_monotone_in_the_transform_set(self):
        x = np.random.default_rng(8).standard_normal((12, 3))
        report = tractable_consistency_index(
            PcaAdapter(), x, 2, KernelSpec("gaussian", 1.0), transform_subsample=8, seed=1
        )
        residuals = [t.residual for t in report.contributions if not t.failed]
        running = []
        best = 0.0
        for r in residuals:
            best = max(best, r)
            running.append(best)
        assert running == sorted(running)
        assert report.value == pytest.approx(max(residuals))

    def test_full_set_when_subsample_exceeds_it(self):
        x = np.random.default_rng(2).standard_normal((6, 2))
        report = tractable_consistency_index(
            PcaAdapter(), x, 1, KernelSpec("gaussian", 1.0), transform_subsample=1000
        )
        assert not report.subsampled
        assert len(report.contributions) == 12

    @pytest.mark.parametrize("subsample", [0, -1])
    def test_rejects_a_subsample_below_one(self, subsample):
        x = np.random.default_rng(1).standard_normal((8, 2))
        with pytest.raises(ValidationError, match="at least 1"):
            tractable_consistency_index(PcaAdapter(), x, 1, KernelSpec("gaussian", 1.0), transform_subsample=subsample)

    def test_requires_bandwidth(self):
        x = np.random.default_rng(1).standard_normal((8, 2))
        with pytest.raises(ValidationError):
            tractable_consistency_index(PcaAdapter(), x, 1, KernelSpec("gaussian", None))

    @pytest.mark.parametrize(
        "bend, message",
        [
            (lambda y: y[1:], r"adapter produced shape \(11, 2\), expected \(12, 2\)"),
            (lambda y: np.hstack([y, y]), r"adapter produced shape \(12, 4\), expected \(12, 2\)"),
            (lambda y: np.where(np.arange(12)[:, None] == 3, np.nan, y), "adapter output contains non-finite entries"),
        ],
        ids=["missing-row", "double-width", "nan"],
    )
    def test_rejects_a_wrong_base(self, bend, message):
        # the output on the untransformed cloud is checked like every other
        x = np.random.default_rng(1).standard_normal((12, 3))
        with pytest.raises(ValidationError, match=message):
            tractable_consistency_index(BentAdapter(bend), x, 2, KernelSpec("gaussian", 1.0))

    def test_missing_terms_fail_their_transforms(self):
        # a chunk given fewer terms than transforms reruns one transform at a
        # time, and each one fails with its own message
        x = np.random.default_rng(1).standard_normal((12, 3))
        report = tractable_consistency_index(
            ShortTermsAdapter(), x, 2, KernelSpec("gaussian", 1.0), transform_subsample=10
        )
        assert len(report.contributions) == 10
        assert len(report.failed_transforms) == 10 and report.value is None
        assert {t.message for t in report.contributions} == {"adapter gave 0 traces and 0 cross terms, expected 1 of each"}


class FailingTermsAdapter(PcaAdapter):
    """PCA whose ``transform_terms`` raises on every chunk."""

    name = "failing-terms"

    def transform_terms(self, d, residual_part, bumps, which, axes, base_centered):
        raise RuntimeError("no terms")


class TestNoScoredTransform:
    def test_a_report_with_no_scored_transform_has_no_value(self):
        # zero is the score of a perfectly consistent algorithm, so a report
        # whose every transform failed carries no number at all
        x = np.random.default_rng(1).standard_normal((12, 3))
        report = tractable_consistency_index(
            FailingTermsAdapter(), x, 2, KernelSpec("gaussian", 1.0), transform_subsample=4
        )
        assert len(report.failed_transforms) == 4 == len(report.contributions)
        assert report.value is None
        data = IndexReport("failing-terms", "x", 12, tci=report).to_dict()
        assert data["tci"] is None and data["tci_normalized"] is None
        header, row = IndexReport("failing-terms", "x", 12, tci=report).csv_row()
        assert dict(zip(header.split(","), row.split(",")))["tci"] == ""


class BentAdapter(PcaAdapter):
    """PCA whose every output is passed through ``bend``."""

    name = "bent"

    def __init__(self, bend):
        self.bend = bend

    def reduce(self, d, x):
        emb = pca_reduce(x, d)
        emb.coords = self.bend(emb.coords)
        return emb


class ShortTermsAdapter(PcaAdapter):
    """PCA's terms with the last transform's left out."""

    name = "short-terms"

    def transform_terms(self, d, residual_part, bumps, which, axes, base_centered):
        traces, cross = super().transform_terms(d, residual_part, bumps, which, axes, base_centered)
        return traces[:-1], cross[:-1]


def serial_consistency_scan(alg, x, d, kernel, transform_subsample=None, seed=0):
    """The consistency scan one transform at a time: a bump column added to
    a zero matrix plus the residual part, ``alg.reduce``, the output checks
    and ``procrustes_fit`` per transform. Returns (point, axis, residual,
    message) per transform, the running maximum, started at 0, and the
    trace(At^T At) of each centred output At (None for a failure)."""
    n, p = x.shape
    base = alg.reduce(d, x).coords
    embed_scale = np.sqrt(pairwise_sq_dists(base))[np.triu_indices(n, 1)]
    sigma_y = float(np.median(embed_scale[embed_scale > 0])) if np.any(embed_scale > 0) else 1.0
    model = fit_out_of_sample(x, base, kernel)
    recon = fit_reconstruction(
        model.train_points, model.train_embedding, kernel, KernelSpec("gaussian", sigma_y)
    )
    x_hat = reconstruct(recon, base)
    residual_part = x - x_hat
    all_transforms = [(i, j) for i in range(n) for j in range(p)]
    chosen = all_transforms
    if transform_subsample is not None and transform_subsample < len(all_transforms):
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x7C1])
        picked = rng.choice(len(all_transforms), size=transform_subsample, replace=False)
        chosen = [all_transforms[k] for k in sorted(picked)]
    base_centered = base - base.mean(axis=0)
    base_constant = float(np.sum(base_centered * base_centered)) <= 1e-24
    rows = []
    traces = []
    best = 0.0
    for i, j in chosen:
        bump = kernel_matrix(kernel, x_hat, x[i : i + 1])[:, 0]
        transformed = np.zeros_like(x)
        transformed[:, j] = bump
        x_tilde = transformed + residual_part
        try:
            moved = alg.reduce(d, x_tilde).coords
            if moved.shape != base.shape:
                raise ValidationError(f"adapter produced shape {moved.shape}, expected {base.shape}")
            if not np.all(np.isfinite(moved)):
                raise ValidationError("adapter output contains non-finite entries")
            centered = moved - moved.mean(axis=0)
            trace = float(np.sum(centered * centered))
            residual = trace if base_constant else procrustes_fit(moved, base).residual
        except Exception as exc:  # noqa: BLE001
            rows.append((i, j, None, str(exc)))
            traces.append(None)
            continue
        rows.append((i, j, residual, ""))
        traces.append(trace)
        best = max(best, residual)
    return rows, best, traces


def _as_rows(report):
    return [(t.point_index, t.axis, t.residual, t.message) for t in report.contributions]


class SerialPcaAdapter(AlgorithmAdapter):
    """PCA through the default, one-cloud-at-a-time ``transform_terms``."""

    name = "serial-pca"

    def reduce(self, d, x):
        return pca_reduce(x, d)


class ConstantBaseAdapter(AlgorithmAdapter):
    """Zeros on the base cloud, PCA on every transformed one."""

    name = "constant-base"

    def __init__(self, base_cloud):
        self.base_cloud = base_cloud

    def reduce(self, d, x):
        if np.array_equal(x, self.base_cloud):
            return Embedding(coords=np.zeros((x.shape[0], d)), algorithm=self.name)
        return pca_reduce(x, d)


class ConstantBaseNonFiniteAdapter(ConstantBaseAdapter):
    """Zeros on the base cloud, a NaN coordinate on every transformed one."""

    name = "constant-base-non-finite"

    def reduce(self, d, x):
        emb = super().reduce(d, x)
        if not np.array_equal(x, self.base_cloud):
            emb.coords[0, 0] = np.nan
        return emb


class ConstantBaseWrongShapeAdapter(ConstantBaseAdapter):
    """Zeros on the base cloud, an (n - 1, d + 1) array on every transformed one."""

    name = "constant-base-wrong-shape"

    def reduce(self, d, x):
        if np.array_equal(x, self.base_cloud):
            return super().reduce(d, x)
        return pca_reduce(x[1:], d + 1)


def _picked(x, every):
    """A fixed pseudo-random choice of clouds: a hash of their bytes."""
    return int(hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest(), 16) % every == 0


class RefusingAdapter(SerialPcaAdapter):
    """Raises on the clouds ``_picked`` chooses, naming each one."""

    name = "refusing"

    def reduce(self, d, x):
        if _picked(x, 9):
            raise RuntimeError(f"refused cloud {hashlib.sha1(x.tobytes()).hexdigest()[:12]}")
        return pca_reduce(x, d)


class NonFiniteAdapter(SerialPcaAdapter):
    """Returns a NaN coordinate on the clouds ``_picked`` chooses."""

    name = "non-finite"

    def reduce(self, d, x):
        emb = pca_reduce(x, d)
        if _picked(x, 7):
            emb.coords[0, 0] = np.nan
        return emb


def _at_default_block_size(func):
    """``func`` run at the default ``numerics._STACK_FLOATS``, whatever a test patches it to."""
    default = numerics._STACK_FLOATS

    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(numerics, "_STACK_FLOATS", default)
            return func(*args, **kwargs)

    return run


# the clouds the chunked scan is checked on: the full set of 600 transforms
# over a partial last chunk (2**18 // 600 = 436 per chunk), then 70-transform
# subsamples of five shapes (p, d, n), among them a one-column cloud
SCAN_CLOUDS = {
    "600": (np.random.default_rng(4).standard_normal((200, 3)) * [3.0, 2.0, 0.5], 2, {}),
    **{
        f"{p}-{d}": (
            np.random.default_rng(p).standard_normal((n, p)) @ np.diag(np.linspace(3.0, 0.5, p)),
            d,
            {"transform_subsample": 70, "seed": 2},
        )
        for p, d, n in [(3, 1, 60), (5, 2, 60), (10, 3, 60), (1, 1, 100), (2, 2, 60)]
    },
}


class TestChunkedConsistencyIndex:
    """The chunked scan gives the serial scan's residuals and value bit for bit
    through the default ``transform_terms``, and within 1e-12 * T_b through
    PCA's closed form, T_b = trace(At^T At) of the transform's output."""

    kernel = KernelSpec("gaussian", 1.0)

    def _assert_matches_serial(self, alg, x, d, **kwargs):
        report = tractable_consistency_index(alg, x, d, self.kernel, **kwargs)
        rows, best, _ = serial_consistency_scan(alg, x, d, self.kernel, **kwargs)
        assert _as_rows(report) == rows
        assert [t.failed for t in report.contributions] == [r[2] is None for r in rows]
        assert report.value == best
        return report

    def _assert_closed_form_near_serial(self, x, d, kernel, **kwargs):
        report = tractable_consistency_index(PcaAdapter(), x, d, kernel, **kwargs)
        rows, best, traces = serial_consistency_scan(SerialPcaAdapter(), x, d, kernel, **kwargs)
        assert [(t.point_index, t.axis, t.message) for t in report.contributions] == [
            (i, j, message) for i, j, _, message in rows
        ]
        assert not report.failed_transforms and None not in traces
        for t, (_, _, residual, _), trace in zip(report.contributions, rows, traces):
            assert abs(t.residual - residual) <= 1e-12 * trace
        assert abs(report.value - best) <= 1e-12 * max(traces)
        return report

    def test_pca_full_set_over_a_partial_last_chunk(self):
        x, d, _ = SCAN_CLOUDS["600"]
        assert len(x) * 3 % (numerics._STACK_FLOATS // x.size) != 0
        report = self._assert_matches_serial(SerialPcaAdapter(), x, d)
        assert len(report.contributions) == 600 and not report.failed_transforms
        self._assert_closed_form_near_serial(x, d, self.kernel)

    @pytest.mark.parametrize("name", ["3-1", "5-2", "10-3", "1-1", "2-2"])
    def test_pca_subsample(self, name):
        x, d, kwargs = SCAN_CLOUDS[name]
        report = self._assert_matches_serial(SerialPcaAdapter(), x, d, **kwargs)
        assert report.subsampled and len(report.contributions) == 70
        self._assert_closed_form_near_serial(x, d, self.kernel, **kwargs)

    def test_pca_closed_form_on_the_acceptance_clusters(self):
        # the cloud and kernel of acceptance criterion 11
        spec = DatasetSpec("gaussian_clusters", 100, p=10, seed=3, params={"clusters": 3, "separation": 10.0})
        x = generate(spec)
        with pytest.warns(DegeneracyWarning, match="exceeds the tessellation cap"):
            kernel = KernelSpec("gaussian", transform_bandwidth(x, seed=0))
        report = self._assert_closed_form_near_serial(x, 2, kernel)
        assert len(report.contributions) == 1000

    @pytest.mark.parametrize("name", list(SCAN_CLOUDS))
    def test_pca_residuals_do_not_depend_on_the_chunk(self, name, monkeypatch):
        x, d, kwargs = SCAN_CLOUDS[name]
        whole = tractable_consistency_index(PcaAdapter(), x, d, self.kernel, **kwargs)
        # the reconstruction keeps its default row blocks (its BLAS products
        # round by block size), so only the scan's chunks move
        for stage in ("fit_reconstruction", "reconstruct"):
            monkeypatch.setattr(indices, stage, _at_default_block_size(getattr(indices, stage)))
        for per_chunk in (1, 5):
            chunks = []

            class ChunkCountingPca(PcaAdapter):
                def transform_terms(self, d, residual_part, bumps, which, axes, base_centered):
                    chunks.append(len(axes))
                    return super().transform_terms(d, residual_part, bumps, which, axes, base_centered)

            monkeypatch.setattr(numerics, "_STACK_FLOATS", per_chunk * x.size)
            report = tractable_consistency_index(ChunkCountingPca(), x, d, self.kernel, **kwargs)
            assert _as_rows(report) == _as_rows(whole)
            assert report.value == whole.value
            # the patched block size is the one the scan ran in, at max(n, p*p)
            # floats per transform
            assert max(chunks) == per_chunk * x.size // max(len(x), x.shape[1] ** 2)
            assert sum(chunks) == len(report.contributions)

    def test_constant_base_through_the_default_stack(self):
        x = np.random.default_rng(6).standard_normal((40, 3))
        with pytest.warns(UserWarning, match="rank deficient"):
            report = self._assert_matches_serial(ConstantBaseAdapter(x), x, 2)
        assert report.value > 0.0

    @pytest.mark.parametrize(
        "adapter, message",
        [
            (ConstantBaseNonFiniteAdapter, "non-finite"),
            (ConstantBaseWrongShapeAdapter, "adapter produced shape (39, 3), expected (40, 2)"),
        ],
        ids=["non-finite", "wrong-shape"],
    )
    def test_non_finite_output_on_a_constant_base_is_a_failure(self, adapter, message):
        x = np.random.default_rng(6).standard_normal((40, 3))
        with pytest.warns(UserWarning, match="rank deficient"):
            report = tractable_consistency_index(adapter(x), x, 2, self.kernel, transform_subsample=3)
        assert len(report.failed_transforms) == 3
        assert all(t.residual is None and message in t.message for t in report.contributions)
        assert report.value is None
        json.dumps(IndexReport(adapter.name, "x", 40, tci=report).to_dict(), allow_nan=False)

    @pytest.mark.parametrize("adapter", [SerialPcaAdapter, RefusingAdapter, NonFiniteAdapter])
    def test_failures_are_attributed_to_their_transforms(self, adapter, monkeypatch):
        # chunks of 5 transforms: most run whole, a few are rerun one by one
        x = np.random.default_rng(9).standard_normal((50, 3)) * [2.0, 1.0, 0.5]
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 5 * x.size)
        report = self._assert_matches_serial(adapter(), x, 2)
        failed = report.failed_transforms
        if adapter is SerialPcaAdapter:
            assert not failed
            return
        assert 0 < len(failed) < len(report.contributions) // 4
        expected = "refused cloud" if adapter is RefusingAdapter else "non-finite"
        assert all(expected in t.message for t in failed)
        kept = [t.residual for t in report.contributions if not t.failed]
        assert report.value == max(kept)


class GatedRefusingAdapter(RefusingAdapter):
    """``RefusingAdapter`` that records the thread of each ``transform_terms``
    call; the main thread's first call opens ``main_started`` and waits until
    another thread has made a call."""

    def __init__(self):
        self.calls = []
        self.main_started = threading.Event()
        self.helper_called = threading.Event()

    def transform_terms(self, d, residual_part, bumps, which, axes, base_centered):
        main = threading.current_thread() is threading.main_thread()
        self.calls.append((main, len(axes)))
        if main and not self.main_started.is_set():
            self.main_started.set()
            assert self.helper_called.wait(timeout=60)
        elif not main:
            self.helper_called.set()
        return super().transform_terms(d, residual_part, bumps, which, axes, base_centered)


class Interrupt(BaseException):
    """An error the consistency scan does not catch."""


class InterruptingAdapter(SerialPcaAdapter):
    """Records the thread of each ``transform_terms`` call and raises
    ``Interrupt`` in every call made on the named thread. When that is the
    helper, the main thread's calls wait until the helper has made one."""

    def __init__(self, on_main):
        self.on_main = on_main
        self.calls = []
        self.helper_called = threading.Event()

    def transform_terms(self, d, residual_part, bumps, which, axes, base_centered):
        main = threading.current_thread() is threading.main_thread()
        self.calls.append((main, len(axes)))
        if not main:
            self.helper_called.set()
        if main == self.on_main:
            raise Interrupt("main" if main else "helper")
        if main:
            assert self.helper_called.wait(timeout=60)
        return super().transform_terms(d, residual_part, bumps, which, axes, base_centered)


class RecordingExecutor(ThreadPoolExecutor):
    """One worker thread; keeps every future it hands out."""

    def __init__(self):
        super().__init__(1)
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


class TestSharedConsistencyScan:
    """With a helper executor the scan's chunks are shared between two
    threads and joined in chunk order: the report is the serial one."""

    kernel = KernelSpec("gaussian", 1.0)
    # 50 points in 3 columns: 150 transforms, charged 50 floats each
    x = np.random.default_rng(9).standard_normal((50, 3)) * [2.0, 1.0, 0.5]

    def _scan(self, adapter, helper):
        base = adapter.reduce(2, self.x).coords
        x_hat = indices._consistency_setup(self.x, base)
        return indices._consistency_scan(adapter, self.x, 2, self.kernel, None, 0, base, x_hat, helper=helper)

    def test_a_failure_in_the_helpers_chunk_keeps_its_message_and_position(self, monkeypatch):
        # chunks of 10 transforms, queued on the helper last chunk first; the
        # helper is held busy until this thread has taken chunk 0, and this
        # thread waits until the helper has taken chunk 14, which holds a
        # refused transform
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 10 * 50)
        serial = tractable_consistency_index(RefusingAdapter(), self.x, 2, self.kernel)
        assert any(t.failed for t in serial.contributions[140:150])
        adapter = GatedRefusingAdapter()
        with ThreadPoolExecutor(1) as helper:
            gate = helper.submit(adapter.main_started.wait, 60)
            report = self._scan(adapter, helper)
            assert gate.result(timeout=60)
        assert _as_rows(report) == _as_rows(serial)
        assert [t.failed for t in report.contributions] == [t.failed for t in serial.contributions]
        assert report.value == serial.value
        # the helper's first call was chunk 14 whole, and it reran chunk 14
        # one transform at a time
        assert adapter.calls[0] == (True, 10)
        helper_calls = [size for main, size in adapter.calls if not main]
        assert helper_calls[:11] == [10] + [1] * 10

    def test_a_helper_that_stays_busy_leaves_the_scan_to_this_thread(self, monkeypatch):
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 10 * 50)
        busy = threading.Event()
        adapter = GatedRefusingAdapter()
        adapter.helper_called.set()
        with ThreadPoolExecutor(1) as helper:
            held = helper.submit(busy.wait, 60)
            report = self._scan(adapter, helper)
            busy.set()
            assert held.result(timeout=60)
        assert all(main for main, _ in adapter.calls)
        assert _as_rows(report) == _as_rows(tractable_consistency_index(RefusingAdapter(), self.x, 2, self.kernel))

    def test_an_error_in_this_threads_chunk_leaves_the_helper_no_chunk(self, monkeypatch):
        # chunks of 10 transforms; the helper is held on a gate until the
        # scan has raised
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 10 * 50)
        adapter = InterruptingAdapter(on_main=True)
        gate = threading.Event()
        with RecordingExecutor() as helper:
            held = helper.submit(gate.wait, 60)
            with pytest.raises(Interrupt, match="main"):
                self._scan(adapter, helper)
            gate.set()
            assert held.result(timeout=60)
        # this thread's first chunk was its only call, and the helper took none
        assert adapter.calls == [(True, 10)]
        chunks = helper.futures[1:]
        assert len(chunks) == 15 and all(future.cancelled() for future in chunks)

    def test_an_error_in_the_helpers_chunk_surfaces_at_its_position(self, monkeypatch):
        monkeypatch.setattr(numerics, "_STACK_FLOATS", 10 * 50)
        adapter = InterruptingAdapter(on_main=False)
        with RecordingExecutor() as helper:
            with pytest.raises(Interrupt, match="helper") as raised:
                self._scan(adapter, helper)
            # nothing is left queued or running once the scan has returned
            assert all(future.done() for future in helper.futures)
            # queued last chunk first: this thread scored a leading run of
            # chunks, whose futures it cancelled, and the helper the rest,
            # each of which raised; the error is that of the first of them
            chunks = helper.futures[::-1]
            mine = sum(future.cancelled() for future in chunks)
            assert all(future.cancelled() for future in chunks[:mine])
            assert all(isinstance(future.exception(), Interrupt) for future in chunks[mine:])
            assert 1 <= mine < len(chunks) == 15
            assert raised.value is chunks[mine].exception()
        assert sorted(adapter.calls) == [(False, 10)] * (15 - mine) + [(True, 10)] * mine


class TestPcaTransformTerms:
    """PCA's closed-form terms against reducing each transformed cloud."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(8, 60),
        st.integers(1, 6),
        st.data(),
        st.floats(0.05, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_closed_form_matches_the_rerun(self, n, p, data, bandwidth, seed):
        # Where the d-th and (d+1)-th eigenvalues of a transformed cloud's
        # scatter matrix tie, its top-d PCA subspace is undefined, and so are
        # both outputs. So the residual part has the separated singular values
        # c * 2^(p-1), ..., c * 2, c, with c large enough that, by Weyl's
        # inequality, the rank-one update of a bump of height at most 1 moves
        # no eigenvalue by more than a quarter of the smallest gap 3 c^2.
        d = data.draw(st.integers(1, p), label="d")
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, p))]))
        sigma = 2.0 ** np.arange(p - 1, -1, -1)
        c = 8.0 * (sigma[0] * np.sqrt(n) + n) / 3.0
        residual_part = (basis[:, 1:] * (c * sigma)) @ random_orthogonal(rng, p).T
        residual_part += c * rng.standard_normal(p)
        points, which = np.unique(rng.integers(0, n, 12), return_inverse=True)
        kernel = KernelSpec("gaussian", bandwidth * c * sigma[0] / np.sqrt(n))
        bumps = kernel_matrix(kernel, residual_part[points], residual_part)
        axes = rng.integers(0, p, 12)
        base_centered = pca_reduce(residual_part, d).coords
        denom = float(np.sum(base_centered * base_centered))

        terms = (d, residual_part, bumps, which, axes, base_centered)
        traces, cross = PcaAdapter().transform_terms(*terms)
        rerun_traces, rerun_cross = SerialPcaAdapter().transform_terms(*terms)
        assert np.all(np.abs(traces - rerun_traces) <= 1e-12 * rerun_traces)
        residuals = indices._closed_form_residuals(traces, np.linalg.svd(cross)[1], denom)
        rerun = indices._closed_form_residuals(rerun_traces, np.linalg.svd(rerun_cross)[1], denom)
        assert np.all(np.abs(np.subtract(residuals, rerun)) <= 1e-12 * rerun_traces)

    def test_rejects_what_the_rerun_rejects(self):
        residual_part = np.random.default_rng(0).standard_normal((10, 3))
        bumps = np.ones((2, 10))
        which = np.array([0, 1])
        axes = np.array([0, 2])
        with pytest.raises(ValidationError, match="1 <= d <= p"):
            PcaAdapter().transform_terms(4, residual_part, bumps, which, axes, np.zeros((10, 4)))
        residual_part[4, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            PcaAdapter().transform_terms(2, residual_part, bumps, which, axes, np.zeros((10, 2)))


class TestTransformTermsPerDistinctPoint:
    """One bump row per distinct point, gathered by ``which``, gives the terms
    of one bump row per transform bit for bit, through PCA's closed form and
    through the default one-cloud-at-a-time path."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 40), st.integers(1, 5), st.data(), st.integers(0, 2**32 - 1))
    def test_shared_bumps_give_the_per_transform_terms(self, n, p, data, seed):
        d = data.draw(st.integers(1, p), label="d")
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        residual_part = rng.standard_normal((n, p)) * np.linspace(2.0, 0.5, p)
        x_hat = x - residual_part
        # points with 1, 2 and p axes each, shuffled; the rest drawn freely
        once, twice, every = rng.choice(n, 3, replace=False)
        points = [once, twice, twice] + [every] * p
        axes = [rng.integers(p), *rng.choice(p, 2, replace=p < 2), *range(p)]
        extra = data.draw(st.integers(0, 12), label="extra")
        points += rng.integers(0, n, extra).tolist()
        axes += rng.integers(0, p, extra).tolist()
        order = rng.permutation(len(points))
        points, axes = np.array(points)[order], np.array(axes)[order]
        kernel = KernelSpec("gaussian", data.draw(st.floats(0.3, 3.0), label="bandwidth"))
        base_centered = pca_reduce(x, d).coords

        distinct, which = np.unique(points, return_inverse=True)
        shared = kernel_matrix(kernel, x[distinct], x_hat)
        each = kernel_matrix(kernel, x[points], x_hat)
        assert len(distinct) < len(points)
        for adapter in (PcaAdapter(), SerialPcaAdapter()):
            traces, cross = adapter.transform_terms(d, residual_part, shared, which, axes, base_centered)
            expected = adapter.transform_terms(
                d, residual_part, each, np.arange(len(points)), axes, base_centered
            )
            assert np.array_equal(traces, expected[0])
            assert np.array_equal(cross, expected[1])


DUPLICATE_CLOUDS = [
    np.repeat(np.random.default_rng(seed).standard_normal((40, 3)) * [3.0, 2.0, 0.5], [1, 2, 3, 1] * 10, axis=0)
    for seed in (11, 12)
]


@pytest.mark.parametrize("x", DUPLICATE_CLOUDS, ids=["seed-11", "seed-12"])
def test_consistency_scan_on_duplicate_points_matches_the_serial_scan(x):
    # the scan fits the reconstruction on the distinct rows and evaluates it
    # at every row; its residual part must be the serial scan's
    kernel = KernelSpec("gaussian", 1.0)
    with pytest.warns(UserWarning, match="duplicate training point"):
        report = tractable_consistency_index(SerialPcaAdapter(), x, 2, kernel, transform_subsample=90, seed=1)
    with pytest.warns(UserWarning, match="duplicate training point"):
        rows, best, _ = serial_consistency_scan(SerialPcaAdapter(), x, 2, kernel, transform_subsample=90, seed=1)
    assert _as_rows(report) == rows
    assert report.value == best


def test_set_up_warnings_point_at_the_caller_of_the_index():
    kernel = KernelSpec("gaussian", 1.0)
    with pytest.warns(UserWarning, match="duplicate training point") as duplicates:
        tractable_consistency_index(PcaAdapter(), DUPLICATE_CLOUDS[0], 2, kernel, transform_subsample=4)
    x = np.random.default_rng(0).standard_normal((12, 2))
    with pytest.warns(UserWarning, match="rank deficient") as rank:
        tractable_consistency_index(ConstantAdapter(), x, 1, kernel, transform_subsample=4)
    # and at the caller of the embedding functions that emit them
    with pytest.warns(UserWarning, match="duplicate training point") as fitted:
        fit_out_of_sample(DUPLICATE_CLOUDS[0], DUPLICATE_CLOUDS[0][:, :2], kernel)
    warned = [w for w in [*duplicates, *rank, *fitted] if "duplicate" in str(w.message) or "rank" in str(w.message)]
    assert len(warned) == 3 and all(w.filename == __file__ for w in warned)


def numpy_median(points):
    """The output scale the consistency index took before the bracketed median."""
    e = pdist(points)
    return float(np.median(e[e > 0])) if np.any(e > 0) else 1.0


def line(values):
    return np.asarray(values, dtype=float)[:, None]


class TestPositiveDistanceMedian:
    @pytest.mark.parametrize(
        "points",
        [
            pytest.param(line([0, 1]), id="n=2"),
            pytest.param(line([3, 3]), id="n=2 equal"),
            pytest.param(line([0, 1, 3]), id="odd count"),
            pytest.param(line([0, 1, 3, 7]), id="even count"),
            pytest.param(line([0, 1, 3, 3]), id="odd count after a duplicate"),
            pytest.param(line([0, 0, 1, 3, 3]), id="even count after duplicates"),
            pytest.param(line(range(40)), id="ties at the middle"),
            pytest.param(np.repeat(np.arange(9.0).reshape(3, 3), [20, 1, 19], axis=0), id="duplicate rows"),
            pytest.param(np.full((30, 2), 2.5), id="all equal"),
            pytest.param(line([1.0]), id="n=1"),
        ]
        + [pytest.param(x, id=f"duplicate cloud {i}") for i, x in enumerate(DUPLICATE_CLOUDS)],
    )  # fmt: skip
    def test_equals_numpy_median(self, points):
        got = indices._positive_distance_median(points)
        assert type(got) is float and got == numpy_median(points)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_equals_numpy_median_on_integer_grids(self, n, p, side, rows_per_block, seed):
        # a small grid: duplicate rows and heavy ties at the middle
        points = np.random.default_rng(seed).integers(0, side, (n, p)).astype(float)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(numerics, "_STACK_FLOATS", rows_per_block * n)
            got = indices._positive_distance_median(points)
        assert got == numpy_median(points)

    @pytest.mark.parametrize("where", ["above", "below"])
    def test_a_missed_bracket_is_widened_and_the_pass_repeated(self, monkeypatch, where):
        points = generate(DatasetSpec("swiss_roll", 300, seed=6))[:, :2]
        passes = []
        bracket_pass = indices._bracket_pass

        def counted(*args):
            passes.append(args)
            return bracket_pass(*args)

        # a sample of one value far from the middle: the first bracket holds no middle value
        far = 10 * pdist(points).max() ** 2 if where == "above" else 1e-9
        monkeypatch.setattr(indices, "_sampled_sq_distances", lambda x: np.full(64, far))
        monkeypatch.setattr(indices, "_bracket_pass", counted)
        assert indices._positive_distance_median(points) == numpy_median(points)
        assert len(passes) > 1


def test_consistency_set_up_holds_no_n_by_n_array():
    # one n x n float array is 128 MB at n = 4000, and the n(n - 1)/2 pairwise
    # distances 64 MB; the row-blocked set-up holds a few 2 MB blocks, the
    # bracketed median's values (about 4 n(n - 1)/2 / sqrt(16 n) floats, 1 MB)
    # and (n, p) arrays, so a quarter of the n x n array leaves room to spare
    x = generate(DatasetSpec("swiss_roll", 4000, seed=1))
    tracemalloc.start()
    try:
        tractable_consistency_index(PcaAdapter(), x, 2, KernelSpec("gaussian", 1.0), transform_subsample=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_knn_metrics_holds_one_row_block_of_scratch():
    # one scratch of 2**18 floats (2 MB) holds a block's data and embedding
    # distances and their sorted rows, 16 rows of 4000 floats each; four
    # fresh 2 MB arrays per block, with the previous block's still alive
    # while the next is built, peak at over 13 MB
    x = generate(DatasetSpec("swiss_roll", 4000, seed=1))
    y = pca_reduce(x, 2).coords
    tracemalloc.start()
    try:
        knn_metrics(x, y, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def brute_force_knn_metrics(x, y, k):
    """Direct transcription of the neighbourhood formulas with explicit sets."""
    n = len(x)

    def ranks(points):
        out = {}
        for i in range(n):
            dists = sorted(
                (float(np.sum((points[i] - points[j]) ** 2)), j)
                for j in range(n)
                if j != i
            )
            for rank, (_, j) in enumerate(dists, start=1):
                out[(i, j)] = rank
        return out

    rank_hi = ranks(np.asarray(x, dtype=float))
    rank_lo = ranks(np.asarray(y, dtype=float))
    missed = 0
    trust_pen = 0
    cont_pen = 0
    for i in range(n):
        a = {j for j in range(n) if j != i and rank_hi[(i, j)] <= k}
        b = {j for j in range(n) if j != i and rank_lo[(i, j)] <= k}
        missed += len(a - b)
        trust_pen += sum(rank_hi[(i, j)] - k for j in b - a)
        cont_pen += sum(rank_lo[(i, j)] - k for j in a - b)
    tsi = 1.0 - missed / (n * k)
    norm = n * k * (2 * n - 3 * k - 1)
    trust = 1.0 - 2.0 * trust_pen / norm if trust_pen else 1.0
    cont = 1.0 - 2.0 * cont_pen / norm if cont_pen else 1.0
    return tsi, trust, cont


class TestKnnMetrics:
    def test_identity_embedding_scores_one(self):
        x = np.random.default_rng(0).standard_normal((15, 3))
        assert knn_metrics(x, x.copy(), 4) == (1.0, 1.0, 1.0)

    def test_everyone_is_a_neighbour_at_k_equals_n_minus_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal((8, 2))
        tsi, trust, cont = knn_metrics(x, y, 7)
        assert tsi == 1.0 and trust == 1.0 and cont == 1.0

    def test_matches_brute_force_exactly(self):
        # a shuffled 4x4 grid has many exactly equal distances; offsetting it
        # from the origin makes a Gram-expansion distance break those ties
        grid = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)
        grid += np.array([3.7, -1.3])
        cases = []
        for seed in range(25):
            rng = np.random.default_rng(seed)
            cases.append((rng.standard_normal((10, 4)), rng.standard_normal((10, 2)), (1, 3, 5)))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cases.append((grid[rng.permutation(16)], rng.standard_normal((16, 2)), (1, 3, 5, 8)))
        for x, y, ks in cases:
            for k in ks:
                assert knn_metrics(x, y, k) == brute_force_knn_metrics(x, y, k)

    def test_values_lie_in_unit_interval(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 2))
        for k in (1, 2, 4):
            for v in knn_metrics(x, y, k):
                assert -1e-12 <= v <= 1.0 + 1e-12

    def test_rejects_k_out_of_range(self):
        x = np.random.default_rng(0).standard_normal((5, 2))
        with pytest.raises(ValidationError):
            knn_metrics(x, x, 5)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 10])
    def test_k_is_at_most_half_of_n_or_everyone(self, n):
        # past n/2 the normaliser no longer bounds the penalties: at n = 8 the
        # values left [0, 1] (k = 6) or divided by zero (k = 5)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        y = rng.standard_normal((n, 2))
        for k in range(-1, n + 2):
            if 1 <= k <= n / 2 or k == n - 1:
                assert all(0.0 <= v <= 1.0 for v in knn_metrics(x, y, k))
            else:
                with pytest.raises(ValidationError, match="1 <= k <= n/2 or k = n - 1"):
                    knn_metrics(x, y, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_matches_brute_force_on_integer_grids(self, n, p, d, seed):
        # few distinct coordinates: repeated points and many equal distances
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, (n, p)).astype(float)
        y = rng.integers(0, 3, (n, d)).astype(float)
        for k in sorted({*range(1, n // 2 + 1), n - 1}):
            assert knn_metrics(x, y, k) == brute_force_knn_metrics(x, y, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(2, 4),
        st.data(),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_over_several_blocks_and_a_short_last_one(self, per_block, full, data, p, d, seed):
        # blocks of a few rows, so ties in integer-grid clouds cross block edges
        n = per_block * full + data.draw(st.integers(1, per_block - 1), label="rows in the last block")
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, (n, p)).astype(float)
        y = rng.integers(0, 3, (n, d)).astype(float)
        rows = []
        neighbourhoods = indices._neighbourhoods

        def recorded(points, own, k, **scratch):
            rows.append(len(own))
            return neighbourhoods(points, own, k, **scratch)

        for k in sorted({1, n // 3, n // 2, n - 1}):
            rows.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(numerics, "_STACK_FLOATS", per_block * 4 * n)
                m.setattr(indices, "_neighbourhoods", recorded)
                got = knn_metrics(x, y, k)
            # the data's and the embedding's rows, block by block
            blocks = [per_block] * full + [n - per_block * full]
            assert rows == [r for r in blocks for _ in range(2)]
            assert got == brute_force_knn_metrics(x, y, k)


class TestRankSum:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 14),
        st.integers(1, 3),
        st.sampled_from(["integer grid", "rounded", "duplicated rows"]),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    def test_bisection_equals_the_brute_force_rank(self, n, p, kind, data, seed):
        # tied clouds: few distinct coordinates, values rounded to one digit,
        # or rows drawn with repetition from half as many
        rng = np.random.default_rng(seed)
        if kind == "integer grid":
            x = rng.integers(0, 3, (n, p)).astype(float)
        elif kind == "rounded":
            x = np.round(rng.standard_normal((n, p)), 1)
        else:
            x = rng.standard_normal((max(1, n // 2), p))[rng.integers(0, max(1, n // 2), n)]
        k = data.draw(st.sampled_from(sorted({*range(1, n // 2 + 1), n - 1})), label="k")
        own = np.arange(data.draw(st.integers(0, n - 1), label="first row"), n)
        dist, ordered, near = indices._neighbourhoods(x, own, k)
        for picked in (near, ~near, rng.random(dist.shape) < 0.5):
            # the entries strictly below, plus the equal ones at a lower index
            expected = sum(
                int(np.count_nonzero(dist[r] < dist[r, c]) + np.count_nonzero(dist[r, :c] == dist[r, c]))
                for r, c in zip(*np.nonzero(picked))
            )
            assert indices._rank_sum(dist, ordered, picked) == expected


class TestPcaReduce:
    def test_recovers_line_positions(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal(30)
        direction = np.array([3.0, 4.0]) / 5.0
        x = np.outer(t, direction)
        emb = pca_reduce(x, 1)
        centered_t = t - t.mean()
        assert min(
            np.abs(emb.coords[:, 0] - centered_t).max(),
            np.abs(emb.coords[:, 0] + centered_t).max(),
        ) < 1e-10

    def test_component_variances_equal_eigenvalues(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((30, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
        emb = pca_reduce(x, 4)
        centered = x - x.mean(axis=0)
        eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered / 29))[::-1]
        variances = emb.coords.var(axis=0, ddof=1)
        assert np.allclose(variances, eigenvalues, atol=1e-8)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 3))
        a = pca_reduce(x, 3).coords
        b = pca_reduce(x, 3).coords
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_single_clouds_equal_the_loop_form(self, p):
        rng = np.random.default_rng(p)
        clouds = rng.standard_normal((7, 50, p)) * rng.uniform(0.5, 3.0, (7, 1, p)) + 4.0
        for d in (1, 2, p):
            for cloud in clouds:
                coords = pca_reduce(cloud, d).coords
                assert coords.shape == (50, d)
                assert np.array_equal(coords, loop_pca(cloud, d))

    def test_rejects_d_above_p_and_non_finite_clouds(self):
        cloud = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValidationError):
            pca_reduce(cloud, 4)
        cloud[2, 0] = np.inf
        with pytest.raises(ValidationError):
            pca_reduce(cloud, 2)


def loop_pca(x, d):
    """PCA of one cloud with the eigenvector signs fixed column by column."""
    n = len(x)
    centered = x - x.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered / (n - 1))
    components = v[:, np.argsort(w)[::-1]][:, :d].copy()
    for col in range(d):
        if components[np.argmax(np.abs(components[:, col])), col] < 0:
            components[:, col] = -components[:, col]
    return centered @ components


class TestIndexReport:
    def test_csv_row_is_table_shaped(self):
        report = IndexReport(algorithm="pca", dataset="demo", n=100, ti=2.5)
        header, row = report.csv_row()
        assert header.startswith("dataset,algorithm,n,ti")
        fields = row.split(",")
        assert fields[0] == "demo" and fields[1] == "pca"
        assert float(fields[3]) == 2.5
        assert float(fields[4]) == 0.025

    @pytest.mark.parametrize(
        "report, row",
        [
            (
                IndexReport(
                    "lsdr", "roll", 7, ti=0.1, knn_k=3, tsi=0.9, trustworthiness=0.8, continuity=0.7,
                    tci=TciReport(
                        value=0.3,
                        contributions=[TransformResult(2, 0, 0.3), TransformResult(5, 1, None, True, "boom")],
                        subsampled=True,
                        n_transforms_total=14,
                        base=np.zeros((7, 2)),
                    ),
                    tci_bandwidth=1.5,
                ),
                "roll,lsdr,7,0.1,0.014285714285714287,0.3,0.04285714285714286,0.9,0.8,0.7",
            ),
            (IndexReport("pca", "demo", 100, ti=2.5), "demo,pca,100,2.5,0.025,,,,,"),
        ],
    )  # fmt: skip
    def test_csv_row_bytes(self, report, row):
        header = "dataset,algorithm,n,ti,ti_normalized,tci,tci_normalized,tsi,trustworthiness,continuity"
        assert report.csv_row() == (header, row)

    def test_json_dict_has_normalized_values(self):
        report = IndexReport(algorithm="pca", dataset="demo", n=50, ti=5.0)
        data = report.to_dict()
        assert data["ti_normalized"] == pytest.approx(0.1)
