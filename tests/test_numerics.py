"""The eigendecomposition wrapper, the Beta CDF and quantile, and pairwise distances."""

from math import lgamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsdr.errors import ValidationError
from lsdr.numerics import (
    as_matrix,
    beta_quantile,
    pairwise_sq_dists,
    regularized_incomplete_beta,
    sym_eigen,
)


def quadrature_beta_quantile(a: float, b: float, alpha: float, ncells: int = 10**6) -> float:
    """Independent oracle: midpoint integration of the Beta density, inverted."""
    edges = np.linspace(0.0, 1.0, ncells + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    logpdf = (a - 1.0) * np.log(mids) + (b - 1.0) * np.log(1.0 - mids)
    pdf = np.exp(logpdf - (lgamma(a) + lgamma(b) - lgamma(a + b)))
    cdf = np.concatenate([[0.0], np.cumsum(pdf * np.diff(edges))])
    cdf /= cdf[-1]
    return float(np.interp(alpha, cdf, edges))


class TestSymEigen:
    def test_diagonal(self):
        w, _ = sym_eigen([[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(w, [2.0, 1.0])

    def test_swap_matrix(self):
        w, v = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(w, [1.0, -1.0])
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert min(np.abs(v[:, 0] - expected).max(), np.abs(v[:, 0] + expected).max()) < 1e-12
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.abs(v[:, 1] - expected).max(), np.abs(v[:, 1] + expected).max()) < 1e-12

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        w, v = sym_eigen(m)
        norm = np.linalg.norm(m)
        for i in range(6):
            assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) < 1e-8 * norm

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            sym_eigen([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            sym_eigen(np.ones((2, 3)))


class TestBetaQuantile:
    def test_uniform_median(self):
        assert abs(beta_quantile(1.0, 1.0, 0.5) - 0.5) < 1e-12

    def test_uniform_tail(self):
        assert abs(beta_quantile(1.0, 1.0, 0.95) - 0.95) < 1e-12

    def test_against_quadrature_oracle(self):
        # frozen from quadrature_beta_quantile(1.0, 1.5, 0.95)
        frozen = 0.8642791193272917
        assert abs(beta_quantile(1.0, 1.5, 0.95) - frozen) < 1e-6
        live = quadrature_beta_quantile(1.0, 1.5, 0.95)
        assert abs(beta_quantile(1.0, 1.5, 0.95) - live) < 1e-6

    def test_quantile_inverts_cdf(self):
        for a, b, alpha in [(0.5, 0.5, 0.2), (2.0, 5.0, 0.7), (1.0, 4.0, 0.95), (3.0, 1.5, 0.01)]:
            x = beta_quantile(a, b, alpha)
            assert abs(regularized_incomplete_beta(a, b, x) - alpha) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.3, 30.0),
        b=st.floats(0.3, 30.0),
        lo=st.floats(0.02, 0.9),
        step=st.floats(0.01, 0.08),
    )
    def test_strictly_increasing_in_alpha(self, a, b, lo, step):
        assert beta_quantile(a, b, lo) < beta_quantile(a, b, lo + step)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.3, 30.0), b=st.floats(0.3, 30.0), alpha=st.floats(0.01, 0.99))
    def test_distribution_symmetry(self, a, b, alpha):
        assert abs(beta_quantile(a, b, alpha) + beta_quantile(b, a, 1.0 - alpha) - 1.0) < 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            beta_quantile(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            beta_quantile(1.0, 1.0, 1.0)
        # scipy returns NaN for each of these; the wrapper raises instead
        for a, b, x in [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, -2.0, 0.5),
                        (1.0, 1.0, -0.1), (1.0, 1.0, 1.1), (1.0, 1.0, float("nan"))]:
            with pytest.raises(ValidationError):
                regularized_incomplete_beta(a, b, x)


class TestPairwiseSqDists:
    def test_three_four_five(self):
        d = pairwise_sq_dists([[0.0, 0.0], [3.0, 4.0]])
        assert d[0, 1] == 25.0 and d[1, 0] == 25.0

    def test_single_point(self):
        assert pairwise_sq_dists([[2.0, 7.0]]).tolist() == [[0.0]]

    def test_matches_naive_double_loop_exactly(self):
        # the oracle sums one coordinate after another; from p = 8 on,
        # np.sum switches to pairwise summation and differs in the last bit
        rng = np.random.default_rng(17)
        for p in (3, 10):
            x = rng.standard_normal((10, p))
            d = pairwise_sq_dists(x)
            for i in range(10):
                for j in range(10):
                    assert d[i, j] == sum(t * t for t in x[i] - x[j])

    def test_cross_form_matches_sequential_loop_exactly(self):
        rng = np.random.default_rng(23)
        for p in (3, 10):
            a = rng.standard_normal((7, p)) * 50.0 + 1000.0
            b = rng.standard_normal((4, p)) * 50.0 + 1000.0
            d = pairwise_sq_dists(a, b)
            assert d.shape == (7, 4)
            for i in range(7):
                for j in range(4):
                    assert d[i, j] == sum(t * t for t in a[i] - b[j])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            pairwise_sq_dists(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        d = pairwise_sq_dists(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality_on_roots(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, (6, 3))
        d = np.sqrt(pairwise_sq_dists(x))
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_as_matrix_rejects_empty():
    with pytest.raises(ValidationError):
        as_matrix(np.zeros((0, 3)))
