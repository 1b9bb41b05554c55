"""The eigendecomposition wrapper, the Beta CDF and quantile, and pairwise distances."""

import os
import subprocess
import sys
from math import lgamma
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import lsdr
from lsdr import numerics
from lsdr.embedding import classical_scaling
from lsdr.errors import NumericalError, ValidationError
from lsdr.numerics import (
    _symmetrize,
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

    @pytest.mark.parametrize("e", [-40, 0, 40])
    @pytest.mark.parametrize("k", [None, 1])
    def test_symmetry_is_checked_relative_to_the_largest_entry(self, e, k):
        m = np.ldexp(np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 1.0]]), e)
        sym_eigen(m, k)
        m[0, 1] += 1e-6 * 3.0 * 2.0**e
        with pytest.raises(ValidationError, match="^sym_eigen input is not symmetric within tolerance$"):
            sym_eigen(m, k)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            sym_eigen(np.ones((2, 3)))


def double_centred(points):
    """-1/2 J D^2 J of a cloud's squared distances, as classical scaling forms it."""
    sq = pairwise_sq_dists(points)
    return _symmetrize(-0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean()))


COLLINEAR = np.c_[np.arange(5.0), 2.0 * np.arange(5.0) + 1.0, np.zeros(5)]

# the top two pairs of the collinear cloud's double-centred matrix and its
# classical scaling at d = 2, printed as hex bytes
COLLINEAR_BYTES = (
    "import numpy as np; from lsdr.embedding import classical_scaling; "
    "from lsdr.numerics import pairwise_sq_dists, sym_eigen; from test_numerics import COLLINEAR, double_centred; "
    "w, v = sym_eigen(double_centred(COLLINEAR), 2); "
    "print((w.tobytes() + v.tobytes() + classical_scaling(np.sqrt(pairwise_sq_dists(COLLINEAR)), 2).tobytes()).hex())"
)


def collinear_bytes() -> bytes:
    w, v = sym_eigen(double_centred(COLLINEAR), 2)
    return w.tobytes() + v.tobytes() + classical_scaling(np.sqrt(pairwise_sq_dists(COLLINEAR)), 2).tobytes()


def assert_top_pairs(m, w, v, k, rtol=1e-12):
    """w holds the k largest eigenvalues of m, descending; v orthonormal eigenvectors."""
    full = np.linalg.eigvalsh(m)[::-1][:k]
    scale = max(1.0, float(np.abs(full).max()))
    assert w.shape == (k,) and v.shape == (len(m), k)
    assert np.all(np.diff(w) <= 0.0)
    assert np.abs(w - full).max() <= rtol * scale
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12
    assert np.abs(m @ v - v * w).max() <= rtol * scale


class TestTopEigenpairs:
    def test_matches_the_full_solve_and_signs_each_vector_by_its_largest_entry(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 30))
        m = m + m.T
        w, v = sym_eigen(m, 3)
        assert_top_pairs(m, w, v, 3)
        # the rule: each vector's entry of largest magnitude (the first of them) is positive
        peak = np.argmax(np.abs(v), axis=0)
        assert np.all(v[peak, np.arange(3)] > 0.0)
        _, full = sym_eigen(m)
        for j in range(3):
            assert min(np.abs(v[:, j] - full[:, j]).max(), np.abs(v[:, j] + full[:, j]).max()) < 1e-10

    def test_an_all_zero_matrix_gives_zero_pairs_without_lanczos(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK was called")

        monkeypatch.setattr(numerics, "eigsh", refuse)
        w, v = sym_eigen(np.zeros((5, 5)), 2)
        assert w.tolist() == [0.0, 0.0]
        assert np.array_equal(v, np.eye(5, 2))
        # coincident points: every distance is zero, so is the start
        assert np.array_equal(classical_scaling(np.zeros((4, 4)), 2), np.zeros((4, 2)))

    def test_the_start_vector_survives_double_centring(self, monkeypatch):
        # the double-centred matrix sends the ones vector to zero, so a start
        # along it would leave Lanczos nothing to work on
        starts = []
        real = numerics.eigsh

        def spy(*args, **kwargs):
            starts.append(kwargs["v0"])
            return real(*args, **kwargs)

        monkeypatch.setattr(numerics, "eigsh", spy)
        b = double_centred(np.random.default_rng(3).standard_normal((12, 2)))
        w, v = sym_eigen(b, 1)
        (v0,) = starts
        assert np.ptp(v0) > 0.5
        assert np.linalg.norm(b @ v0) > 0.1 * np.linalg.norm(b @ v[:, 0])
        assert_top_pairs(b, w, v, 1)

    def test_d_plus_one_points(self):
        # s = d + 1: Lanczos asks for all but one pair
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
        b = double_centred(triangle)
        w, v = sym_eigen(b, 2)
        assert_top_pairs(b, w, v, 2)
        q = np.sqrt(pairwise_sq_dists(triangle))
        y = classical_scaling(q, 2)
        assert np.abs(np.sqrt(pairwise_sq_dists(y)) - q).max() < 1e-12
        line = np.array([[0.0], [1.0]])
        assert np.abs(np.abs(classical_scaling(np.sqrt(pairwise_sq_dists(line)), 1)[:, 0]) - 0.5).max() < 1e-15

    def test_tied_top_eigenvalues(self):
        # a square's corners: the top two eigenvalues are equal, so any
        # orthonormal basis of their plane is a solution; the distances are not
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        b = double_centred(corners)
        w, v = sym_eigen(b, 2)
        assert_top_pairs(b, w, v, 2)
        assert w == pytest.approx([1.0, 1.0], abs=1e-14)
        q = np.sqrt(pairwise_sq_dists(corners))
        y = classical_scaling(q, 2)
        assert np.abs(np.sqrt(pairwise_sq_dists(y)) - q).max() < 1e-12

    def test_rank_below_k_gives_the_same_bytes_on_every_call_and_in_a_fresh_process(self):
        # collinear points at d = 2: the double-centred matrix has rank one, so
        # Lanczos runs out of directions and restarts from generated vectors
        y = classical_scaling(np.sqrt(pairwise_sq_dists(COLLINEAR)), 2)
        assert np.abs(y[:, 1]).max() < 1e-6 * np.abs(y[:, 0]).max()
        first = collinear_bytes()
        # another restarting solve in between must not change the next one
        sym_eigen(double_centred(np.c_[np.arange(8.0), np.zeros(8)]), 3)
        assert collinear_bytes() == first
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(lsdr.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-c", COLLINEAR_BYTES], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        assert fresh.stdout.strip() == first.hex()

    def test_a_failed_lanczos_run_is_a_numerical_error(self, monkeypatch):
        def stall(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((4, 0)))

        monkeypatch.setattr(numerics, "eigsh", stall)
        with pytest.raises(NumericalError, match="top-1 eigensolve failed"):
            sym_eigen(double_centred(np.random.default_rng(5).standard_normal((4, 2))), 1)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_must_lie_below_n(self, k):
        with pytest.raises(ValidationError, match="1 <= k < n"):
            sym_eigen(np.eye(4), k)


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

    def test_a_vector_reads_as_one_column(self):
        v = np.random.default_rng(2).standard_normal(9)
        assert np.array_equal(pairwise_sq_dists(v), pairwise_sq_dists(v[:, None]))
        assert np.array_equal(pairwise_sq_dists(v[:4], v), pairwise_sq_dists(v[:4, None], v[:, None]))

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
