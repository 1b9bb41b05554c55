"""Validated numerics: one eigendecomposition wrapper (every pair, or the top
k), the Beta CDF and quantile behind the edge-pruning threshold, pairwise and
paired squared distances, in-place symmetrizing and the row blocks that bound
the size of dense work.

``sym_eigen`` wraps LAPACK (via numpy) for every pair and ARPACK (via
``scipy.sparse.linalg.eigsh``) for the top k. ``regularized_incomplete_beta``
and ``beta_quantile`` wrap ``scipy.special.betainc`` and ``betaincinv``, adding
the argument checks scipy leaves out (it returns NaN where these raise
``ValidationError``).
"""

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh
from scipy.spatial.distance import cdist
from scipy.special import betainc, betaincinv

from .errors import NumericalError, ValidationError

__all__ = [
    "as_matrix",
    "sym_eigen",
    "regularized_incomplete_beta",
    "beta_quantile",
    "pairwise_sq_dists",
]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf and empty shapes."""
    m = np.asarray(x, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def sym_eigen(m, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in descending order and the matrix whose columns are
    the matching orthonormal eigenvectors. A matrix asymmetric beyond 1e-10
    times its largest magnitude is rejected.

    Without ``k`` every pair comes from LAPACK (via numpy), the vectors
    signed as LAPACK returns them. With ``k`` (1 <= k < n) only the k
    largest pairs come back, from implicitly restarted Lanczos (ARPACK's
    ``eigsh``, ``which="LA"``; Lehoucq, Sorensen & Yang 1998) with
    ``tol=0``, so each Ritz pair converges to machine precision relative to
    its Ritz value. The start vector and the vectors of any restart come
    from one generator seeded with a constant, so a matrix gives the same
    bytes on every call and in every process. The start vector is not the ones
    vector, which a double-centred matrix maps to zero. Each of the k
    vectors is signed so that its entry of largest magnitude, the first of
    them on ties, is positive. An all-zero matrix has no Krylov space: its
    k pairs are zero eigenvalues with the first k unit vectors, and ARPACK
    is not called. A Lanczos run that fails raises ``NumericalError``.
    """
    m = as_matrix(m, "sym_eigen input")
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValidationError(f"sym_eigen input must be square, got shape {m.shape}")
    if _max_asymmetry(m) > 1e-10 * float(max(m.max(), -m.min())):
        raise ValidationError("sym_eigen input is not symmetric within tolerance")
    if k is None:
        w, v = np.linalg.eigh(m)
        order = np.argsort(w)[::-1]
        # reorder the rows of the transpose, so that the eigenvector matrix is
        # column-major as ``v[:, order]`` makes it: products with a matrix of
        # another layout take another BLAS path and round differently
        return w[order], v.T[order].T
    if not 1 <= k < n:
        raise ValidationError(f"sym_eigen needs 1 <= k < n, got k={k}, n={n}")
    if not m.any():
        return np.zeros(k), np.eye(n, k)
    rng = np.random.default_rng(_LANCZOS_SEED)
    try:
        w, v = eigsh(m, k=k, which="LA", tol=0, v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except ArpackError as exc:
        raise NumericalError(f"top-{k} eigensolve failed: {exc}") from None
    # descending, column-major like the full solve's vectors
    return w[::-1], _sign_columns(v[:, ::-1].copy(order="F"))


def _sign_columns(v: np.ndarray) -> np.ndarray:
    """Negate, in place, each column of ``v`` whose entry of largest
    magnitude (the first of them on ties) is negative; return ``v``."""
    peak = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[peak, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    return v


def _max_asymmetry(m: np.ndarray) -> float:
    """max |m - m.T| of a square matrix, in row blocks, with no n x n temporary."""
    n = len(m)
    return max(float(np.abs(m[rows] - m[:, rows].T).max()) for rows in _row_blocks(n, n))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """Overwrite the square ``m`` with 0.5 * (m + m.T) and return it.

    Each pair i < j is averaged once, a row block of the upper triangle at a
    time, and written to both of its entries, so the floats are those of
    ``0.5 * (m + m.T)`` with no n x n temporary.
    """
    n = len(m)
    for rows in _row_blocks(n, n):
        cols = slice(rows.start, n)
        mean = m[rows, cols] + m[cols, rows].T
        mean *= 0.5
        m[rows, cols] = mean
        m[cols, rows] = mean.T
    return m


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete Beta function I_x(a, b), the Beta(a, b) CDF."""
    if not (a > 0 and b > 0):
        raise ValidationError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"incomplete beta argument must lie in [0, 1], got {x}")
    return float(betainc(a, b, x))


def beta_quantile(a: float, b: float, alpha: float) -> float:
    """Quantile of the Beta(a, b) distribution: the x with I_x(a, b) = alpha."""
    if not (a > 0 and b > 0):
        raise ValidationError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"quantile level must lie strictly inside (0, 1), got {alpha}")
    return float(betaincinv(a, b, alpha))


def pairwise_sq_dists(a, b=None, *, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and the rows of b.

    This is the package's one squared-distance kernel; ``b`` defaults to
    ``a``. Every entry sums the squared coordinate differences one coordinate
    after another (``scipy.spatial.distance.cdist``), never the Gram
    expansion |a|^2 + |b|^2 - 2 a.b, so it matches the sequential loop
    ``sum(d * d for d in a[i] - b[j])`` bit for bit: equal points are exactly
    0 apart, equal distances stay tied, and the square form is exactly
    symmetric with a zero diagonal. Given ``out``, a C-contiguous float64
    array of shape (len(a), len(b)), the distances are written there and
    ``out`` is returned, with the same bits; this lets a caller reuse one
    scratch across row blocks.
    """
    a = as_matrix(a, "point cloud")
    b = a if b is None else as_matrix(b, "second point cloud")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"point clouds must share their dimension, got {a.shape[1]} and {b.shape[1]}"
        )
    return cdist(a, b, "sqeuclidean", out=out)


def _paired_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between row i of ``a`` and row i of ``b``.

    The squared coordinate differences are summed one coordinate after
    another, the order ``pairwise_sq_dists`` uses, so each entry equals the
    matching entry of ``pairwise_sq_dists(a, b)`` bit for bit.
    """
    sq = np.zeros(len(a))
    for column in (a - b).T:
        sq += column * column
    return sq


# Dense work is sized to about this many floats (2 MB) per array: row blocks
# of n-wide kernels and distances, the consistency scan's chunks of
# transforms at max(n, p*p) floats each (one bump row, or PCA's scatter), and
# the one scratch of ``knn_metrics``, which holds a block's four n-wide arrays.
_STACK_FLOATS = 2**18

# Seed of the generator that makes the start vector of ``sym_eigen``'s top-k
# solve and the vectors of its restarts: ``eigsh`` asks its caller for restart
# vectors, so a result that needs a restart (a matrix of low rank) does not
# depend on earlier calls.
_LANCZOS_SEED = 0x1A2C


def _row_blocks(n_rows: int, row_floats: int):
    """Consecutive slices covering range(n_rows), each of at least one row and
    otherwise of at most ``_STACK_FLOATS`` floats at ``row_floats`` per row."""
    step = max(1, _STACK_FLOATS // max(row_floats, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))
