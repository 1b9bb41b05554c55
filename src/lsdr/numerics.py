"""Dense linear algebra, pairwise squared distances and the regularized
incomplete Beta quantile.

The factorizations are thin validated wrappers over LAPACK (via numpy); the
incomplete Beta function and its quantile are implemented here directly with
a continued fraction plus a bracketed bisection/Newton inversion, since the
edge-pruning threshold depends on them and they have to be dependable on
their own.
"""

from dataclasses import dataclass
from math import lgamma, log

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NumericalError, ValidationError

__all__ = [
    "as_matrix",
    "SvdResult",
    "svd",
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


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``u @ diag(singular_values) @ v.T`` of the input.

    ``u`` is n x r and ``v`` is p x r with orthonormal columns; singular
    values are sorted descending.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        s = self.singular_values
        if s.size == 0:
            return 0
        return int(np.count_nonzero(s > 1e-12 * s[0]))

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.v.T


def svd(m) -> SvdResult:
    """Singular value decomposition with finite-input validation."""
    m = as_matrix(m, "svd input")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u=u, singular_values=s, v=vt.T)


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of each matrix in a stack.

    Returns eigenvalues in descending order and the matrix whose columns are
    the matching orthonormal eigenvectors; a (B, k, k) stack gives (B, k)
    eigenvalues and (B, k, k) eigenvectors. A matrix asymmetric beyond
    1e-10 * max(1, |m|) is rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 3:
        m = as_matrix(m, "sym_eigen input")
    elif m.size == 0 or not np.all(np.isfinite(m)):
        raise ValidationError(f"sym_eigen input stack must be non-empty and finite, got shape {m.shape}")
    if m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"sym_eigen input must be square, got shape {m.shape}")
    tol = 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - np.swapaxes(m, -2, -1)).max(axis=(-2, -1)) > tol):
        raise ValidationError("sym_eigen input is not symmetric within tolerance")
    w, v = np.linalg.eigh(m)
    order = np.argsort(w, axis=-1)[..., ::-1]
    # reorder the rows of the transpose, so that each eigenvector matrix is
    # column-major as ``v[:, order]`` makes it: products with a matrix of
    # another layout take another BLAS path and round differently
    vt = np.take_along_axis(np.swapaxes(v, -2, -1), order[..., :, None], axis=-2)
    return np.take_along_axis(w, order, axis=-1), np.swapaxes(vt, -2, -1)


def _beta_cont_frac(a: float, b: float, x: float, max_iter: int = 500, eps: float = 1e-16) -> float:
    """Continued fraction for the incomplete Beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for it in range(1, max_iter + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NumericalError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete Beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValidationError(f"beta parameters must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValidationError(f"incomplete beta argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    lbeta = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    front = np.exp(lbeta)
    # Continued fraction converges fast on one side of the mean; mirror otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def beta_quantile(a: float, b: float, alpha: float) -> float:
    """Quantile of the Beta(a, b) distribution.

    Bracketed bisection narrows the root of I_x(a, b) = alpha, then Newton
    steps (safeguarded against leaving the bracket) polish it to 1e-12.
    """
    if a <= 0 or b <= 0:
        raise ValidationError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"quantile level must lie strictly inside (0, 1), got {alpha}")

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-8:
            break

    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    x = 0.5 * (lo + hi)
    for _ in range(60):
        f = regularized_incomplete_beta(a, b, x) - alpha
        if f > 0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(f) < 1e-15:
            break
        if 0.0 < x < 1.0:
            log_pdf = log_norm + (a - 1.0) * log(x) + (b - 1.0) * log(1.0 - x)
            step = f * np.exp(-log_pdf) if log_pdf > -700 else None
        else:
            step = None
        if step is not None and lo < x - step < hi:
            nxt = x - step
        else:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) < 1e-12 * max(1.0, abs(x)):
            x = nxt
            break
        x = nxt
    return float(min(max(x, 0.0), 1.0))


def pairwise_sq_dists(a, b=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and the rows of b.

    This is the package's one squared-distance kernel; ``b`` defaults to
    ``a``. Every entry sums the squared coordinate differences one coordinate
    after another (``scipy.spatial.distance.cdist``), never the Gram
    expansion |a|^2 + |b|^2 - 2 a.b, so it matches the sequential loop
    ``sum(d * d for d in a[i] - b[j])`` bit for bit: equal points are exactly
    0 apart, equal distances stay tied, and the square form is exactly
    symmetric with a zero diagonal.
    """
    a = as_matrix(a, "point cloud")
    b = a if b is None else as_matrix(b, "second point cloud")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"point clouds must share their dimension, got {a.shape[1]} and {b.shape[1]}"
        )
    return cdist(a, b, "sqeuclidean")
