"""Metric scaling, kernel-weighted embedding, and the RKHS out-of-sample and
reconstruction machinery.

Metric MDS starts from classical scaling (double centering of the squared
distances) and refines with stress majorization, which never increases the
stress. The out-of-sample model solves the kernel system K alpha = Y with a
scale-invariant ridge; the reconstruction model picks, per data coordinate,
the minimum-norm coefficient vector that makes the training residuals exactly
uncorrelated with every embedding coordinate.
"""

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import _max_asymmetry, _row_blocks, _symmetrize, as_matrix, pairwise_sq_dists, sym_eigen

__all__ = [
    "KernelSpec",
    "Embedding",
    "KernelModel",
    "Reconstructor",
    "kernel_matrix",
    "metric_mds",
    "nadaraya_embed",
    "distinct_rows",
    "fit_out_of_sample",
    "embed_out_of_sample",
    "fit_reconstruction",
    "reconstruct",
]

MDS_MAX_ITER = 500
MDS_REL_TOL = 1e-9

# The modules whose functions fit and evaluate the reconstruction and call
# one another; a warning from them belongs to the code that called in.
_RECONSTRUCTION_MODULES = {__name__, f"{__package__}.indices"}


def _warn_at_caller(message: str) -> None:
    """Warn at the innermost frame outside ``_RECONSTRUCTION_MODULES``: the
    caller of the public function, or of the consistency index's set-up, on
    whichever thread it runs."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") in _RECONSTRUCTION_MODULES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True)
class KernelSpec:
    """The Gaussian kernel exp(-|x - x'|^2 / (2 sigma^2)) and its bandwidth.

    The Gaussian is the package's only kernel; ``family`` names it for the
    record and rejects anything else. The bandwidth is required and must be
    positive and finite.
    """

    family: str = "gaussian"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family != "gaussian":
            raise ValidationError(f"unknown kernel family {self.family!r}; only 'gaussian' exists")
        if self.bandwidth is None or not 0.0 < self.bandwidth < np.inf:
            raise ValidationError(f"bandwidth must be positive and finite, got {self.bandwidth}")


@dataclass
class Embedding:
    """Reduced representation plus provenance."""

    coords: np.ndarray
    algorithm: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coords = as_matrix(self.coords, "embedding coordinates")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """Gaussian cross-kernel matrix k(a_i, b_j).

    The squared distances come from ``pairwise_sq_dists``, so equal points
    are exactly 0 apart: ``kernel_matrix(spec, x, x)`` is exactly symmetric
    with a diagonal of exactly 1. Where 2 sigma^2 leaves the float range the
    kernel is the Gaussian's limit: every weight is 1 when it overflows, and
    1 only where the distance is 0 when it underflows to 0.
    """
    a = as_matrix(a, "kernel input a")
    b = as_matrix(b, "kernel input b")
    if a.shape[1] != b.shape[1]:
        raise ValidationError("kernel inputs must share their dimension")
    k = pairwise_sq_dists(a, b)
    sigma = float(spec.bandwidth)
    scale = 2.0 * (sigma * sigma)
    if scale == np.inf:
        return np.ones_like(k)
    if scale == 0.0:
        return np.where(k == 0.0, 1.0, 0.0)
    # one array, scaled and exponentiated in place; d / -(2 sigma^2) is the
    # float -d / (2 sigma^2), since IEEE division sets the sign apart from
    # the rounded magnitude
    k /= -scale
    return np.exp(k, out=k)


def _validate_distance_matrix(q) -> np.ndarray:
    q = as_matrix(q, "distance matrix")
    n = q.shape[0]
    if q.shape[1] != n:
        raise ValidationError(f"distance matrix must be square, got shape {q.shape}")
    if _max_asymmetry(q) > 1e-12 * float(max(q.max(), -q.min())):
        raise ValidationError("distance matrix is not symmetric")
    if float(np.abs(np.diag(q)).max()) > 0.0:
        raise ValidationError("distance matrix must have a zero diagonal")
    if q.min() < 0.0:
        raise ValidationError("distance matrix has negative entries")
    return q


def classical_scaling(q: np.ndarray, d: int) -> np.ndarray:
    """Coordinates from double centering of the squared distances.

    Only the top d eigenpairs of the double-centred matrix are computed
    (``sym_eigen``'s top-k solve: Lanczos to machine precision relative to
    each eigenvalue, from a fixed start vector, each vector's largest entry
    positive); the matrix is built in place from one copy of the squared
    distances. Negative eigenvalues (non-Euclidean inputs) are clamped to
    zero; they only affect this initialization, the stress refinement works
    on the raw distances.
    """
    b = q * q
    col_means, row_means, mean = b.mean(axis=0), b.mean(axis=1)[:, None], b.mean()
    # -0.5 * (sq - col_means - row_means + mean), one operation at a time
    b -= col_means
    b -= row_means
    b += mean
    b *= -0.5
    eigenvalues, eigenvectors = sym_eigen(_symmetrize(b), d)
    top = np.clip(eigenvalues, 0.0, None)
    return eigenvectors * np.sqrt(top)


def _majorization_terms(q: np.ndarray, y: np.ndarray, b: np.ndarray) -> float:
    """The stress of ``y`` against ``q``, and the Guttman matrix B(y) in ``b``.

    One pass over row blocks of the distances of ``y``. Each block's rows of
    ``b`` first hold the squared residuals (q_ij - |y_i - y_j|)^2; their row
    sums are halved (exact) and the stress is the square root of their
    ``np.sum``, each pair counted once from each end, so the order of the sum
    does not depend on the block size. The rows are then overwritten:
    -q_ij / |y_i - y_j| off the diagonal (-0.0 where the distance is 0) and
    minus the row sum on it, so ``(b @ y) / n`` (``b`` C-ordered) is the
    Guttman transform. Every float is the one the whole s x s arrays would
    give; none of them is formed.
    """
    n = len(q)
    row_sums = np.empty(n)
    for rows in _row_blocks(n, n):
        dist = pairwise_sq_dists(y[rows], y)
        np.sqrt(dist, out=dist)
        block = b[rows]
        np.subtract(q[rows], dist, out=block)
        np.square(block, out=block)
        block.sum(axis=1, out=row_sums[rows])
        block.fill(0.0)
        np.divide(q[rows], dist, out=block, where=dist > 0.0)
        np.negative(block, out=block)
        # entry (r, rows.start + r) of the block, for every row r
        diagonal = block.reshape(-1)[rows.start :: n + 1]
        diagonal[:] = 0.0
        diagonal[:] = -block.sum(axis=1)
    row_sums *= 0.5
    return float(np.sqrt(np.sum(row_sums)))


def metric_mds(q, d: int, stress_trace: list | None = None) -> np.ndarray:
    """Embed a distance matrix into d dimensions by stress minimization.

    Classical scaling provides the start; majorization steps (SMACOF, de
    Leeuw 1988) then lower the stress monotonically until the relative
    change drops below 1e-9 or 500 iterations pass. Appending to
    ``stress_trace`` exposes the per-iteration stress values for convergence
    checks. Besides ``q`` the iteration holds one s x s matrix, the Guttman
    matrix, and one row block of distances.
    """
    q = _validate_distance_matrix(q)
    n = q.shape[0]
    if not 1 <= d < n:
        raise ValidationError(f"target dimension must satisfy 1 <= d < n, got d={d}, n={n}")
    y = classical_scaling(q, d)
    b = np.empty((n, n))
    current = _majorization_terms(q, y, b)
    if stress_trace is not None:
        stress_trace.append(current)
    scale = float(q.max())
    for _ in range(MDS_MAX_ITER):
        if current <= 1e-14 * scale:
            break
        y_next = (b @ y) / n
        nxt = _majorization_terms(q, y_next, b)
        if stress_trace is not None:
            stress_trace.append(nxt)
        if not np.isfinite(nxt):
            raise NumericalError("stress diverged during majorization")
        y = y_next
        if current > 0.0 and (current - nxt) / current < MDS_REL_TOL:
            current = nxt
            break
        current = nxt
    return y


def nadaraya_embed(
    skeletal_coords,
    skeletal_points,
    all_points,
    kernel: KernelSpec,
) -> np.ndarray:
    """Kernel-weighted average of the skeletal embeddings for every point.

    Skeletal points are not pinned: their own row is the weighted average
    including themselves. If every weight for some point underflows to zero
    the point falls back to its nearest skeletal point's embedding and a
    warning is emitted. The n x s weights are formed a row block at a time
    (``numerics._row_blocks``), so memory grows with n + s, not n * s.
    """
    y_skel = as_matrix(skeletal_coords, "skeletal coordinates")
    x_skel = as_matrix(skeletal_points, "skeletal points")
    x_all = as_matrix(all_points, "points")
    if y_skel.shape[0] != x_skel.shape[0]:
        raise ValidationError("skeletal coordinates and points disagree on count")
    n = x_all.shape[0]
    out = np.empty((n, y_skel.shape[1]))
    dead = 0
    for rows in _row_blocks(n, x_skel.shape[0]):
        weights = kernel_matrix(kernel, x_all[rows], x_skel)
        totals = weights.sum(axis=1)[:, None]
        alive = totals > 0.0
        np.divide(weights @ y_skel, totals, out=out[rows], where=alive)
        gone = np.flatnonzero(~alive[:, 0]) + rows.start
        if gone.size:
            dead += gone.size
            out[gone] = y_skel[np.argmin(pairwise_sq_dists(x_all[gone], x_skel), axis=1)]
    if dead:
        warnings.warn(
            f"kernel weights underflowed for {dead} point(s); "
            "falling back to nearest skeletal embedding",
            stacklevel=2,
        )
    return out


@dataclass
class KernelModel:
    """Out-of-sample embedding model: coefficients of the kernel system.

    ``alpha_coefficients`` solves (K + ridge I) alpha = Y on the training
    data, so evaluating the kernel row of a query against the training points
    and multiplying by alpha reproduces the embedding map.
    """

    kernel: KernelSpec
    train_points: np.ndarray
    train_embedding: np.ndarray
    alpha_coefficients: np.ndarray
    ridge: float


def distinct_rows(points) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    A warning names how many exact duplicate rows the indices leave out.
    """
    x = as_matrix(points, "training points")
    _, keep = np.unique(x, axis=0, return_index=True)
    if keep.size < x.shape[0]:
        _warn_at_caller(f"dropped {x.shape[0] - keep.size} duplicate training point(s)")
    return np.sort(keep)


def fit_out_of_sample(train, train_embedding, kernel: KernelSpec) -> KernelModel:
    """Solve the kernel interpolation system for the embedding coefficients.

    Exact duplicate training points would make the kernel matrix singular;
    ``distinct_rows`` drops them with a warning. The ridge is 1e-8
    trace(K)/n, a scale-invariant conditioning floor.
    """
    x = as_matrix(train, "training points")
    y = as_matrix(train_embedding, "training embedding")
    if x.shape[0] != y.shape[0]:
        raise ValidationError("training points and embeddings disagree on count")
    keep = distinct_rows(x)
    x, y = x[keep], y[keep]
    k = kernel_matrix(kernel, x, x)
    n = k.shape[0]
    ridge = 1e-8 * float(np.trace(k)) / n
    alpha = np.linalg.solve(k + ridge * np.eye(n), y)
    return KernelModel(
        kernel=kernel,
        train_points=x,
        train_embedding=y,
        alpha_coefficients=alpha,
        ridge=ridge,
    )


def embed_out_of_sample(model: KernelModel, queries) -> np.ndarray:
    """Evaluate the fitted embedding map at query points."""
    q = as_matrix(queries, "query points")
    return kernel_matrix(model.kernel, q, model.train_points) @ model.alpha_coefficients


@dataclass
class Reconstructor:
    """Map from embedding space back to data space.

    Each data coordinate is the training mean plus a centered-kernel
    expansion over the training embeddings. ``beta_coefficients`` (n x p) is
    the minimum-norm solution making the training residuals uncorrelated
    with every embedding coordinate; ``c_matrix`` (d x p) holds those target
    covariances.
    """

    kernel_y: KernelSpec
    train_embedding: np.ndarray
    column_means: np.ndarray
    beta_coefficients: np.ndarray
    c_matrix: np.ndarray
    kernel_col_means: np.ndarray


def fit_reconstruction(
    train,
    train_embedding,
    kernel_x: KernelSpec,
    kernel_y: KernelSpec,
) -> Reconstructor:
    """Fit the reconstruction map for a reduction of the training data.

    The coefficient of coordinate l solves A^T beta_l = c_l in minimum norm,
    where c_jl is the sample covariance between data coordinate l and
    embedding coordinate j, and A = (1/n) K_y H Y is the constraint matrix
    that turns the residual/embedding covariances into linear functions of
    beta. Rank deficiency of A^T A falls back to the pseudo-inverse.
    ``kernel_x``, the data-space kernel of the reduction, is accepted for
    symmetry with ``fit_out_of_sample``; the fit does not read it.

    K_y is read in row blocks, so memory grows with n, not n^2. Its column
    means are a running sum of its rows in row order, the sum
    ``K_y.mean(axis=0)`` forms, and each row of K_y H Y is its own product.
    """
    x = as_matrix(train, "training points")
    y = as_matrix(train_embedding, "training embedding")
    n = x.shape[0]
    d = y.shape[1]
    if y.shape[0] != n:
        raise ValidationError("training points and embeddings disagree on count")
    if d >= n:
        raise ValidationError(f"reconstruction requires d < n, got d={d}, n={n}")

    x_means = x.mean(axis=0)
    y_means = y.mean(axis=0)
    # c[j, l] = sample covariance of embedding coordinate j with data coordinate l.
    c = (y.T @ x) / n - np.outer(y_means, x_means)

    centered = y - y_means
    a = np.empty((n, d))
    column_sums = np.zeros(n)
    for rows in _row_blocks(n, n):
        k = kernel_matrix(kernel_y, y[rows], y)
        a[rows] = k @ centered
        # fold the running sum into the block's first row, then add the
        # block's rows to it one after another
        k[0] += column_sums
        np.add.reduce(k, axis=0, out=column_sums)
    a /= n
    gram = a.T @ a
    # relative to the system's own scale, so a 2^e multiple of the data has the same rank
    rank = int(np.linalg.matrix_rank(gram, tol=1e-12 * float(np.abs(gram).max())))
    if rank < d:
        _warn_at_caller(
            f"reconstruction constraint system is rank deficient (rank {rank} < {d}); using the pseudo-inverse"
        )
        beta = a @ np.linalg.pinv(gram) @ c
    else:
        beta = a @ np.linalg.solve(gram, c)

    return Reconstructor(
        kernel_y=kernel_y,
        train_embedding=y,
        column_means=x_means,
        beta_coefficients=beta,
        c_matrix=c,
        kernel_col_means=column_sums / n,
    )


def reconstruct(model: Reconstructor, y) -> np.ndarray:
    """Evaluate the reconstruction map at one embedding row or a batch.

    The kernel rows of the queries against the training embeddings are
    formed in row blocks, so a batch of n queries takes memory linear in n.
    """
    arr = np.asarray(y, dtype=float)
    single = arr.ndim == 1
    q = as_matrix(arr.reshape(1, -1) if single else arr, "embedding query")
    if q.shape[1] != model.train_embedding.shape[1]:
        raise ValidationError("embedding query has the wrong dimension")
    out = np.empty((q.shape[0], model.beta_coefficients.shape[1]))
    for rows in _row_blocks(q.shape[0], model.train_embedding.shape[0]):
        k = kernel_matrix(model.kernel_y, q[rows], model.train_embedding)
        k -= model.kernel_col_means
        out[rows] = model.column_means + k @ model.beta_coefficients
    return out[0] if single else out
