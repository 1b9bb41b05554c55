"""Alignment-based quality indices and classical neighbourhood metrics.

The trustability index asks how far an algorithm's full-dimensional
"reduction" is from a similarity transform of the input; the tractable
consistency index asks how much the output moves, modulo similarity
transforms, when the reconstructed part of the data is replaced by a kernel
bump along one axis. Both reduce to the generalized Procrustes problem
solved here in closed form.
"""

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .embedding import (
    Embedding,
    KernelSpec,
    distinct_rows,
    fit_reconstruction,
    kernel_matrix,
    reconstruct,
)
from . import numerics
from .errors import ValidationError
from .numerics import _paired_sq_dists, _row_blocks, _sign_columns, as_matrix, pairwise_sq_dists, sym_eigen

__all__ = [
    "ProcrustesFit",
    "procrustes_fit",
    "AlgorithmAdapter",
    "PcaAdapter",
    "IdentityAdapter",
    "pca_reduce",
    "trustability_index",
    "TransformResult",
    "TciReport",
    "check_transform_subsample",
    "tractable_consistency_index",
    "check_knn_k",
    "knn_metrics",
    "IndexReport",
]


@dataclass
class ProcrustesFit:
    """Optimal similarity transform taking b onto a: a ~ mu + scale * rotation @ b."""

    mu: np.ndarray
    scale: float
    rotation: np.ndarray
    residual: float

    def apply(self, b: np.ndarray) -> np.ndarray:
        return self.mu[None, :] + self.scale * (b @ self.rotation.T)


def procrustes_fit(a, b) -> ProcrustesFit:
    """Solve min over (mu, scale, rotation) of |a - 1 mu^T - scale (rotation b)|_F^2.

    The rotation is U V^T from the SVD of the demeaned cross-product
    Atilde^T Btilde; scale and translation follow from the normal equations,
    and the residual has the closed form trace(At^T At) - trace(S)^2 /
    trace(Bt^T Bt) with S the singular values of that cross-product.
    """
    a = as_matrix(a, "procrustes target")
    b = as_matrix(b, "procrustes source")
    if a.shape != b.shape:
        raise ValidationError(f"procrustes inputs must share shape, got {a.shape} vs {b.shape}")
    a_mean, b_mean = a.mean(axis=0), b.mean(axis=0)
    at, bt = a - a_mean, b - b_mean
    denom = float(np.sum(bt * bt))
    if denom <= 0.0:
        raise ValidationError("procrustes source is constant; scale is undefined")
    u, s, vt = np.linalg.svd(at.T @ bt)
    rotation = u @ vt
    scale = float(np.sum(s)) / denom
    mu = a_mean - scale * rotation @ b_mean
    residual = _closed_form_residuals([_square_sum(at)], s[None], denom)[0]
    return ProcrustesFit(mu=mu, scale=scale, rotation=rotation, residual=residual)


def _square_sum(cloud: np.ndarray) -> float:
    """Sum of the squared entries of a cloud, in the order of a C-contiguous
    array of its squares whatever the cloud's own layout."""
    return float(np.sum(np.multiply(cloud, cloud, order="C")))


def _closed_form_residuals(traces: np.ndarray, s: np.ndarray, denom: float) -> list[float]:
    """trace(At^T At) - (sum of s)^2 / denom for each demeaned target At.

    ``traces`` holds each trace(At^T At) and ``s`` the singular values of each
    At^T Bt.
    """
    sums = np.sum(s, axis=1).tolist()
    return [t - _square_over(u, denom) for t, u in zip(np.asarray(traces, dtype=float).tolist(), sums)]


def _square_over(u: float, denom: float) -> float:
    """u * u / denom on Python floats. Where the square alone overflows, the
    quotient comes from the mantissas and exponents of u and denom instead,
    so a finite quotient stays finite.
    """
    square = u * u
    if square == math.inf:
        (m, e), (md, ed) = math.frexp(u), math.frexp(denom)
        return math.ldexp(m * m / md, 2 * e - ed)
    return square / denom


class AlgorithmAdapter:
    """A named dimensionality-reduction procedure with a uniform interface.

    Subclasses implement ``reduce(d, x) -> Embedding`` deterministically for
    a fixed construction. The consistency index scores its transformed
    clouds in chunks through ``transform_terms``, which by default reduces
    them one at a time with ``reduce``; a subclass may override it with a
    faster form of the same two terms.
    """

    name: str = "adapter"

    def reduce(self, d: int, x: np.ndarray) -> Embedding:
        raise NotImplementedError(f"{type(self).__name__} does not implement reduce")

    def transform_terms(
        self,
        d: int,
        residual_part: np.ndarray,
        bumps: np.ndarray,
        which: np.ndarray,
        axes: np.ndarray,
        base_centered: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two terms the consistency residual reads, for a chunk of transforms.

        ``bumps`` holds one (n,) bump per distinct point of the chunk. Cloud b
        is ``residual_part`` (n, p) with the bump ``bumps[which[b]]`` added to
        column ``axes[b]``. With At its centred (n, d) output and Bt =
        ``base_centered``, returns trace(At^T At) (B,) and At^T Bt (B, d, d).
        Each cloud is reduced on its own and its terms are those
        ``procrustes_fit`` forms, bit for bit. An output of the wrong shape or
        with non-finite entries raises ``ValidationError``.
        """
        traces = np.empty(len(which))
        cross = np.empty((len(which), d, d))
        for b, (row, axis) in enumerate(zip(which, axes)):
            cloud = residual_part.copy()
            cloud[:, axis] += bumps[row]
            moved = _reduced(self, d, cloud)
            at = moved - moved.mean(axis=0)
            traces[b] = _square_sum(at)
            cross[b] = at.T @ base_centered
        return traces, cross


def _reduced(alg: AlgorithmAdapter, d: int, x: np.ndarray) -> np.ndarray:
    """``alg.reduce(d, x).coords``; anything but a finite (n, d) array raises
    ``ValidationError``."""
    coords = alg.reduce(d, x).coords
    if coords.shape != (len(x), d):
        raise ValidationError(f"adapter produced shape {coords.shape}, expected {(len(x), d)}")
    if not np.all(np.isfinite(coords)):
        raise ValidationError("adapter output contains non-finite entries")
    return coords


def pca_reduce(x, d: int) -> Embedding:
    """Projection of the centered data onto the top-d covariance eigenvectors.

    The sign of each eigenvector is fixed by making its largest-magnitude
    entry positive, so the output is deterministic.
    """
    x = as_matrix(x, "data")
    n, p = x.shape
    if not 1 <= d <= p:
        raise ValidationError(f"pca target dimension must satisfy 1 <= d <= p, got {d}")
    centered = x - x.mean(axis=0)
    eigenvalues, eigenvectors = sym_eigen(centered.T @ centered / max(n - 1, 1))
    components = _sign_columns(eigenvectors[:, :d].copy())
    return Embedding(
        coords=centered @ components,
        algorithm="pca",
        params={"d": d, "eigenvalues": eigenvalues[:d].tolist()},
    )


class PcaAdapter(AlgorithmAdapter):
    name = "pca"

    def reduce(self, d: int, x: np.ndarray) -> Embedding:
        return pca_reduce(x, d)

    def transform_terms(self, d, residual_part, bumps, which, axes, base_centered):
        """The same two terms in closed form: one p x p eigenproblem per transform.

        Cloud b centres to Rc + kc e_j^T, with Rc the centred residual part,
        kc the centred bump and j its axis, so its scatter matrix is a
        rank-one update of Rc^T Rc:

            C_b = Rc^T Rc + g e_j^T + e_j g^T + (kc^T kc) e_j e_j^T,  g = Rc^T kc.

        PCA's output is At = (Rc + kc e_j^T) V with V the top-d eigenvectors
        of C_b, so trace(At^T At) is the sum of the top-d eigenvalues and
        At^T Bt = V^T (Rc^T Bt + e_j kc^T Bt): no (n, p) cloud and no (n, d)
        output is formed. kc, g, kc^T Bt and kc^T kc depend only on the point,
        so they are formed once per row of ``bumps`` and gathered by
        ``which``. Every product of a bump over the points is a row-by-row
        einsum, and the products of Rc are the same in every chunk, so a
        transform's terms equal those of one bump row per transform bit for
        bit and do not depend on the chunk it is scored in. A scatter matrix
        with non-finite entries raises ``ValidationError``.
        """
        p = residual_part.shape[1]
        if not 1 <= d <= p:
            raise ValidationError(f"pca target dimension must satisfy 1 <= d <= p, got {d}")
        chunk = len(which)
        rc = residual_part - residual_part.mean(axis=0)
        kc = bumps - bumps.mean(axis=1, keepdims=True)
        # the columns of Rc and of Bt, each contiguous along the points
        columns = np.ascontiguousarray(np.hstack([rc, base_centered]).T)
        products = np.einsum("bn,qn->bq", kc, columns)[which]
        g, kc_bt = products[:, :p], products[:, p:]
        rows = np.arange(chunk)
        scatter = np.repeat((rc.T @ rc)[None], chunk, axis=0)
        scatter[rows, :, axes] += g
        scatter[rows, axes, :] += g
        scatter[rows, axes, axes] += np.einsum("bn,bn->b", kc, kc)[which]
        cross = np.repeat((rc.T @ base_centered)[None], chunk, axis=0)
        cross[rows, axes, :] += kc_bt
        if not (np.all(np.isfinite(scatter)) and np.all(np.isfinite(cross))):
            raise ValidationError("pca scatter matrix contains non-finite entries")
        eigenvalues, eigenvectors = np.linalg.eigh(scatter)
        top = eigenvectors[:, :, p - d :]
        return np.sum(eigenvalues[:, p - d :], axis=1), np.einsum("bqi,bqk->bik", top, cross)


class IdentityAdapter(AlgorithmAdapter):
    """Returns the first d coordinates unchanged; zero-trustability reference."""

    name = "identity"

    def reduce(self, d: int, x: np.ndarray) -> Embedding:
        x = as_matrix(x, "data")
        if not 1 <= d <= x.shape[1]:
            raise ValidationError(f"identity adapter needs 1 <= d <= p, got {d}")
        return Embedding(coords=x[:, :d].copy(), algorithm="identity", params={"d": d})


def trustability_index(alg: AlgorithmAdapter, x) -> float:
    """Procrustes discrepancy of the algorithm's full-dimensional output.

    The similarity-alignment residual of X onto Y = reduce(p, X), in the
    closed form of ``procrustes_fit``, and therefore zero (up to roundoff)
    whenever the output is a translated, scaled rotation of the input. An
    output that is not a finite (n, p) array raises ``ValidationError``.
    """
    x = as_matrix(x, "data")
    xt = x - x.mean(axis=0)
    if float(np.sum(xt * xt)) <= 0.0:
        raise ValidationError("data has zero total variance; trustability is undefined")
    return procrustes_fit(_reduced(alg, x.shape[1], x), x).residual


@dataclass
class TransformResult:
    """Outcome of one boundary transform in the consistency scan."""

    point_index: int
    axis: int
    residual: float | None
    failed: bool = False
    message: str = ""


@dataclass
class TciReport:
    """Max residual over the evaluated transform set plus per-transform detail.

    ``value`` is None when no transform was scored (every one failed): zero
    is the score of a perfectly consistent algorithm, not of one that could
    not be scored. ``base`` holds the output on the untransformed data, the
    coordinates every residual is measured against.
    """

    value: float | None
    contributions: list[TransformResult]
    subsampled: bool
    n_transforms_total: int
    base: np.ndarray

    @property
    def failed_transforms(self) -> list[TransformResult]:
        return [t for t in self.contributions if t.failed]


def _sampled_sq_distances(points: np.ndarray) -> np.ndarray:
    """Squared distances of a seeded sample of pairs of distinct rows: about
    16 pairs per row, and at most ``numerics._STACK_FLOATS``."""
    n = len(points)
    rng = np.random.default_rng(0x3ED1A)
    size = min(numerics._STACK_FLOATS, 16 * n)
    first = rng.integers(n, size=size)
    second = rng.integers(n - 1, size=size)
    second += second >= first
    return _paired_sq_dists(points[first], points[second])


def _bracket_pass(points: np.ndarray, lo: float, hi: float) -> tuple[int, int, np.ndarray]:
    """One pass over the squared distances of the pairs i < j, in row blocks.

    Returns how many are zero, how many are positive and below ``lo`` (which
    is positive), and the values in [lo, hi].
    """
    zeros = below = 0
    inside = []
    for rows in _row_blocks(len(points), len(points)):
        dist = pairwise_sq_dists(points[rows], points[rows.start :])
        # the pairs j <= i of the block's own rows drop out of every count
        dist[:, : len(dist)][np.tri(len(dist), dtype=bool)] = np.nan
        zero = np.count_nonzero(dist == 0.0)
        zeros += zero
        below += np.count_nonzero(dist < lo) - zero
        inside.append(dist[(dist >= lo) & (dist <= hi)])
    return zeros, below, np.concatenate(inside)


def _positive_distance_median(points: np.ndarray) -> float:
    """``np.median`` of the positive pairwise distances of the rows, as a
    float, or 1.0 when no two rows differ, without the n(n-1)/2 distances.

    A seeded sample of pairs brackets the two middle order statistics of the
    squared distances; one blocked pass counts the values below the bracket
    and collects those inside it. A bracket that misses a middle value is
    widened on that side, fourfold in sample rank, and the pass repeated; at
    full width it holds every positive value. The square root is monotone and
    correctly rounded, and every distance is the root of its squared
    distance, so the middle distances are the roots of the middle squared
    distances and the median is their mean, (a + b) / 2, as ``np.median``
    forms it.
    """
    n = len(points)
    pairs = n * (n - 1) // 2
    if pairs == 0:
        return 1.0
    sample = _sampled_sq_distances(points)
    sample = np.sort(sample[sample > 0.0])
    m = len(sample)
    tiny = np.finfo(float).smallest_subnormal
    width = [2.0 / np.sqrt(max(m, 1))] * 2
    while True:
        lo_rank = int(np.floor(m * (0.5 - width[0])))
        hi_rank = int(np.ceil(m * (0.5 + width[1])))
        lo = sample[lo_rank] if 0 <= lo_rank < m else tiny
        hi = sample[hi_rank] if hi_rank < m else np.inf
        zeros, below, inside = _bracket_pass(points, lo, hi)
        positive = pairs - zeros
        if positive == 0:
            return 1.0
        low, high = (positive - 1) // 2 - below, positive // 2 - below
        if 0 <= low and high < len(inside):
            a, b = np.sqrt(np.partition(inside, [low, high])[[low, high]])
            return float(a) if low == high else float((a + b) / 2)
        width[0] *= 4.0 if low < 0 else 1.0
        width[1] *= 4.0 if high >= len(inside) else 1.0


def check_transform_subsample(count: int | None) -> None:
    """Reject a consistency-index transform subsample below 1 (None is the full set)."""
    if count is not None and count < 1:
        raise ValidationError(f"transform subsample must be at least 1, got {count}")


def tractable_consistency_index(
    alg: AlgorithmAdapter,
    x,
    d: int,
    kernel: KernelSpec,
    transform_subsample: int | None = None,
    seed: int = 0,
) -> TciReport:
    """Worst-case output movement over the finite boundary transform set.

    Each transform sends the reconstructed data through a Gaussian bump along
    one coordinate axis, keeps the reconstruction residual untouched, reruns
    the algorithm and measures the Procrustes residual against the original
    output. The full set has n*p transforms; a seeded uniform subsample keeps
    the cost tractable, at the price of reporting a lower bound; a subsample
    below 1 is rejected. Transforms run in chunks through one scan:
    ``alg.transform_terms`` gives each transform's trace(At^T At) and At^T Bt
    from one bump per distinct point of the chunk, and one residual rule
    scores them. An output that is wrong-shaped or not finite is a failure,
    as is an adapter that raises or gives terms for a different number of
    transforms. A failing chunk goes back through the same scan one
    transform at a time, so each failing transform is recorded with its own
    message and excluded.
    The output on the untransformed data, the base every residual is
    measured against, must itself be a finite (n, d) array, else
    ``ValidationError``.

    The default ``transform_terms`` (the pipeline, identity and user
    adapters) reduces one transformed cloud at a time, so the residuals equal
    the one-transform-at-a-time scan's bit for bit. PCA's terms are in closed
    form (``PcaAdapter``): each residual lies within 1e-12 * trace(At^T At)
    of the rerun's, the roundoff of a top-d eigenvalue sum against a sum of
    squared coordinates, and does not depend on the chunk it is scored in.

    The set-up holds no n x n array: the output kernel's bandwidth is the
    median positive pairwise output distance from ``_positive_distance_median``,
    and the reconstruction x_hat is fitted and evaluated on row blocks of its
    kernel, so memory grows with n, not n^2.
    """
    check_transform_subsample(transform_subsample)
    x = as_matrix(x, "data")
    base = _reduced(alg, d, x)
    return _consistency_scan(alg, x, d, kernel, transform_subsample, seed, base, _consistency_setup(x, base))


def _consistency_setup(x: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The consistency index's set-up: x_hat, the reconstruction of x from
    its output ``base``, fitted on the distinct rows of x with the output
    kernel at the median positive output distance. It reads nothing else, so
    a caller can run it beside other work; its warnings point at the first
    frame outside this module and ``embedding``."""
    kernel_y = KernelSpec("gaussian", _positive_distance_median(base))
    keep = distinct_rows(x)
    recon = fit_reconstruction(x[keep], base[keep], kernel_y, kernel_y)
    return reconstruct(recon, base)


def _consistency_scan(
    alg: AlgorithmAdapter,
    x: np.ndarray,
    d: int,
    kernel: KernelSpec,
    transform_subsample: int | None,
    seed: int,
    base: np.ndarray,
    x_hat: np.ndarray,
    helper: Executor | None = None,
) -> TciReport:
    """The consistency index's transforms scored against ``base`` with the
    set-up's ``x_hat``, as ``tractable_consistency_index`` describes.

    With a ``helper`` executor, every chunk is queued on it last chunk
    first, so the helper takes chunks from the end while this thread walks
    them from the start: it scores each chunk whose future it can still
    cancel and takes the result of one the helper has begun. The results are
    joined in chunk order, so the report is the serial scan's, and an error
    that ``scan`` does not catch surfaces at its chunk's position. The
    adapter must then be safe to call from two threads at once. Whatever is
    still queued when this thread stops, on an error too, is cancelled.
    """
    n, p = x.shape
    residual_part = x - x_hat

    n_total = n * p
    if transform_subsample is not None and transform_subsample < n_total:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x7C1])
        chosen = np.sort(rng.choice(n_total, size=transform_subsample, replace=False))
        subsampled = True
    else:
        chosen = np.arange(n_total)
        subsampled = False
    points, axes = np.divmod(chosen, p)

    base_centered = base - base.mean(axis=0)
    denom = float(np.sum(base_centered * base_centered))
    # constant up to the rounding of its mean: a floor relative to the base's
    # own magnitude, so a 2^e multiple of the base is judged alike
    base_constant = denom <= 1e-24 * float(np.sum(base * base))

    def scan(rows: np.ndarray, cols: np.ndarray) -> list[TransformResult]:
        """Reduce and score the given transforms."""
        try:
            distinct, which = np.unique(rows, return_inverse=True)
            bumps = kernel_matrix(kernel, x[distinct], x_hat)
            traces, cross = alg.transform_terms(d, residual_part, bumps, which, cols, base_centered)
            if len(traces) != len(rows) or len(cross) != len(rows):
                raise ValidationError(
                    f"adapter gave {len(traces)} traces and {len(cross)} cross terms, expected {len(rows)} of each"
                )
            if base_constant:
                # the similarity term vanishes; only the translation is free
                residuals = [float(t) for t in traces]
            else:
                _, s, _ = np.linalg.svd(cross)
                residuals = _closed_form_residuals(traces, s, denom)
        except Exception as exc:  # noqa: BLE001 - any adapter failure is recorded
            if len(rows) > 1:
                return [t for k in range(len(rows)) for t in scan(rows[k : k + 1], cols[k : k + 1])]
            return [TransformResult(int(rows[0]), int(cols[0]), residual=None, failed=True, message=str(exc))]
        return [TransformResult(i, j, residual=r) for i, j, r in zip(rows.tolist(), cols.tolist(), residuals)]

    # a transform is charged max(n, p*p) floats, its (n,) bump row or PCA's
    # (p, p) scatter matrix, so each of a chunk's arrays stays within
    # numerics._STACK_FLOATS
    chunks = list(_row_blocks(len(chosen), max(n, p * p)))
    # last chunk first: queued in order, both threads would reach for the same chunk
    queued = [] if helper is None else [helper.submit(scan, points[c], axes[c]) for c in reversed(chunks)][::-1]
    contributions: list[TransformResult] = []
    try:
        for k, chunk in enumerate(chunks):
            if helper is None or queued[k].cancel():
                contributions += scan(points[chunk], axes[chunk])
            else:
                contributions += queued[k].result()
    finally:
        for future in queued:
            future.cancel()
    residuals = [t.residual for t in contributions if not t.failed]
    return TciReport(
        value=max(residuals) if residuals else None,
        contributions=contributions,
        subsampled=subsampled,
        n_transforms_total=n_total,
        base=base,
    )


def check_knn_k(n: int, k: int) -> None:
    """Reject a neighbourhood size k outside 1 <= k <= n/2 or k = n - 1.

    The normaliser n k (2n - 3k - 1) of trustworthiness and continuity bounds
    their penalties only while 2k <= n: past that the values leave [0, 1],
    and at 2n - 3k - 1 = 0 they are undefined. At k = n - 1 every point is
    every other point's neighbour and all three metrics are 1.
    """
    if not (1 <= k and (2 * k <= n or k == n - 1)):
        raise ValidationError(f"k must satisfy 1 <= k <= n/2 or k = n - 1, got k={k}, n={n}")


def _neighbourhoods(points: np.ndarray, own: np.ndarray, k: int, out: np.ndarray | None = None):
    """Distances, sorted distances and neighbourhoods of the rows ``own``.

    Row i holds the squared distances from point own[i] to every point, its
    own entry set to -1, below every distance; ``ordered`` holds each row
    sorted. Given ``out``, a (2, len(own), len(points)) float array whose
    two planes are C-contiguous, the distances and the sorted rows are
    written into its planes, with the bits of fresh arrays. The mask keeps
    the k + 1 smallest entries of each row, the point and its k neighbours,
    ties broken by ascending index: every entry up to the (k + 1)-th
    smallest value, except in a row with more entries equal to that value
    than there is room for, which keeps only the first of those.
    """
    if out is None:
        out = np.empty((2, len(own), len(points)))
    dist = pairwise_sq_dists(points[own], points, out=out[0])
    dist[np.arange(len(own)), own] = -1.0
    ordered = out[1]
    np.copyto(ordered, dist)
    ordered.sort(axis=1)
    kth = ordered[:, k, None]
    near = dist <= kth
    if k + 1 < len(points):
        crowded = np.flatnonzero(ordered[:, k + 1] == ordered[:, k])
        rows, kth = dist[crowded], kth[crowded]
        tied = rows == kth
        room = k + 1 - np.count_nonzero(rows < kth, axis=1, keepdims=True)
        near[crowded] = (rows < kth) | (tied & (np.cumsum(tied, axis=1) <= room))
    return dist, ordered, near


def _rank_sum(dist: np.ndarray, ordered: np.ndarray, picked: np.ndarray) -> int:
    """Sum of the ranks of the picked entries of ``dist`` within their rows.

    An entry's rank counts the entries of its row strictly below it, found
    by bisecting the sorted row ``ordered``, plus the equal ones at a lower
    index, so the row's own point (at -1) has rank 0 and its nearest
    neighbour rank 1. The bisection runs for every entry at once: the count
    below grows by each power of two, largest first, while the sorted value
    it would step past is still below the entry (the lower bound that
    ``searchsorted`` finds). Entries are found and read by their positions
    in the raveled arrays, row * n + column.
    """
    n = dist.shape[1]
    flat = np.flatnonzero(picked)
    starts = flat - flat % n
    values = dist.ravel()[flat]
    ordered = ordered.ravel()
    below = np.zeros(len(values), dtype=np.intp)
    for step in (1 << np.arange(n.bit_length()))[::-1]:
        ahead = below + step
        below[(ahead <= n) & (ordered[starts + np.minimum(ahead, n) - 1] < values)] += step
    total = int(below.sum())
    # an entry has a tie when the next value of its sorted row equals it; the
    # last value of a row is compared with itself, and its count finds nothing
    tied = ordered[starts + np.minimum(below + 1, n - 1)] == values
    for at, v in zip(flat[tied], values[tied]):
        r, c = divmod(int(at), n)
        total += int(np.count_nonzero(dist[r, :c] == v))
    return total


def knn_metrics(x, y, k: int) -> tuple[float, float, float]:
    """Separability, trustworthiness and continuity of an embedding.

    Separability is the average fraction of high-dimensional k-neighbours
    kept in the embedding. Trustworthiness penalizes intruders (embedding
    neighbours that are not data neighbours) by their data rank; continuity
    penalizes the points an embedding drops, by their embedding rank. Ranks
    come from exact squared Euclidean distances, ties broken by ascending
    index; ``check_knn_k`` gives the valid k. Rows are taken in blocks of
    ``_row_blocks(n, 4 * n)``, and each call allocates one scratch for a
    block's four n-wide arrays (data distances, their sorted rows, embedding
    distances, theirs), of at most ``numerics._STACK_FLOATS`` floats (2 MB),
    or 4n floats when one row needs more. Every block reuses it: distances
    go in through ``pairwise_sq_dists(out=)`` and are sorted in place, so
    memory grows with n, not n^2, and no block maps fresh pages.
    """
    x = as_matrix(x, "data")
    y = as_matrix(y, "embedding")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValidationError("data and embedding disagree on count")
    check_knn_k(n, k)
    blocks = list(_row_blocks(n, 4 * n))
    scratch = np.empty((2, 2, blocks[0].stop, n))
    missed = trust_penalty = cont_penalty = 0
    for rows in blocks:
        own = np.arange(rows.start, rows.stop)
        dist_x, ordered_x, near_x = _neighbourhoods(x, own, k, out=scratch[0, :, : len(own)])
        dist_y, ordered_y, near_y = _neighbourhoods(y, own, k, out=scratch[1, :, : len(own)])
        dropped = near_x & ~near_y
        intruders = near_y & ~near_x
        n_dropped = int(np.count_nonzero(dropped))
        missed += n_dropped
        # every row drops as many points as it gains intruders
        trust_penalty += _rank_sum(dist_x, ordered_x, intruders) - k * n_dropped
        cont_penalty += _rank_sum(dist_y, ordered_y, dropped) - k * n_dropped
    tsi = 1.0 - missed / (n * k)
    norm = n * k * (2 * n - 3 * k - 1)
    trust = 1.0 - 2.0 * trust_penalty / norm if trust_penalty else 1.0
    cont = 1.0 - 2.0 * cont_penalty / norm if cont_penalty else 1.0
    return tsi, trust, cont


@dataclass
class IndexReport:
    """Collected index values for one (algorithm, dataset) pair."""

    algorithm: str
    dataset: str
    n: int
    ti: float | None = None
    tci: TciReport | None = None
    knn_k: int | None = None
    tsi: float | None = None
    trustworthiness: float | None = None
    continuity: float | None = None
    tci_bandwidth: float | None = None

    def _values(self) -> dict:
        """The seven index values, each raw value beside its value over n,
        that ``to_dict`` and ``csv_row`` both report."""
        tci = None if self.tci is None else self.tci.value
        return {
            "ti": self.ti,
            "ti_normalized": None if self.ti is None else self.ti / self.n,
            "tci": tci,
            "tci_normalized": None if tci is None else tci / self.n,
            "tsi": self.tsi,
            "trustworthiness": self.trustworthiness,
            "continuity": self.continuity,
        }

    def to_dict(self) -> dict:
        data = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "n": self.n,
            "knn_k": self.knn_k,
            **self._values(),
        }
        if self.tci_bandwidth is not None:
            data["tci_bandwidth"] = self.tci_bandwidth
        if self.tci is None:
            del data["tci"], data["tci_normalized"]
        else:
            data["tci_subsampled_lower_bound"] = self.tci.subsampled
            data["tci_transforms_total"] = self.tci.n_transforms_total
            data["tci_contributions"] = [vars(t).copy() for t in self.tci.contributions]
        return data

    def csv_row(self) -> tuple[str, str]:
        """Header and one data row shaped like the summary tables, with the
        values ``to_dict`` gives under the same keys."""
        values = self._values()
        row = [self.dataset, self.algorithm, str(self.n)]
        row += ["" if v is None else repr(float(v)) for v in values.values()]
        return ",".join(("dataset", "algorithm", "n", *values)), ",".join(row)
