"""Seeded synthetic dataset generators.

Every family is a pure function of (spec, seed): regenerating with the same
spec gives the identical cloud. Default parameters are sized so the standard
qualitative behaviours (separated clusters, resolvable spiral windings,
closed knots) appear at a few hundred points.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["DatasetSpec", "generate", "spiral_with_angle", "FAMILIES"]


@dataclass(frozen=True)
class DatasetSpec:
    """Family name, size, noise scale and family-specific parameters.

    ``p`` >= 1 is taken by gaussian clusters and the uniform hypercube only;
    ``noise`` must be finite and >= 0. ``params`` may set ``turns`` > 0
    (spiral), ``clusters`` >= 1 (gaussian and circular clusters), a finite
    ``separation`` (gaussian and two linear clusters) and finite ``gaps``
    (gaussian clusters); every other shape constant is fixed, and a key the
    family's generator does not read is rejected.
    """

    family: str
    n: int
    p: int | None = None
    noise: float | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown dataset family {self.family!r}")
        if self.n < 1:
            raise ValidationError(f"dataset size must be positive, got {self.n}")
        if self.p is not None and self.family not in _TAKES_P:
            raise ValidationError(f"dataset family {self.family!r} has a fixed dimension and takes no p")
        if self.p is not None and self.p < 1:
            raise ValidationError(f"dataset dimension p must be at least 1, got {self.p}")
        if self.noise is not None and not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValidationError(f"dataset noise must be finite and non-negative, got {self.noise}")
        unknown = [str(key) for key in self.params if key not in _PARAMS.get(self.family, ())]
        if unknown:
            raise ValidationError(f"dataset family {self.family!r} takes no parameter {', '.join(unknown)}")
        if int(self.params.get("clusters", 1)) < 1:
            raise ValidationError(f"dataset needs at least 1 cluster, got {self.params['clusters']}")
        turns = float(self.params.get("turns", 1.0))
        if not (np.isfinite(turns) and turns > 0):
            raise ValidationError(f"dataset turns must be finite and positive, got {turns}")
        for key in ("separation", "gaps"):
            value = self.params.get(key, 0.0)
            if not np.isfinite(value).all():
                raise ValidationError(f"dataset {key} must be finite, got {value}")


def _rng(spec: DatasetSpec) -> np.random.Generator:
    return np.random.default_rng([int(spec.seed) & 0xFFFFFFFF, 0xD5])


def spiral_with_angle(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Planar spiral r = r0 + pitch * theta; returns the cloud and theta.

    Points are stratified uniformly in arc length (one per equal-length cell,
    using s = r0 t + pitch t^2 / 2), so the outer windings are as densely
    covered as the inner ones and the sorted rows are monotone in the
    generating angle. The noise parameter is the half-width of a uniform
    coordinate jitter; bounded noise keeps the strip's edges hard, which the
    boundary detection relies on.
    """
    rng = _rng(spec)
    turns = float(spec.params.get("turns", 1.25))
    r0, pitch = 1.0, 0.5
    noise = 0.6 if spec.noise is None else spec.noise
    span = turns * 2.0 * np.pi
    total_arc = r0 * span + 0.5 * pitch * span**2
    s = np.sort((np.arange(spec.n) + rng.uniform(0.0, 1.0, spec.n)) * (total_arc / spec.n))
    theta = (-r0 + np.sqrt(r0**2 + 2.0 * pitch * s)) / pitch
    r = r0 + pitch * theta
    pts = np.c_[r * np.cos(theta), r * np.sin(theta)]
    pts += rng.uniform(-noise, noise, pts.shape)
    return pts, theta


def _swiss_roll(spec: DatasetSpec, rng) -> np.ndarray:
    noise = 0.05 if spec.noise is None else spec.noise
    height = 10.0
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, spec.n)
    h = rng.uniform(0.0, height, spec.n)
    pts = np.c_[t * np.cos(t), h, t * np.sin(t)]
    return pts + rng.normal(0.0, noise, pts.shape)


def _blobs(n: int, centers: np.ndarray, sigma: float, rng) -> np.ndarray:
    """``n`` normal points of scale ``sigma`` around the rows of ``centers``,
    cluster by cluster; the first ``n % len(centers)`` clusters get one more."""
    clusters, p = centers.shape
    sizes = [n // clusters + (c < n % clusters) for c in range(clusters)]
    return np.vstack([rng.normal(0.0, sigma, (size, p)) + centers[c] for c, size in enumerate(sizes)])


def _gaussian_clusters(spec: DatasetSpec, rng) -> np.ndarray:
    p = spec.p or 10
    clusters = int(spec.params.get("clusters", 3))
    sigma = 1.0 if spec.noise is None else spec.noise
    gaps = spec.params.get("gaps")
    if gaps is None:
        gaps = [float(spec.params.get("separation", 10.0))] * (clusters - 1)
    if len(gaps) != clusters - 1:
        raise ValidationError(f"need {clusters - 1} gaps for {clusters} clusters, got {len(gaps)}")
    centers = np.zeros((clusters, p))
    for c in range(1, clusters):
        centers[c] = centers[c - 1]
        centers[c, 0] += float(gaps[c - 1])
    return _blobs(spec.n, centers, sigma, rng)


def _uniform_hypercube(spec: DatasetSpec, rng) -> np.ndarray:
    p = spec.p or 10
    return rng.uniform(0.0, 1.0, (spec.n, p))


def _sphere_surface(spec: DatasetSpec, rng) -> np.ndarray:
    noise = 0.0 if spec.noise is None else spec.noise
    raw = rng.standard_normal((spec.n, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    if noise:
        raw *= 1.0 + rng.normal(0.0, noise, spec.n)[:, None]
    return raw


def _grid(spec: DatasetSpec, rng) -> np.ndarray:
    noise = 0.0 if spec.noise is None else spec.noise
    side = int(np.ceil(np.sqrt(spec.n)))
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    pts = np.c_[xs.ravel(), ys.ravel()][: spec.n]
    if noise:
        pts = pts + rng.normal(0.0, noise, pts.shape)
    return pts


def _circle(n: int, rng) -> np.ndarray:
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    return np.c_[np.cos(t), np.sin(t), np.zeros(n)]


def _two_circles(spec: DatasetSpec, rng, linked: bool) -> np.ndarray:
    noise = 0.02 if spec.noise is None else spec.noise
    half = spec.n // 2
    first = _circle(half, rng)
    second = _circle(spec.n - half, rng)
    if linked:
        # rotate the second circle into the xz-plane and thread it through the first
        second = second[:, [0, 2, 1]]
    second[:, 0] += 1.0 if linked else 3.0
    pts = np.vstack([first, second])
    return pts + rng.normal(0.0, noise, pts.shape)


def _trefoil_knot(spec: DatasetSpec, rng) -> np.ndarray:
    noise = 0.02 if spec.noise is None else spec.noise
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, spec.n))
    pts = np.c_[
        np.sin(t) + 2.0 * np.sin(2.0 * t),
        np.cos(t) - 2.0 * np.cos(2.0 * t),
        -np.sin(3.0 * t),
    ]
    return pts + rng.normal(0.0, noise, pts.shape)


def _two_linear_clusters(spec: DatasetSpec, rng) -> np.ndarray:
    noise = 0.15 if spec.noise is None else spec.noise
    length = 10.0
    separation = float(spec.params.get("separation", 2.0))
    half = spec.n // 2
    xs_a = rng.uniform(0.0, length, half)
    xs_b = rng.uniform(0.0, length, spec.n - half)
    a = np.c_[xs_a, np.zeros(half)]
    b = np.c_[xs_b, np.full(spec.n - half, separation)]
    pts = np.vstack([a, b])
    return pts + rng.normal(0.0, noise, pts.shape)


def _circular_clusters(spec: DatasetSpec, rng) -> np.ndarray:
    noise = 0.1 if spec.noise is None else spec.noise
    clusters = int(spec.params.get("clusters", 6))
    radius = 5.0
    angles = 2.0 * np.pi * np.arange(clusters) / clusters
    centers = np.c_[radius * np.cos(angles), radius * np.sin(angles), np.zeros(clusters)]
    return _blobs(spec.n, centers, noise, rng)


_GENERATORS = {
    "spiral": lambda spec, rng: spiral_with_angle(spec)[0],
    "swiss_roll": _swiss_roll,
    "gaussian_clusters": _gaussian_clusters,
    "uniform_hypercube": _uniform_hypercube,
    "sphere_surface": _sphere_surface,
    "grid": _grid,
    "linked_circles": lambda spec, rng: _two_circles(spec, rng, linked=True),
    "unlinked_circles": lambda spec, rng: _two_circles(spec, rng, linked=False),
    "trefoil_knot": _trefoil_knot,
    "two_linear_clusters": _two_linear_clusters,
    "circular_clusters": _circular_clusters,
}
FAMILIES = tuple(_GENERATORS)
_TAKES_P = ("gaussian_clusters", "uniform_hypercube")  # the families whose dimension p is a parameter
# the ``params`` keys each generator reads; families missing here read none
_PARAMS = {
    "spiral": ("turns",),
    "gaussian_clusters": ("clusters", "separation", "gaps"),
    "two_linear_clusters": ("separation",),
    "circular_clusters": ("clusters",),
}


def generate(spec: DatasetSpec) -> np.ndarray:
    """Generate the point cloud for ``spec``; exactly ``spec.n`` finite rows.

    Scales so large that the generator overflows or draws a coordinate that
    is not finite are a ValidationError; any other cloud is returned as drawn.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            pts = _GENERATORS[spec.family](spec, _rng(spec))
    except OverflowError:
        pts = None
    if pts is None or not np.isfinite(pts).all():
        raise ValidationError(f"dataset {spec.family!r} overflows the float range at these scales")
    assert pts.shape[0] == spec.n
    return pts
