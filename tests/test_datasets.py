"""Structural checks for the synthetic dataset generators."""

import numpy as np
import pytest

from lsdr.datasets import FAMILIES, DatasetSpec, generate, spiral_with_angle
from lsdr.errors import ValidationError


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_is_deterministic_and_exactly_n_rows(family):
    spec = DatasetSpec(family, 57, seed=11)
    a = generate(spec)
    b = generate(spec)
    assert a.shape[0] == 57
    assert np.array_equal(a, b)


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        DatasetSpec("moebius", 10)


@pytest.mark.parametrize(
    "family, params",
    [
        ("gaussian_clusters", {"separaton": 50.0}),
        ("spiral", {"clusters": 3}),
        ("spiral", {"r0": 3.0, "pitch": 2.0}),
        ("swiss_roll", {"height": 20.0}),
        ("circular_clusters", {"clusters": 4, "radius": 2.0}),
    ],
)
def test_parameters_the_family_does_not_read_are_rejected(family, params):
    with pytest.raises(ValidationError, match="takes no parameter"):
        DatasetSpec(family, 30, params=params)


class TestSpiral:
    def test_clean_radius_monotone_in_angle(self):
        spec = DatasetSpec("spiral", 200, seed=3)
        _, theta = spiral_with_angle(spec)
        r_clean = 1.0 + 0.5 * theta
        assert np.all(np.diff(theta) >= 0.0)
        assert np.all(np.diff(r_clean) >= 0.0)

    def test_noisy_radius_tracks_angle(self):
        spec = DatasetSpec("spiral", 300, seed=3)
        pts, theta = spiral_with_angle(spec)
        radius = np.hypot(pts[:, 0], pts[:, 1])
        ra = np.argsort(np.argsort(radius))
        rb = np.argsort(np.argsort(theta))
        assert np.corrcoef(ra, rb)[0, 1] > 0.9

    def test_two_columns(self):
        assert generate(DatasetSpec("spiral", 40, seed=0)).shape == (40, 2)


class TestGaussianClusters:
    def test_cluster_means_within_sampling_error(self):
        spec = DatasetSpec(
            "gaussian_clusters", 200, p=10, seed=1, params={"clusters": 3, "separation": 10.0}
        )
        x = generate(spec)
        assert x.shape == (200, 10)
        sizes = [67, 67, 66]
        start = 0
        for c, size in enumerate(sizes):
            block = x[start : start + size]
            start += size
            center = np.zeros(10)
            center[0] = 10.0 * c
            # sample mean within 4 sigma / sqrt(n_c) per coordinate
            assert np.abs(block.mean(axis=0) - center).max() < 4.0 / np.sqrt(size)

    def test_explicit_gaps(self):
        spec = DatasetSpec(
            "gaussian_clusters", 150, p=2, seed=5, params={"clusters": 3, "gaps": [15.0, 30.0]}
        )
        x = generate(spec)
        means = [x[i * 50 : (i + 1) * 50, 0].mean() for i in range(3)]
        assert means[1] - means[0] == pytest.approx(15.0, abs=1.0)
        assert means[2] - means[1] == pytest.approx(30.0, abs=1.0)

    def test_gap_count_must_match(self):
        with pytest.raises(ValidationError):
            generate(
                DatasetSpec("gaussian_clusters", 30, p=2, seed=0, params={"clusters": 3, "gaps": [1.0]})
            )


def test_uniform_hypercube_support():
    x = generate(DatasetSpec("uniform_hypercube", 200, p=10, seed=2))
    assert x.shape == (200, 10)
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_sphere_surface_unit_radii_without_noise():
    x = generate(DatasetSpec("sphere_surface", 200, noise=0.0, seed=3))
    radii = np.linalg.norm(x, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12


def test_grid_rows_unique_and_lattice_like():
    x = generate(DatasetSpec("grid", 50, seed=0))
    assert x.shape == (50, 2)
    assert len({tuple(row) for row in x}) == 50


def test_trefoil_knot_closes():
    x = generate(DatasetSpec("trefoil_knot", 400, noise=0.0, seed=1))
    spacing = np.linalg.norm(np.diff(x, axis=0), axis=1)
    wraparound = np.linalg.norm(x[0] - x[-1])
    assert wraparound < 10.0 * np.median(spacing)


def test_linked_circles_are_linked():
    x = generate(DatasetSpec("linked_circles", 200, noise=0.0, seed=4))
    first, second = x[:100], x[100:]
    # first circle sits in z = 0 centered at origin; the second threads it,
    # centered at (1, 0, 0) in the xz-plane
    assert np.abs(first[:, 2]).max() < 1e-9
    assert np.abs(second[:, 1]).max() < 1e-9
    assert np.abs(np.linalg.norm(first[:, :2], axis=1) - 1.0).max() < 1e-9
    radial = np.c_[second[:, 0] - 1.0, second[:, 2]]
    assert np.abs(np.linalg.norm(radial, axis=1) - 1.0).max() < 1e-9


def test_unlinked_circles_are_separated():
    x = generate(DatasetSpec("unlinked_circles", 100, noise=0.0, seed=4))
    first, second = x[:50], x[50:]
    assert second[:, 0].min() - first[:, 0].max() > 0.5


def test_two_linear_clusters_shape():
    x = generate(DatasetSpec("two_linear_clusters", 120, seed=6))
    assert x.shape == (120, 2)
    # the two lines are separated in y far beyond the noise
    assert x[:60, 1].mean() == pytest.approx(0.0, abs=0.1)
    assert x[60:, 1].mean() == pytest.approx(2.0, abs=0.1)


def test_circular_clusters_centers():
    x = generate(DatasetSpec("circular_clusters", 180, seed=7, params={"clusters": 6}))
    assert x.shape == (180, 3)
    for c in range(6)[:2]:
        block = x[c * 30 : (c + 1) * 30]
        angle = 2.0 * np.pi * c / 6
        center = np.array([5.0 * np.cos(angle), 5.0 * np.sin(angle), 0.0])
        assert np.linalg.norm(block.mean(axis=0) - center) < 0.2
