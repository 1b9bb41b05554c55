"""The edge table against a loop-based oracle of the simplex layer.

The oracle walks the same Qhull simplices with Python containers: the edges
of every simplex's vertex pairs in a dict, Kruskal over sorted (length, i, j)
tuples, the simultaneous pruning sweeps over sets of pairs (star totals as
left folds), survival of simplices by membership and boundary counts in a
dict. Its edge lengths are read from ``sqrt(pairwise_sq_dists)``, so every
comparison is exact.
"""

import itertools

import numpy as np
import pytest
from scipy.spatial import Delaunay

from lsdr.geometry import delaunay_tessellation, euclidean_mcst
from lsdr.graph import prune_edges
from lsdr.numerics import beta_quantile, pairwise_sq_dists
from lsdr.skeleton import detect_boundary

from test_geometry import pair_set

SIZES = {2: 120, 3: 70, 6: 40}


def cloud(p: int, seed: int) -> np.ndarray:
    """Two anisotropic Gaussian clusters, so pruning has long edges to remove."""
    rng = np.random.default_rng(seed)
    n = SIZES[p]
    pts = rng.standard_normal((n, p)) * np.linspace(1.0, 0.3, p)
    pts[: n // 3, 0] += 6.0
    return pts


def loop_layer(pts: np.ndarray, alpha: float) -> dict:
    n, p = pts.shape
    dist = np.sqrt(pairwise_sq_dists(pts))
    simplices = sorted(tuple(sorted(int(v) for v in s)) for s in Delaunay(pts).simplices)
    edges: dict = {}
    for simplex in simplices:
        for i, j in itertools.combinations(simplex, 2):
            edges.setdefault((i, j), float(dist[i, j]))

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree, tree_length = set(), 0.0
    for length, i, j in sorted((length, i, j) for (i, j), length in edges.items()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.add((i, j))
            tree_length += length

    lengths = dict(edges)
    incident = [set() for _ in range(n)]
    for e in lengths:
        incident[e[0]].add(e)
        incident[e[1]].add(e)
    quantiles: dict = {}
    changed = True
    while changed:
        # every star is tested against the edges alive when the pass began;
        # the rejected edges go when the pass ends
        rejected = set()
        for vertex in range(n):
            star = sorted(incident[vertex])
            k = len(star)
            if k <= 1:
                continue
            total = 0.0
            for e in star:
                total += lengths[e] * lengths[e]
            if total <= 0.0:
                continue
            if k not in quantiles:
                quantiles[k] = beta_quantile(p / 2.0, (k - 1) * p / 2.0, alpha)
            rejected |= {e for e in star if lengths[e] * lengths[e] / total > quantiles[k]}
        removed = rejected - tree
        for e in removed:
            del lengths[e]
            incident[e[0]].discard(e)
            incident[e[1]].discard(e)
        changed = bool(removed)

    surviving = [
        s for s in simplices if all(e in lengths for e in itertools.combinations(s, 2))
    ]
    counts = {e: 0 for e in lengths}
    for s in surviving:
        for e in itertools.combinations(s, 2):
            if e in counts:
                counts[e] += 1
    boundary = sorted({v for e, c in counts.items() if c <= 1 for v in e})
    return {
        "simplices": simplices,
        "edges": edges,
        "tree": tree,
        "tree_length": tree_length,
        "kept": lengths,
        "surviving": surviving,
        "boundary": boundary,
    }


def table(pairs, lengths) -> dict:
    return dict(zip(map(tuple, pairs.tolist()), lengths.tolist()))


@pytest.mark.parametrize("p", sorted(SIZES))
def test_edge_table_matches_the_loop_layer(p):
    pruned_somewhere = False
    for seed in range(3):
        pts = cloud(p, seed)
        for alpha in (0.95, 0.99):
            oracle = loop_layer(pts, alpha)
            tess = delaunay_tessellation(pts)
            assert [tuple(s) for s in tess.simplices.tolist()] == oracle["simplices"]
            assert list(table(tess.edges, tess.lengths).items()) == sorted(oracle["edges"].items())
            tree = euclidean_mcst(pts, tess.edges)
            assert pair_set(tree.edges) == oracle["tree"]
            assert tree.total_length == oracle["tree_length"]
            graph = prune_edges(tess, tree, alpha)
            assert list(table(graph.edges, graph.lengths).items()) == sorted(oracle["kept"].items())
            assert [tuple(s) for s in graph.simplices.tolist()] == oracle["surviving"]
            assert detect_boundary(graph) == oracle["boundary"]
            pruned_somewhere |= 0 < len(graph.simplices) < len(tess.simplices)
    assert pruned_somewhere


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_edge_lengths_equal_the_distance_kernel_bit_for_bit(p):
    rng = np.random.default_rng(p)
    pts = rng.standard_normal((40, p)) * 10.0 ** rng.uniform(-3, 3, p)
    tess = delaunay_tessellation(pts)
    i, j = tess.edges.T
    assert np.array_equal(tess.lengths, np.sqrt(pairwise_sq_dists(pts))[i, j])
