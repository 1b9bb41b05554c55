"""Every typed error a public call raises on bad input, with its message, and
the exit code of each one a command reaches."""

import re

import numpy as np
import pytest

import lsdr
from lsdr import AlgorithmAdapter, KernelSpec, LsdrConfig, SpanningTree
from lsdr.cli import main
from lsdr.errors import ValidationError
from lsdr.serialize import write_point_cloud


def _cloud(n=12, p=2, seed=0):
    return np.random.default_rng(seed).standard_normal((n, p))


def _graph():
    pts = _cloud()
    tess = lsdr.delaunay_tessellation(pts)
    return lsdr.prune_edges(tess, lsdr.euclidean_mcst(pts, tess.edges), 0.95)


def _square_with_centre():
    """A unit square and its centre: four triangles, so no diagonal is an edge."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    return lsdr.delaunay_tessellation(pts)


UNIT = KernelSpec("gaussian", 1.0)


def _reconstructor():
    return lsdr.fit_reconstruction(_cloud(10, 3), _cloud(10, 2, seed=1), UNIT, UNIT)


API_ERRORS = [
    pytest.param(
        lambda: lsdr.embedding.kernel_matrix(UNIT, _cloud(3, 2), _cloud(3, 3)),
        ValidationError,
        "kernel inputs must share their dimension",
        id="kernel inputs of two dimensions",
    ),
    pytest.param(
        lambda: lsdr.metric_mds(np.zeros((2, 3)), 1),
        ValidationError,
        r"distance matrix must be square, got shape \(2, 3\)",
        id="non-square distance matrix",
    ),
    pytest.param(
        lambda: lsdr.metric_mds(np.ones((3, 3)), 1),
        ValidationError,
        "distance matrix must have a zero diagonal",
        id="distance matrix with a diagonal",
    ),
    pytest.param(
        lambda: lsdr.metric_mds(1.0 - np.eye(3), 3),
        ValidationError,
        "target dimension must satisfy 1 <= d < n, got d=3, n=3",
        id="mds target dimension",
    ),
    pytest.param(
        lambda: lsdr.nadaraya_embed(np.zeros((2, 1)), np.zeros((3, 2)), np.zeros((4, 2)), UNIT),
        ValidationError,
        "skeletal coordinates and points disagree on count",
        id="skeletal coordinates and points",
    ),
    pytest.param(
        lambda: lsdr.nadaraya_embed(np.zeros((0, 1)), np.zeros((0, 2)), np.zeros((4, 2)), UNIT),
        ValidationError,
        r"skeletal coordinates must have at least one row and column, got shape \(0, 1\)",
        id="no skeletal coordinates",
    ),
    pytest.param(
        lambda: lsdr.fit_out_of_sample(_cloud(5), _cloud(4), UNIT),
        ValidationError,
        "training points and embeddings disagree on count",
        id="out-of-sample counts",
    ),
    pytest.param(
        lambda: lsdr.fit_reconstruction(_cloud(5), _cloud(4), UNIT, UNIT),
        ValidationError,
        "training points and embeddings disagree on count",
        id="reconstruction counts",
    ),
    pytest.param(
        lambda: lsdr.fit_reconstruction(_cloud(3, 3), _cloud(3, 3), UNIT, UNIT),
        ValidationError,
        "reconstruction requires d < n, got d=3, n=3",
        id="reconstruction dimension",
    ),
    pytest.param(
        lambda: lsdr.reconstruct(_reconstructor(), np.zeros((1, 3))),
        ValidationError,
        "embedding query has the wrong dimension",
        id="reconstruction query dimension",
    ),
    pytest.param(
        lambda: lsdr.procrustes_fit(_cloud(5, 2), _cloud(5, 3)),
        ValidationError,
        r"procrustes inputs must share shape, got \(5, 2\) vs \(5, 3\)",
        id="procrustes shapes",
    ),
    pytest.param(
        lambda: lsdr.trustability_index(AlgorithmAdapter(), _cloud()),
        NotImplementedError,
        "AlgorithmAdapter does not implement reduce",
        id="adapter without reduce",
    ),
    pytest.param(
        lambda: lsdr.IdentityAdapter().reduce(3, _cloud()),
        ValidationError,
        "identity adapter needs 1 <= d <= p, got 3",
        id="identity dimension",
    ),
    pytest.param(
        lambda: lsdr.knn_metrics(_cloud(10), _cloud(9), 2),
        ValidationError,
        "data and embedding disagree on count",
        id="knn counts",
    ),
    pytest.param(
        lambda: lsdr.lsdr(np.zeros((4, 3, 2)), LsdrConfig(d=1)),
        ValidationError,
        "data must be 2-dimensional, got ndim=3",
        id="three-dimensional data",
    ),
    pytest.param(
        lambda: LsdrConfig(d=1, alpha=1.0),
        ValidationError,
        r"alpha must lie strictly inside \(0, 1\), got 1.0",
        id="alpha",
    ),
    pytest.param(lambda: LsdrConfig(d=1, k=0), ValidationError, "neighbour count must be at least 1, got 0", id="k"),
    pytest.param(lambda: LsdrConfig(d=0), ValidationError, "target dimension must be at least 1, got 0", id="d"),
    pytest.param(
        lambda: lsdr.lsdr(_cloud(3, 5), LsdrConfig(d=3)),
        ValidationError,
        "target dimension must satisfy d < n, got d=3, n=3",
        id="d not below n",
    ),
    pytest.param(
        lambda: lsdr.boundary_distances(_graph(), []), ValidationError, "boundary set is empty", id="no boundary"
    ),
    pytest.param(
        lambda: lsdr.mark_skeleton(_graph(), np.zeros(12), 0),
        ValidationError,
        "neighbour count must be at least 1, got 0",
        id="skeleton neighbour count",
    ),
    pytest.param(
        lambda: lsdr.mark_skeleton(_graph(), np.zeros(11), 3),
        ValidationError,
        r"boundary distance array must have shape \(12,\)",
        id="boundary distance shape",
    ),
    pytest.param(
        lambda: lsdr.delaunay_tessellation([[0.0], [1.0], [3.0]]),
        ValidationError,
        "tessellation needs at least 2 dimensions, got p=1",
        id="one-column tessellation",
    ),
    pytest.param(
        lambda: lsdr.delaunay_tessellation([0.0, 1.0, 3.0]),
        ValidationError,
        "tessellation needs at least 2 dimensions, got p=1",
        id="one-dimensional tessellation input",
    ),
    pytest.param(
        lambda: lsdr.DatasetSpec("spiral", 0),
        ValidationError,
        "dataset size must be positive, got 0",
        id="dataset size",
    ),
    pytest.param(
        lambda: lsdr.prune_edges(
            _square_with_centre(), SpanningTree(np.array([[0, 2], [0, 4], [1, 4], [3, 4]]), total_length=0.0), 0.95
        ),
        ValidationError,
        "spanning tree contains edges outside the tessellation",
        id="tree outside the tessellation",
    ),
]


@pytest.mark.parametrize("call, error, message", API_ERRORS)
def test_a_public_call_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--family", "spiral", "--n", "0"], "dataset size must be positive, got 0"),
        (["reduce", "{cloud}", "--d", "1", "--alpha", "1.5"], r"alpha must lie strictly inside \(0, 1\), got 1.5"),
        (["reduce", "{cloud}", "--d", "1", "--k", "0"], "neighbour count must be at least 1, got 0"),
        (["reduce", "{cloud}", "--d", "0"], "target dimension must be at least 1, got 0"),
        (["reduce", "{wide}", "--d", "3"], "target dimension must satisfy d < n, got d=3, n=3"),
        (["index", "{cloud}", "--algo", "identity", "--d", "3", "--knn"], "identity adapter needs 1 <= d <= p, got 3"),
    ],
    ids=["dataset size", "alpha", "k", "d", "d not below n", "identity dimension"],
)
def test_a_command_exits_2_with_the_message_and_writes_nothing(tmp_path, capsys, argv, message):
    write_point_cloud(tmp_path / "cloud.csv", _cloud())
    write_point_cloud(tmp_path / "wide.csv", _cloud(3, 5))
    out = tmp_path / "out.json"
    argv = [a.format(cloud=tmp_path / "cloud.csv", wide=tmp_path / "wide.csv") for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(f"ERROR usage: {message}", err[0]), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv", "wide.csv"]
