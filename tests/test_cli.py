"""Command-line interface: outputs, manifests, exit codes."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lsdr
from lsdr import cli, indices, pipeline
from lsdr.cli import main
from lsdr.errors import DegeneracyWarning, NumericalError, ValidationError
from lsdr.serialize import read_point_cloud, write_json, write_point_cloud

from test_graph import assert_dump_matches


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_spiral_csv_shape(self, tmp_path):
        out = tmp_path / "spiral.csv"
        assert run(["generate", "--family", "spiral", "--n", 300, "--seed", 7, "--out", out]) == 0
        cloud = read_point_cloud(out)
        assert cloud.shape == (300, 2)

    def test_cluster_dataset_shape(self, tmp_path):
        out = tmp_path / "s1.csv"
        code = run(
            ["generate", "--family", "gaussian_clusters", "--clusters", 3,
             "--n", 200, "--p", 10, "--seed", 1, "--out", out]
        )
        assert code == 0
        assert read_point_cloud(out).shape == (200, 10)

    def test_same_flags_give_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["generate", "--family", "spiral", "--n", 50, "--seed", 3, "--out", a])
        run(["generate", "--family", "spiral", "--n", 50, "--seed", 3, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_a_flag_the_family_does_not_read_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "spiral.csv"
        assert run(["generate", "--family", "spiral", "--clusters", 3, "--n", 50, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR usage: dataset family 'spiral' takes no parameter clusters"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "uniform_hypercube", "--p", 0], "dataset dimension p must be at least 1, got 0"),
            (["--family", "gaussian_clusters", "--p", -1], "dataset dimension p must be at least 1, got -1"),
            (["--family", "spiral", "--p", 5], "dataset family 'spiral' has a fixed dimension and takes no p"),
            (["--family", "grid", "--noise", -1], "dataset noise must be finite and non-negative, got -1.0"),
            (["--family", "swiss_roll", "--noise", "nan"], "dataset noise must be finite and non-negative, got nan"),
            (["--family", "spiral", "--noise", "inf"], "dataset noise must be finite and non-negative, got inf"),
            (["--family", "circular_clusters", "--clusters", 0], "dataset needs at least 1 cluster, got 0"),
            (["--family", "gaussian_clusters", "--clusters", -2], "dataset needs at least 1 cluster, got -2"),
            (["--family", "spiral", "--turns", "nan"], "dataset turns must be finite and positive, got nan"),
            (["--family", "spiral", "--turns", -1], "dataset turns must be finite and positive, got -1.0"),
            (["--family", "spiral", "--turns", 0], "dataset turns must be finite and positive, got 0.0"),
            (["--family", "gaussian_clusters", "--separation", "inf"], "dataset separation must be finite, got inf"),
            (["--family", "two_linear_clusters", "--separation", "nan"], "dataset separation must be finite, got nan"),
            (["--family", "gaussian_clusters", "--gaps", "1:inf"], "dataset gaps must be finite, got [1.0, inf]"),
            (["--family", "gaussian_clusters", "--clusters", 3, "--gaps", "1:x"], "dataset gaps must be colon-separated numbers, got '1:x'"),
        ],
    )  # fmt: skip
    def test_an_out_of_range_dataset_flag_is_a_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data.csv"
        assert run(["generate", *flags, "--n", 50, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [f"ERROR usage: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d.csv"
        run(["generate", "--family", "grid", "--n", 25, "--seed", 0, "--out", out])
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert str(out) in manifest["outputs"]
        assert manifest["tool_version"]


class TestReduce:
    def test_lsdr_spiral_embedding_shape(self, tmp_path):
        data = tmp_path / "spiral.csv"
        run(["generate", "--family", "spiral", "--n", 300, "--seed", 25, "--out", data])
        out = tmp_path / "emb.csv"
        assert run(["reduce", data, "--algo", "lsdr", "--d", 1, "--out", out]) == 0
        emb = np.loadtxt(out, delimiter=",", skiprows=2).reshape(-1, 1)
        assert emb.shape == (300, 1)
        assert (tmp_path / "emb_skeleton.json").exists()
        assert (tmp_path / "emb_paired.csv").exists()

    def test_graph_dump_round_trips(self, tmp_path):
        data = tmp_path / "spiral.csv"
        run(["generate", "--family", "spiral", "--n", 120, "--seed", 2, "--out", data])
        out = tmp_path / "emb.csv"
        assert run(["reduce", data, "--algo", "lsdr", "--d", 1, "--dump-graph", "--out", out]) == 0
        text = (tmp_path / "emb_graph.txt").read_text()
        graph = pipeline.lsdr(read_point_cloud(data), pipeline.LsdrConfig(d=1)).graph
        assert (graph.n, graph.p, graph.alpha) == (120, 2, 0.95)
        assert_dump_matches(text, graph)
        assert len(graph.edges) >= graph.n - 1

    def test_graph_dump_of_a_fallback_without_a_graph(self, tmp_path):
        # a rank-one cloud takes the fallback before any graph exists: the
        # dump is skipped, the manifest is still written and replays
        data = tmp_path / "line.csv"
        t = np.linspace(0.0, 1.0, 30)
        data.write_text("x0,x1\n" + "\n".join(f"{float(v)!r},{float(2 * v + 1)!r}" for v in t) + "\n")
        out = tmp_path / "emb.csv"
        paired = tmp_path / "emb_paired.csv"
        args = ["reduce", data, "--d", 1, "--dump-graph", "--out", out]
        with pytest.warns(DegeneracyWarning):
            assert run(args) == 0
        assert not (tmp_path / "emb_graph.txt").exists()
        manifest = json.loads((tmp_path / "emb.manifest.json").read_text())
        assert manifest["outputs"] == sorted([str(out), str(paired)])
        first = {path: path.read_bytes() for path in (out, paired)}
        out.unlink()
        paired.unlink()
        with pytest.warns(DegeneracyWarning):
            assert run(["rerun", tmp_path / "emb.manifest.json"]) == 0
        assert {path: path.read_bytes() for path in (out, paired)} == first
        with pytest.warns(DegeneracyWarning):
            assert run(args + ["--strict"]) == 5
        assert not (tmp_path / "emb_graph.txt").exists()

    def test_pca_reduce_writes_embedding(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 40, "--p", 4,
             "--seed", 1, "--out", data])
        out = tmp_path / "emb.csv"
        assert run(["reduce", data, "--algo", "pca", "--d", 2, "--out", out]) == 0
        emb = np.loadtxt(out, delimiter=",", skiprows=2)
        assert emb.shape == (40, 2)

    def test_strict_mode_flags_degenerate_fallback(self, tmp_path):
        data = tmp_path / "line.csv"
        t = np.linspace(0.0, 1.0, 30)
        data.write_text("x0,x1\n" + "\n".join(f"{float(v)!r},{float(v)!r}" for v in t) + "\n")
        out = tmp_path / "emb.csv"
        with pytest.warns(DegeneracyWarning):
            assert run(["reduce", data, "--algo", "lsdr", "--d", 1, "--strict", "--out", out]) == 5

    def test_plot_emission(self, tmp_path):
        data = tmp_path / "s.csv"
        run(["generate", "--family", "spiral", "--n", 80, "--seed", 1, "--out", data])
        out = tmp_path / "emb.csv"
        assert run(["reduce", data, "--algo", "lsdr", "--d", 1, "--plot", "--out", out]) == 0
        script = (tmp_path / "emb.gp").read_text()
        # p = 2: the paired columns are x0, x1, y0, and y0 colours the points
        assert "plot 'emb_paired.csv' using 1:2:3 " in script and script.rstrip().endswith(" palette")


class TestIndex:
    def test_identity_trustability_zero(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 30, "--p", 3,
             "--seed", 2, "--out", data])
        out = tmp_path / "idx.json"
        assert run(["index", data, "--algo", "identity", "--ti", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert abs(report["ti"]) < 1e-8
        assert (tmp_path / "idx.csv").read_text().count("\n") == 2

    def test_pca_full_dimension_trustability_zero(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "gaussian_clusters", "--clusters", 3, "--n", 60,
             "--p", 4, "--seed", 3, "--out", data])
        out = tmp_path / "idx.json"
        assert run(["index", data, "--algo", "pca", "--ti", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert abs(report["ti"]) / 60 < 1e-8

    def test_tci_singleton_subsample(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 20, "--p", 3,
             "--seed", 4, "--out", data])
        out = tmp_path / "idx.json"
        code = run(["index", data, "--algo", "pca", "--tci", "--transforms", 1,
                    "--bandwidth", 1.0, "--d", 2, "--seed", 3, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["tci_contributions"]) == 1
        assert report["tci"] == report["tci_contributions"][0]["residual"]
        assert report["tci_subsampled_lower_bound"] is True

    def test_a_consistency_index_with_no_scored_transform_exits_4(self, tmp_path, monkeypatch, capsys):
        # the report is written with no value, and the exit code says why
        from test_indices import FailingTermsAdapter

        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 20, "--p", 3, "--seed", 4, "--out", data])
        monkeypatch.setattr(cli, "_resolve_adapter", lambda args: FailingTermsAdapter())
        out = tmp_path / "idx.json"
        capsys.readouterr()
        code = run(["index", data, "--tci", "--transforms", 4, "--bandwidth", 1.0, "--out", out])
        assert code == 4
        report = json.loads(out.read_text())
        first = report["tci_contributions"][0]
        assert report["tci"] is None and report["tci_normalized"] is None
        assert all(c["failed"] for c in report["tci_contributions"])
        assert capsys.readouterr().err == (
            f"ERROR numerical: every consistency transform failed; the first (point {first['point_index']}, "
            f"axis {first['axis']}): no terms\n"
        )

    def test_tci_bandwidth_of_a_one_column_cloud_is_the_mean_distance(self, tmp_path):
        # no tessellation exists in one dimension: the bandwidth takes the
        # same fallback as reduce, the mean pairwise distance
        data = tmp_path / "line.csv"
        t = np.random.default_rng(0).uniform(0.0, 5.0, 12)
        data.write_text("x0\n" + "\n".join(repr(float(v)) for v in t) + "\n")
        out = tmp_path / "idx.json"
        assert run(["index", data, "--algo", "pca", "--tci", "--d", 1, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["tci_bandwidth"] == float(np.sqrt((t[:, None] - t[None, :]) ** 2).mean())

    @pytest.mark.parametrize("flags", [["--tci", "--bandwidth", 1], ["--knn"]])
    def test_target_dimension_above_p_is_a_usage_error(self, tmp_path, capsys, flags):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 20, "--p", 3,
             "--seed", 4, "--out", data])
        capsys.readouterr()
        assert run(["index", data, "--algo", "pca", "--d", 5, *flags,
                    "--out", tmp_path / "idx.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR usage: ")

    def test_knn_metrics_on_identity(self, tmp_path):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 25, "--p", 2,
             "--seed", 5, "--out", data])
        out = tmp_path / "idx.json"
        assert run(["index", data, "--algo", "identity", "--knn", "--d", 2,
                    "--knn-k", 4, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["tsi"] == 1.0
        assert report["trustworthiness"] == 1.0
        assert report["continuity"] == 1.0

    @pytest.mark.parametrize("k, code", [(0, 2), (4, 0), (5, 2), (6, 2), (7, 0), (8, 2)])
    def test_knn_k_is_at_most_half_of_n_or_everyone(self, tmp_path, capsys, k, code):
        data = tmp_path / "c.csv"
        run(["generate", "--family", "uniform_hypercube", "--n", 8, "--p", 3,
             "--seed", 2, "--out", data])
        capsys.readouterr()
        out = tmp_path / "idx.json"
        assert run(["index", data, "--algo", "pca", "--knn", "--knn-k", k, "--d", 2, "--out", out]) == code
        if code:
            err = capsys.readouterr().err.splitlines()
            assert err == [f"ERROR usage: k must satisfy 1 <= k <= n/2 or k = n - 1, got k={k}, n=8"]
            assert not out.exists()
        else:
            report = json.loads(out.read_text())
            assert all(0.0 <= report[key] <= 1.0 for key in ("tsi", "trustworthiness", "continuity"))

    def test_knn_reuses_the_consistency_base(self, tmp_path, monkeypatch):
        data = tmp_path / "roll.csv"
        run(["generate", "--family", "swiss_roll", "--n", 120, "--seed", 1, "--out", data])
        args = ["index", data, "--algo", "lsdr", "--d", 2, "--transforms", 2]
        calls = []
        real = pipeline.lsdr
        monkeypatch.setattr(pipeline, "lsdr", lambda *a, **k: calls.append(1) or real(*a, **k))
        both = tmp_path / "both.json"
        assert run(args + ["--tci", "--knn", "--out", both]) == 0
        # the base reduction, then one per transform; --knn reduces nothing more
        assert len(calls) == 3
        tci, knn = tmp_path / "tci.json", tmp_path / "knn.json"
        assert run(args + ["--tci", "--out", tci]) == 0
        assert run(args + ["--knn", "--out", knn]) == 0
        # the report a separate --knn reduction gives, byte for byte
        expected = json.loads(tci.read_text())
        for key in ("knn_k", "tsi", "trustworthiness", "continuity"):
            expected[key] = json.loads(knn.read_text())[key]
        write_json(tmp_path / "expected.json", expected)
        assert both.read_bytes() == (tmp_path / "expected.json").read_bytes()

    def _assert_serial_report(self, tmp_path, adapter, flags, n, transforms):
        # the report is the one the library's serial calls give, byte for byte
        data = tmp_path / "roll.csv"
        run(["generate", "--family", "swiss_roll", "--n", n, "--seed", 1, "--out", data])
        out = tmp_path / "idx.json"
        threads = threading.active_count()
        assert run(["index", data, "--algo", adapter.name, *flags, "--tci", "--d", 2,
                    "--transforms", transforms, "--out", out]) == 0  # fmt: skip
        assert threading.active_count() == threads
        cloud = read_point_cloud(data)
        expected = lsdr.IndexReport(algorithm=adapter.name, dataset="roll", n=len(cloud))
        if "--ti" in flags:
            expected.ti = lsdr.trustability_index(adapter, cloud)
        sigma = pipeline.transform_bandwidth(cloud)
        expected.tci = lsdr.tractable_consistency_index(
            adapter, cloud, 2, lsdr.KernelSpec("gaussian", sigma), transform_subsample=transforms
        )
        expected.tci_bandwidth = sigma
        if "--knn" in flags:
            expected.knn_k = 5
            expected.tsi, expected.trustworthiness, expected.continuity = lsdr.knn_metrics(cloud, expected.tci.base, 5)
        write_json(tmp_path / "expected.json", expected.to_dict())
        assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert out.with_suffix(".csv").read_text() == "\n".join(expected.csv_row()) + "\n"

    @pytest.mark.parametrize(
        "adapter, flags",
        [(lsdr.PcaAdapter(), ["--ti"]), (lsdr.IdentityAdapter(), ["--ti"]), (lsdr.LsdrAdapter(), [])],
    )
    def test_report_is_the_serial_library_calls(self, tmp_path, adapter, flags):
        # kNN runs on a worker thread beside TI, the bandwidth and the TCI
        # (lsdr has no TI: its full-dimensional reduction is a usage error)
        self._assert_serial_report(tmp_path, adapter, [*flags, "--knn"], 120, 3)

    @pytest.mark.parametrize("knn", [[], ["--knn"]], ids=["tci", "tci-knn"])
    @pytest.mark.parametrize(
        "adapter, n, transforms",
        [(lsdr.PcaAdapter(), 1000, 3000), (lsdr.LsdrAdapter(), 120, 3), (lsdr.IdentityAdapter(), 120, 3)],
        ids=["pca-3000", "lsdr-3", "identity-3"],
    )
    def test_shared_scan_is_the_serial_index(self, tmp_path, adapter, n, transforms, knn):
        # the worker takes chunks of the consistency scan, at once without
        # --knn and after kNN with it; pca's 3000 transforms make 12 chunks
        self._assert_serial_report(tmp_path, adapter, knn, n, transforms)

    @pytest.mark.parametrize(
        "args, code, message",
        [
            # the bandwidth fails before the kNN result is collected
            (["--tci", "--knn"], 4, "ERROR numerical: no bandwidth"),
            (["--knn"], 2, "ERROR usage: no kNN"),
            # lsdr has no full-dimensional reduction; TI fails first
            (["--algo", "lsdr", "--ti", "--tci", "--knn"], 2, "ERROR usage: target dimension must satisfy d < p"),
            # the index checks its subsample before the reduction fails
            (["--tci", "--knn", "--bandwidth", 1, "--transforms", 0, "--d", 5], 2,
             "ERROR usage: transform subsample must be at least 1"),
            (["--tci", "--knn", "--bandwidth", 1, "--d", 5], 2, "ERROR usage: pca target dimension must satisfy"),
        ],
    )  # fmt: skip
    def test_errors_come_in_the_serial_order(self, tmp_path, monkeypatch, capsys, args, code, message):
        data = tmp_path / "roll.csv"
        run(["generate", "--family", "swiss_roll", "--n", 60, "--seed", 1, "--out", data])
        capsys.readouterr()

        def fails(error, text):
            def raises(*args, **kwargs):
                raise error(text)

            return raises

        monkeypatch.setattr(cli, "transform_bandwidth", fails(NumericalError, "no bandwidth"))
        monkeypatch.setattr(cli, "knn_metrics", fails(ValidationError, "no kNN"))
        threads = threading.active_count()
        assert run(["index", data, *args, "--out", tmp_path / "idx.json"]) == code
        assert threading.active_count() == threads
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not (tmp_path / "idx.json").exists()

    @pytest.mark.parametrize(
        "args, code, message",
        [
            # lsdr has no full-dimensional reduction; TI fails first
            (["--algo", "lsdr", "--ti", "--tci", "--knn"], 2, "ERROR usage: target dimension must satisfy d < p"),
            (["--tci", "--knn"], 4, "ERROR numerical: no bandwidth"),
            (["--tci", "--knn", "--bandwidth", 1], 4, "ERROR numerical: no reconstruction"),
        ],
    )  # fmt: skip
    def test_a_failing_set_up_comes_in_the_serial_order(self, tmp_path, monkeypatch, capsys, args, code, message):
        # the consistency index's set-up runs on the worker thread; its error
        # is raised where the serial run would reach it, and dropped when an
        # earlier step fails, here only once the set-up has failed
        data = tmp_path / "roll.csv"
        run(["generate", "--family", "swiss_roll", "--n", 60, "--seed", 1, "--out", data])
        capsys.readouterr()
        set_up_failed = threading.Event()

        def no_reconstruction(*args, **kwargs):
            set_up_failed.set()
            raise NumericalError("no reconstruction")

        def after_the_set_up(step):
            def waits(*args, **kwargs):
                assert set_up_failed.wait(timeout=60)
                return step(*args, **kwargs)

            return waits

        def no_bandwidth(*args, **kwargs):
            raise NumericalError("no bandwidth")

        monkeypatch.setattr(indices, "fit_reconstruction", no_reconstruction)
        monkeypatch.setattr(cli, "trustability_index", after_the_set_up(cli.trustability_index))
        monkeypatch.setattr(cli, "transform_bandwidth", after_the_set_up(no_bandwidth))
        threads = threading.active_count()
        assert run(["index", data, *args, "--out", tmp_path / "idx.json"]) == code
        assert threading.active_count() == threads
        assert set_up_failed.is_set()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["roll.csv", "roll.manifest.json"]

    def test_duplicate_rows_warn_once_and_keep_the_serial_bytes(self, tmp_path):
        # the set-up fits x hat on the distinct rows: its one warning keeps its
        # text and category, and the report is the serial library calls'
        cloud = lsdr.generate(lsdr.DatasetSpec("swiss_roll", 200, seed=1))
        cloud = np.vstack([cloud, cloud[::25]])
        data, out = tmp_path / "roll.csv", tmp_path / "idx.json"
        write_point_cloud(data, cloud)
        env = dict(os.environ, PYTHONPATH=str(Path(lsdr.__file__).parents[1]))
        argv = ["index", str(data), "--algo", "pca", "--tci", "--knn", "--bandwidth", "1.5", "--d", "2",
                "--out", str(out)]  # fmt: skip
        done = subprocess.run([sys.executable, "-m", "lsdr.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        warned = [line for line in done.stderr.splitlines() if "duplicate" in line]
        assert len(warned) == 1
        # the warning points at the command's own code, not at the set-up
        assert warned[0].split(":")[0].endswith(os.path.join("lsdr", "cli.py"))
        assert warned[0].endswith(": UserWarning: dropped 8 duplicate training point(s)")

        cloud = read_point_cloud(data)
        expected = lsdr.IndexReport(algorithm="pca", dataset="roll", n=len(cloud))
        with pytest.warns(UserWarning, match=r"^dropped 8 duplicate training point\(s\)$"):
            expected.tci = lsdr.tractable_consistency_index(
                lsdr.PcaAdapter(), cloud, 2, lsdr.KernelSpec("gaussian", 1.5), transform_subsample=32
            )
        expected.tci_bandwidth = 1.5
        expected.knn_k = 5
        expected.tsi, expected.trustworthiness, expected.continuity = lsdr.knn_metrics(cloud, expected.tci.base, 5)
        write_json(tmp_path / "expected.json", expected.to_dict())
        assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_indices_of_a_cloud_near_the_float_limit(self, tmp_path):
        # the square of the closed-form residual's singular-value sum
        # overflows from about 2**250 on, though the residual does not
        cloud = lsdr.generate(lsdr.DatasetSpec("swiss_roll", 300, seed=0))
        reports = {}
        for e, flag in ((250, "--ti"), (280, "--tci")):
            data, out = tmp_path / f"roll{e}.csv", tmp_path / f"idx{e}.json"
            write_point_cloud(data, np.ldexp(cloud, e))
            assert run(["index", data, "--algo", "pca", "--d", 2, flag, "--out", out]) == 0
            reports[e] = json.loads(out.read_text())
        assert np.isfinite(reports[250]["ti"])
        contributions = reports[280]["tci_contributions"]
        assert len(contributions) == 32 and not any(t["failed"] for t in contributions)
        assert np.isfinite(reports[280]["tci"])

    def test_report_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the reconstruction's kernel products are row blocks of 2**18 floats
        # times p = 3 columns, under a million multiply-adds, which OpenBLAS
        # builds with small-matrix kernels (SkylakeX and later) run on one
        # thread; so x hat, and every residual read from it, keeps its bits.
        # From p = 4 on the blocks run on the threaded kernel and can differ.
        data = tmp_path / "roll.csv"
        run(["generate", "--family", "swiss_roll", "--n", 1000, "--out", data])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = dict(os.environ, PYTHONPATH=str(Path(lsdr.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
            argv = ["index", str(data), "--algo", "pca", "--tci", "--transforms", "600", "--d", "2", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "lsdr.cli", *argv], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            reports.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert reports[0] == reports[1]


class TestUsageErrorsWriteNothing:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["index", "x.csv", "--algo", "pca", "--knn", "--d", 1, "--out", "x.json"],
             "would overwrite the input x.csv"),
            (["reduce", "x.csv", "--d", 1, "--out", "x.csv"], "would overwrite the input x.csv"),
            (["index", "x.csv", "--ti", "--out", "report.csv"], "output report.csv would overwrite the output report.csv"),
            (["reduce", "x.csv", "--d", 1, "--plot", "--out", "emb.gp"], "output emb.gp would overwrite the output emb.gp"),
            (["reduce", "x.csv", "--algo", "pca", "--d", 1, "--dump-graph", "--out", "emb.csv"],
             "--dump-graph needs --algo lsdr"),
            (["index", "x.csv", "--algo", "pca", "--tci", "--knn", "--knn-k", 31, "--d", 1,
              "--out", "idx.json"], "k must satisfy 1 <= k <= n/2 or k = n - 1, got k=31, n=60"),
            (["generate", "--family", "spiral", "--n", 20, "--out", "nodir/a.csv"],
             "output nodir/a.csv needs the directory nodir, which does not exist"),
            (["reduce", "x.csv", "--d", 1, "--out", "nodir/e.csv"],
             "output nodir/e.csv needs the directory nodir, which does not exist"),
            (["index", "x.csv", "--ti", "--tci", "--knn", "--out", "nodir/e.json"],
             "output nodir/e.json needs the directory nodir, which does not exist"),
            (["index", "x.csv", "--ti", "--out", "x.csv/e.json"],
             "output x.csv/e.json needs the directory x.csv, which does not exist"),
        ]
        + [
            (["index", "x.csv", "--algo", "pca", "--tci", "--transforms", count, "--d", 1, "--out", "idx.json"],
             f"transform subsample must be at least 1, got {count}")
            for count in (0, -1)
        ]
        + [
            (args + ["--bandwidth", bandwidth], "bandwidth must be positive and finite")
            for bandwidth in ("nan", "inf", 0, -1)
            for args in (
                ["reduce", "x.csv", "--d", 1, "--out", "emb.csv"],
                ["index", "x.csv", "--algo", "pca", "--tci", "--d", 1, "--out", "idx.json"],
            )
        ]
        + [
            (["generate", "--family", "spiral", "--n", 20, "--noise", "1e308", "--out", "big.csv"],
             "dataset 'spiral' overflows the float range"),
            (["generate", "--family", "gaussian_clusters", "--n", 20, "--p", 2, "--separation", "1e308",
              "--out", "big.csv"], "dataset 'gaussian_clusters' overflows the float range"),
        ],
    )  # fmt: skip
    def test_refused_before_anything_is_written(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        run(["generate", "--family", "spiral", "--n", 60, "--seed", 1, "--out", "x.csv"])
        (tmp_path / "x.manifest.json").unlink()
        data = (tmp_path / "x.csv").read_bytes()
        capsys.readouterr()
        assert run(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR usage: ") and message in err[0]
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]
        assert (tmp_path / "x.csv").read_bytes() == data

    @pytest.mark.parametrize(
        "args, directory",
        [
            (["generate", "--family", "spiral", "--n", 20, "--out", "out"], "out"),
            (["generate", "--family", "spiral", "--n", 20, "--out", "a.csv"], "a.manifest.json"),
            (["reduce", "x.csv", "--d", 1, "--out", "out"], "out"),
            (["reduce", "x.csv", "--d", 1, "--out", "e.csv"], "e_paired.csv"),
            (["reduce", "x.csv", "--d", 1, "--out", "e.csv"], "e_skeleton.json"),
            (["index", "x.csv", "--ti", "--out", "out"], "out"),
            (["index", "x.csv", "--ti", "--out", "idx.json"], "idx.csv"),
        ],
    )  # fmt: skip
    def test_an_output_that_is_a_directory_is_refused(self, tmp_path, monkeypatch, capsys, args, directory):
        monkeypatch.chdir(tmp_path)
        run(["generate", "--family", "spiral", "--n", 60, "--seed", 1, "--out", "x.csv"])
        (tmp_path / "x.manifest.json").unlink()
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "kept.txt").write_text("kept\n")
        capsys.readouterr()
        assert run(args) == 2
        assert capsys.readouterr().err == f"ERROR usage: output {directory} is a directory\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(["x.csv", directory])
        assert [f.name for f in (tmp_path / directory).iterdir()] == ["kept.txt"]


class TestErrorsAndRerun:
    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1\n1.0,2.0\n3.0,not-a-number\n")
        assert run(["reduce", bad, "--algo", "pca", "--d", 1, "--out", tmp_path / "o.csv"]) == 3

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--family", "no-such-family", "--n", 10])
        assert exc.value.code == 2

    def test_a_cloud_too_large_to_scale_is_a_usage_error(self, tmp_path, capsys):
        # no path of reduce or index ends in exit 4 (numerical): the stress
        # check of metric MDS is the only NumericalError, and a cloud whose
        # stress would overflow has already overflowed classical scaling
        cloud = tmp_path / "spiral.csv"
        write_point_cloud(cloud, lsdr.generate(lsdr.DatasetSpec("spiral", 60, seed=0)) * 1e153)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["reduce", cloud, "--d", 1, "--out", tmp_path / "emb.csv"]) == 2
        assert capsys.readouterr().err == "ERROR usage: sym_eigen input contains non-finite entries\n"

    def test_a_line_too_large_to_scale_reduces_to_its_principal_component(self, tmp_path):
        # a rank-one cloud takes no squared distance: its embedding is its
        # principal-component column
        line = tmp_path / "line.csv"
        line.write_text("x0,x1\n" + "".join(f"{t * 3e151!r},{t * 6e151!r}\n" for t in range(30)))
        with pytest.warns(DegeneracyWarning, match="one-dimensional manifold"):
            assert run(["reduce", line, "--d", 1, "--out", tmp_path / "emb.csv"]) == 0
        coords = read_point_cloud(tmp_path / "emb.csv")
        assert coords.shape == (30, 1) and np.isfinite(coords).all()
        exact = np.abs(np.arange(30) - 14.5) * np.sqrt(45.0) * 1e151
        assert np.allclose(np.abs(coords[:, 0]), exact, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e120, 1e130])
    def test_a_cloud_of_huge_coordinates_reduces_in_its_own_process(self, tmp_path, scale):
        # Qhull used to crash the interpreter on these clouds (exit 139)
        pts = np.random.default_rng(0).standard_normal((40, 3)) * scale
        cloud = tmp_path / "big.csv"
        rows = "".join(",".join(map(repr, row)) + "\n" for row in pts.tolist())
        cloud.write_text("x0,x1,x2\n" + rows)
        env = dict(os.environ, PYTHONPATH=str(Path(lsdr.__file__).parents[1]))
        argv = ["reduce", str(cloud), "--d", "2", "--out", str(tmp_path / "emb.csv")]
        done = subprocess.run(
            [sys.executable, "-m", "lsdr.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        coords = read_point_cloud(tmp_path / "emb.csv")
        assert coords.shape == (40, 2) and np.isfinite(coords).all()

    def test_bandwidths_whose_square_leaves_the_float_range_exit_0_and_replay(self, tmp_path):
        data = tmp_path / "spiral.csv"
        run(["generate", "--family", "spiral", "--n", 100, "--seed", 3, "--out", data])
        out = tmp_path / "emb.csv"
        # 2 sigma^2 overflows: every weight is 1, so every point gets the
        # skeletal mean
        assert run(["reduce", data, "--d", 1, "--bandwidth", "1e200", "--out", out]) == 0
        coords = read_point_cloud(out)
        assert np.isfinite(coords).all() and np.ptp(coords) == 0.0
        first = out.read_bytes()
        out.unlink()
        assert run(["rerun", tmp_path / "emb.manifest.json"]) == 0
        assert out.read_bytes() == first
        # 2 sigma^2 underflows to 0: each point keeps the skeletal embedding
        # of the skeletal points it coincides with, or its nearest one's
        with pytest.warns(UserWarning, match="kernel weights underflowed"):
            assert run(["reduce", data, "--d", 1, "--bandwidth", "1e-300", "--out", out]) == 0
        assert np.isfinite(read_point_cloud(out)).all()
        roll = tmp_path / "roll.csv"
        run(["generate", "--family", "swiss_roll", "--n", 100, "--seed", 3, "--out", roll])
        report = tmp_path / "i.json"
        args = ["index", roll, "--tci", "--transforms", 6, "--bandwidth", "1e160", "--out", report]
        assert run(args) == 0
        result = json.loads(report.read_text())
        assert result["tci_bandwidth"] == 1e160 and not any(t["failed"] for t in result["tci_contributions"])

    def test_rerun_reproduces_outputs_byte_for_byte(self, tmp_path):
        out = tmp_path / "d.csv"
        run(["generate", "--family", "spiral", "--n", 60, "--seed", 9, "--out", out])
        first = out.read_bytes()
        out.unlink()
        assert run(["rerun", tmp_path / "d.manifest.json"]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "command",
        [
            ["generate", "--family", "spiral", "--n", 60, "--seed", 9, "--out", "d.csv"],
            ["reduce", "x.csv", "--d", 1, "--dump-graph", "--plot", "--out", "e.csv"],
            ["index", "x.csv", "--ti", "--tci", "--knn", "--transforms", 8, "--d", 1, "--out", "i.json"],
        ],
    )  # fmt: skip
    def test_an_indented_manifest_reruns_byte_for_byte(self, tmp_path, monkeypatch, command):
        # manifests were once written indented, by json.dumps(..., indent=2,
        # sort_keys=True); they replay, and the replay writes one line
        monkeypatch.chdir(tmp_path)
        run(["generate", "--family", "spiral", "--n", 80, "--seed", 1, "--out", "x.csv"])
        assert run(command) == 0
        manifest = Path(str(command[-1])).with_suffix(".manifest.json")
        recorded = json.loads(manifest.read_text())
        outputs = [Path(path) for path in recorded["outputs"]]
        first = [path.read_bytes() for path in outputs]
        manifest.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        for path in outputs:
            path.unlink()
        assert run(["rerun", manifest]) == 0
        assert [path.read_bytes() for path in outputs] == first
        text = manifest.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_rerun_warns_when_the_blas_thread_settings_differ(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "d.csv"
        run(["generate", "--family", "spiral", "--n", 30, "--out", out])
        manifest = tmp_path / "d.manifest.json"
        assert json.loads(manifest.read_text())["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        capsys.readouterr()
        assert run(["rerun", manifest]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert run(["rerun", manifest]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("WARNING blas-threads: the manifest recorded")

    def test_rerun_of_a_missing_manifest_is_a_parse_error(self, tmp_path, capsys):
        assert run(["rerun", tmp_path / "absent.manifest.json"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR input-parse: ")

    def test_rerun_of_a_malformed_manifest_is_a_parse_error(self, tmp_path, capsys):
        manifest = tmp_path / "bad.manifest.json"
        malformed = [
            '{"argv": ["generate",',
            '["generate"]',
            json.dumps({"argv": ["rerun", str(manifest)]}),
            '{"argv": [1, 2]}',
            '{"argv": ["generate", null]}',
            '{"argv": "reduce"}',
        ]
        for text in malformed:
            manifest.write_text(text)
            assert run(["rerun", manifest]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("ERROR input-parse: ")

    def test_rerun_of_a_removed_flag_is_a_usage_error(self, tmp_path):
        # reduce manifests recorded with --threads (a removed flag) stop
        # with argparse's usage error instead of a traceback
        manifest = tmp_path / "old.manifest.json"
        argv = ["reduce", str(tmp_path / "x.csv"), "--d", "1", "--threads", "4"]
        manifest.write_text(json.dumps({"command": "reduce", "argv": argv}))
        with pytest.raises(SystemExit) as exc:
            run(["rerun", manifest])
        assert exc.value.code == 2
