"""Tests of the benchmark itself, on small instances of its workloads.

Run with ``python3 -m pytest benchmark -q`` from the repository root.
"""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import lsdr
import run
from workloads import ClustersTci, Evaluate, Spiral


def small_workloads():
    return [Spiral(n=300), ClustersTci(n=30, transforms=1), Evaluate(n=100, transforms=300)]


@pytest.fixture(scope="module")
def runs():
    """Each small workload measured untraced and traced, one timed job per mode."""
    saved = run.MIN_JOBS
    run.MIN_JOBS = 1
    try:
        return {
            w.name: {trace: run.measure(w, seed=0, seconds=0.0, trace=trace) for trace in (False, True)}
            for w in small_workloads()
        }
    finally:
        run.MIN_JOBS = saved


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    first = workload.inputs(0, tmp_path)["bytes"]
    assert workload.inputs(0, tmp_path)["bytes"] == first
    assert workload.inputs(1, tmp_path)["bytes"] != first


def test_every_output_check_passes(runs):
    for name, by_trace in runs.items():
        for result in by_trace.values():
            assert result["correct"], (name, result["problems"])
            assert result["failed"] == 0


def test_traced_and_untraced_runs_give_identical_outputs(runs):
    for name, by_trace in runs.items():
        digests = {j["digest"] for r in by_trace.values() for j in r["jobs"]}
        digests |= {r["output_digest"] for r in by_trace.values()}
        assert len(digests) == 1, name


def test_metric_names_match_benchmark_json(runs):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= {w.name for w in small_workloads()}
    for by_trace in runs.values():
        assert {k: v["unit"] for k, v in by_trace[False]["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in by_trace[True]["metrics"].items()} == per_layer


def test_job_times_are_relative_to_the_reference(runs):
    for by_trace in runs.values():
        result = by_trace[False]
        ratios = [j["seconds"] / j["ref_s"] for j in result["jobs"]]
        assert all(j["ref_s"] > 0 for j in result["jobs"])
        assert result["metrics"]["job_ref"]["value"] == statistics.median(ratios)


def test_traced_run_counts_work_where_the_workload_does_it(runs):
    spiral = runs["spiral"][True]["metrics"]
    assert spiral["graph.geodesic_rows"]["value"] == 300
    assert 0 < spiral["graph.geodesic_rows_used_ratio"]["value"] < 1
    assert spiral["embedding.metric_mds.calls"]["value"] == 1
    clusters = runs["clusters_tci"][True]["metrics"]
    assert clusters["indices.transforms"]["value"] == 2
    assert clusters["pipeline.dimension_cap_paths"]["value"] >= 2
    evaluate = runs["evaluate"][True]["metrics"]
    assert evaluate["indices.transforms"]["value"] == 300
    assert evaluate["serialize.bytes_written"]["value"] > 0
    assert evaluate["indices.knn_metrics.s"]["value"] > 0


class FailsAfterFirstCall(lsdr.PcaAdapter):
    """Reduces the base cloud, then raises on every transformed one."""

    name = "fails"

    def __init__(self):
        self.calls = 0

    def reduce(self, d, x):
        self.calls += 1
        if self.calls > 1:
            raise RuntimeError("forced failure")
        return super().reduce(d, x)


class AlwaysFails(lsdr.PcaAdapter):
    name = "always-fails"

    def reduce(self, d, x):
        raise RuntimeError("forced failure")


@pytest.mark.parametrize("adapter", [FailsAfterFirstCall, AlwaysFails])
def test_a_failing_adapter_lowers_ok_ratio_without_ending_the_run(adapter, monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    workload = ClustersTci(n=30, transforms=2, adapters=(lsdr.PcaAdapter(), adapter()))
    result = run.measure(workload, seed=0, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    script = tmp_path / run.BENCH.name / "run.py"
    done = subprocess.run(
        [sys.executable, str(script), "--workload", "spiral", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
