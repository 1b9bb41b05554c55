"""The benchmark's workloads: seeded inputs, one job each, and output checks.

A job is one complete user operation. Inputs depend only on the benchmark
seed, offset from the seed the repository's own tests and scripts use for
the same cloud, so ``--seed 0`` reproduces those clouds. The library sees
only the generated inputs. Every check holds for any seed: none compares
against a stored reference. Each job also returns a digest of its output, so
two runs with the same BLAS thread count can show that outputs did not move.

Library functions are looked up through their module at call time, so the
tracer's wrappers see every call the job makes.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lsdr
from lsdr import cli, datasets, pipeline, serialize


@dataclass
class JobResult:
    """Outcome of one job: operations attempted and failed, quality, digest."""

    ops: int
    failed: int
    fidelity: float
    digest: str
    problems: list[str] = field(default_factory=list)


def _sha1(*parts: bytes) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _ranks(v: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(v, kind="stable"), kind="stable").astype(float)


def _residuals(report) -> np.ndarray:
    return np.array([np.nan if t.residual is None else t.residual for t in report.contributions])


class Spiral:
    """The paper's flagship unrolling: the planar spiral embedded in 1-D."""

    name = "spiral"
    base_seed = 25

    def __init__(self, n: int = 1500):
        self.n = n
        self.ops_per_job = 1

    def inputs(self, seed: int, workdir: Path) -> dict:
        spec = lsdr.DatasetSpec("spiral", self.n, seed=self.base_seed + seed)
        x, theta = datasets.spiral_with_angle(spec)
        return {"x": x, "theta": theta, "bytes": _sha1(x.tobytes(), theta.tobytes())}

    def units(self) -> int:
        return self.n

    def run(self, inputs: dict) -> JobResult:
        y = lsdr.lsdr(inputs["x"], lsdr.LsdrConfig(d=1)).embedding.coords
        problems = []
        fidelity = 0.0
        if y.shape != (self.n, 1) or not np.all(np.isfinite(y)):
            problems.append(f"embedding is not a finite {self.n} x 1 array: shape {y.shape}")
        else:
            rho = np.corrcoef(_ranks(y[:, 0]), _ranks(inputs["theta"]))[0, 1]
            fidelity = abs(float(rho)) if np.isfinite(rho) else 0.0
            if not fidelity >= 0.99:
                problems.append(f"|spearman(embedding, theta)| = {fidelity:.4f} < 0.99")
        return JobResult(1, int(bool(problems)), fidelity, _sha1(y.tobytes()), problems)


class ClustersTci:
    """Consistency of PCA against the pipeline on the clustered 10-D cloud."""

    name = "clusters_tci"
    base_seed = 3
    d = 2

    def __init__(self, n: int = 100, transforms: int = 4, adapters=None):
        self.n = n
        self.transforms = transforms
        self.adapters = adapters or (lsdr.PcaAdapter(), lsdr.LsdrAdapter(seed=0))
        self.ops_per_job = len(self.adapters) * transforms

    def inputs(self, seed: int, workdir: Path) -> dict:
        spec = lsdr.DatasetSpec(
            "gaussian_clusters",
            self.n,
            p=10,
            seed=self.base_seed + seed,
            params={"clusters": 3, "separation": 10.0},
        )
        x = lsdr.generate(spec)
        return {"x": x, "bytes": _sha1(x.tobytes())}

    def units(self) -> int:
        return self.ops_per_job

    def run(self, inputs: dict) -> JobResult:
        x = inputs["x"]
        sigma = pipeline.transform_bandwidth(x, seed=0)
        kernel = lsdr.KernelSpec("gaussian", sigma)
        reports = [
            lsdr.tractable_consistency_index(
                adapter, x, self.d, kernel, transform_subsample=self.transforms, seed=0
            )
            for adapter in self.adapters
        ]
        problems = []
        failed = 0
        for adapter, report in zip(self.adapters, reports):
            failed += len(report.failed_transforms)
            residuals = _residuals(report)
            if report.failed_transforms:
                problems.append(f"{adapter.name}: {len(report.failed_transforms)} failed transforms")
            elif not np.all(np.isfinite(residuals) & (residuals >= 0.0)):
                problems.append(f"{adapter.name}: a residual is negative or not finite")
            elif report.value != residuals.max(initial=0.0):
                problems.append(f"{adapter.name}: value {report.value!r} is not the largest residual")
        fidelity = 1.0 - reports[-1].value / reports[0].value if reports[0].value > 0 else 0.0
        if problems and not failed:
            failed = self.ops_per_job
        digest = _sha1(np.float64(sigma).tobytes(), *(_residuals(r).tobytes() for r in reports))
        return JobResult(self.ops_per_job, failed, fidelity, digest, problems)


class Evaluate:
    """The ``lsdr index`` command: TI, full TCI and kNN metrics of PCA."""

    name = "evaluate"
    base_seed = 104

    def __init__(self, n: int = 1000, transforms: int = 3000):
        self.n = n
        self.transforms = transforms
        self.ops_per_job = transforms

    def inputs(self, seed: int, workdir: Path) -> dict:
        x = lsdr.generate(lsdr.DatasetSpec("swiss_roll", self.n, seed=self.base_seed + seed))
        csv = workdir / "swiss_roll.csv"
        serialize.write_point_cloud(csv, x)
        centered = x - x.mean(axis=0)
        return {
            "csv": csv,
            "out": workdir / "indices.json",
            "scale": float(np.sum(centered * centered)),
            "bytes": _sha1(csv.read_bytes()),
        }

    def units(self) -> int:
        return self.transforms

    def argv(self, inputs: dict) -> list[str]:
        return [
            "index", str(inputs["csv"]), "--algo", "pca", "--ti", "--tci", "--knn",
            "--knn-k", "10", "--transforms", str(self.transforms), "--d", "2",
            "--out", str(inputs["out"]),
        ]  # fmt: skip

    def run(self, inputs: dict) -> JobResult:
        out = Path(inputs["out"])
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(inputs))
        problems = []
        if code != 0:
            return JobResult(self.ops_per_job, self.ops_per_job, 0.0, "", [f"exit code {code}"])
        raw = out.read_bytes()
        try:
            report = json.loads(raw)
        except json.JSONDecodeError as exc:
            return JobResult(self.ops_per_job, self.ops_per_job, 0.0, "", [f"report: {exc}"])
        contributions = report.get("tci_contributions") or []
        failed = sum(1 for c in contributions if c["failed"])
        if failed:
            problems.append(f"{failed} failed transforms")
        if len(contributions) != self.transforms:
            problems.append(f"{len(contributions)} contributions, expected {self.transforms}")
        if not abs(report["ti"]) <= 1e-9 * inputs["scale"]:
            problems.append(f"TI(PCA) = {report['ti']!r} is not zero within roundoff")
        for key in ("tsi", "trustworthiness", "continuity"):
            if not 0.0 <= report[key] <= 1.0:
                problems.append(f"{key} = {report[key]!r} outside [0, 1]")
        if problems and not failed:
            failed = self.ops_per_job
        return JobResult(self.ops_per_job, failed, float(report["trustworthiness"]), _sha1(raw), problems)


WORKLOADS = {w.name: w for w in (Spiral, ClustersTci, Evaluate)}
