"""Benchmark of the lsdr pipeline and its indices.

    python3 benchmark/run.py --workload spiral --seed 0 --seconds 44 --trace 0
    python3 benchmark/run.py            # every declared workload, each in a fresh process

Each run generates its workload's inputs from ``--seed``, sets up three times
(each set-up generates the inputs and runs one untimed warm-up job; set-up
time is the median of the three), runs jobs back to back for
``--seconds`` seconds, each followed by a reference pass (at least two; no
job starts that would, at the median job-and-reference time so far, end
after that), checks every output and prints one line per metric, then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Metric names and units are those ``BENCHMARK.json``
declares.

Job times are reported relative to ``reference.py``, a fixed pure-Python
workload timed before and after every job, because the speed of a shared
machine drifts more from one minute to the next than any bound a change
could be held to: ``job_ref`` is the median of each job's wall time over the
mean of its two reference times, and ``units_per_ref`` the work of all timed
jobs over the sum of those ratios. The plain median wall time is printed and
kept in the result file as ``job_wall_s``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced jobs and
reports the per-layer metrics from the spans of the traced ones, plus the
tracing overhead. Full results, including the environment and the output
digests, go to ``benchmark/out/``; spans too, in a traced run.

The BLAS thread count is pinned before numpy loads, because the embedding's
bytes depend on it: compare output digests only between results with the
same ``env.blas_threads``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

STARTED = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_JOBS = 2


def pin_blas_threads() -> int:
    """Fix the BLAS thread count (one thread, so never more than the cores)."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    return BLAS_THREADS


def declared() -> dict:
    """The benchmark's declaration: workloads, metrics and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics ``BENCHMARK.json`` declares for a run."""
    return {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}


def import_library() -> None:
    """Import lsdr from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lsdr
    except ImportError as exc:
        raise SystemExit(f"error: cannot import lsdr from {SRC}: {exc}") from exc
    if not Path(lsdr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: lsdr was imported from {lsdr.__file__}, not from {SRC}")


def environment(threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _run_job(workload, inputs, tracer, label: str):
    """One job, timed; an exception fails every operation of the job."""
    from workloads import JobResult

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.job = label
            tracer.warnings = caught
        start = time.perf_counter()
        try:
            result = workload.run(inputs)
        except Exception as exc:  # noqa: BLE001 - the run goes on and reports the failure
            n = workload.ops_per_job
            result = JobResult(n, n, 0.0, "", [f"{type(exc).__name__}: {exc}"])
        return result, time.perf_counter() - start


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Set up, warm up, run timed jobs and reduce them to the metrics."""
    import reference
    from tracing import Tracer, layer_metrics

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    try:
        if tracer is not None:
            tracer.install()
        generate_s, warmup_s, inputs, warm = [], [], None, []
        for repeat in range(SETUP_REPEATS):
            label = f"setup-{repeat}"
            if tracer is not None:
                tracer.job = label
            start = time.perf_counter()
            fresh = workload.inputs(seed, workdir)
            generate_s.append(time.perf_counter() - start)
            if inputs is not None and fresh["bytes"] != inputs["bytes"]:
                problems.append("inputs differ between two set-ups from the same seed")
            inputs = fresh
            result, elapsed = _run_job(workload, inputs, tracer, label)
            warm.append(result)
            warmup_s.append(elapsed)
        setup_s = import_s + statistics.median(g + w for g, w in zip(generate_s, warmup_s))
        expected = warm[0].digest

        # a traced run needs an untraced job to measure the tracing overhead
        min_jobs = MIN_JOBS + 1 if trace else MIN_JOBS
        jobs = []
        start = time.perf_counter()
        reference.seconds()  # the first pass is slower: it warms the reference up
        refs = [reference.seconds()]
        while len(jobs) < min_jobs or (
            time.perf_counter() - start + statistics.median(j["seconds"] + refs[-1] for j in jobs) <= seconds
        ):
            traced = tracer is not None and len(jobs) % 2 == 0
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            label = f"job-{len(jobs)}"
            result, elapsed = _run_job(workload, inputs, tracer if traced else None, label)
            refs.append(reference.seconds())
            ref_s = (refs[-2] + refs[-1]) / 2
            jobs.append({"label": label, "traced": traced, "seconds": elapsed, "ref_s": ref_s, "result": result})
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    results = warm + [j["result"] for j in jobs]
    for result in results[1:]:
        if result.digest != expected and not result.problems:
            result.problems.append("output digest differs from the first warm-up job's")
            result.failed = result.ops
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    problems += [p for r in results for p in r.problems]
    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    relative = [j["seconds"] / j["ref_s"] for j in jobs if not j["traced"]]
    if tracer is None:
        metrics = {
            "job_ref": statistics.median(relative),
            "units_per_ref": workload.units() * len(relative) / sum(relative),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
            "fidelity": statistics.median(r.fidelity for r in results),
        }
    else:
        traced_jobs = [j["label"] for j in jobs if j["traced"]]
        metrics = layer_metrics(tracer, traced_jobs, [f"setup-{i}" for i in range(SETUP_REPEATS)])
        traced_s = statistics.median(j["seconds"] for j in jobs if j["traced"])
        metrics["tracing.overhead_s"] = traced_s - statistics.median(untraced)
        metrics["tracing.spans"] = statistics.median(
            sum(1 for span in tracer.spans if span[4] == label) for label in traced_jobs
        )
    units = declared_units(trace)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} are not those BENCHMARK.json declares: {sorted(units)}")
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "inputs_digest": inputs["bytes"],
        "job_wall_s": statistics.median(untraced),
        "output_digest": expected,
        "setup": {"import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s},
        "jobs": [
            {
                "seconds": j["seconds"],
                "ref_s": j["ref_s"],
                "traced": j["traced"],
                "ops": j["result"].ops,
                "failed": j["result"].failed,
                "digest": j["result"].digest,
            }
            for j in jobs
        ],
        "problems": problems,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "spans": tracer.spans if tracer is not None else None,
    }


def write_results(result: dict) -> None:
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    spans = result.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if spans is not None:
        fields = ["name", "start", "end", "parent", "job"]
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"fields": fields, "spans": spans}))


def run_each(names: list[str], args: argparse.Namespace) -> int:
    """Run each workload in a fresh process of its own and combine the results.

    A process of its own keeps one workload's import time out of another's
    set-up and its memory peak out of another's ``peak_rss_mb``.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"error: the {name} run exited with code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": e for m, e in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all' (those BENCHMARK.json declares)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_each([w["name"] for w in declared()["workloads"]], args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    name = args.workload
    env = environment(threads)
    import_s = time.perf_counter() - STARTED

    result = measure(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), import_s)
    result["env"] = env
    write_results(result)
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} median job wall time {result['job_wall_s']:.6g} s (not normalised)")
    print(f"{name} output digest {result['output_digest']} (blas threads {threads})")
    sys.stdout.flush()
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
