"""Command-line front end: dataset generation, reduction runs and indices.

Every command writes a manifest JSON recording the exact argv, seed and
output paths; ``lsdr rerun <manifest>`` replays it and reproduces the
outputs byte for byte. Exit codes: 0 success, 2 usage, 3 input parse,
4 numerical failure, 5 degeneracy fallback under --strict.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .datasets import FAMILIES, DatasetSpec, generate
from .embedding import KernelSpec
from .errors import InputParseError, LsdrError, ValidationError
from .graph import dump_edge_list
from .indices import (
    IdentityAdapter,
    IndexReport,
    PcaAdapter,
    _consistency_scan,
    _consistency_setup,
    _reduced,
    check_knn_k,
    check_transform_subsample,
    knn_metrics,
    pca_reduce,
    trustability_index,
)
from .pipeline import LsdrAdapter, LsdrConfig, lsdr, transform_bandwidth
from .serialize import (
    read_json,
    read_point_cloud,
    write_embedding,
    write_json,
    write_paired,
    write_point_cloud,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
EXIT_DEGENERATE = 5

GNUPLOT_TEMPLATE = """# gnuplot script: plot original data against its embedding
# (the first two paired columns, coloured by the first embedding column)
set datafile separator ','
set key off
plot '{paired}' using 1:2:{color} with points pt 7 ps 0.4 palette
"""


# The environment variables that set the BLAS thread count. The last bits of
# some products depend on it: the consistency index's reconstruction of a
# cloud of four or more columns runs on a threaded kernel in OpenBLAS.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(category: str, message: str, code: int) -> int:
    print(f"ERROR {category}: {message}", file=sys.stderr)
    return code


def _blas_threads() -> dict:
    """What sets the BLAS thread count: its variables and the CPU count."""
    return {"cpu_count": os.cpu_count(), **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}}


def _write_manifest(path: Path, command: str, argv: list[str], seed: int, outputs: list[Path], started: float) -> None:
    write_json(
        path,
        {
            "command": command,
            "argv": argv,
            "seed": seed,
            "outputs": sorted(map(str, outputs)),
            "tool_version": __version__,
            "blas_threads": _blas_threads(),
            "duration_seconds": time.time() - started,
        },
    )


def _refuse_colliding_outputs(source: str | None, outputs: list[Path]) -> None:
    """Stop before anything is read or written if an output is the input or
    another output, is a directory, or would go into a directory that does
    not exist."""
    seen = {} if source is None else {Path(source).resolve(): f"the input {source}"}
    for path in outputs:
        if not path.parent.is_dir():
            raise ValidationError(f"output {path} needs the directory {path.parent}, which does not exist")
        if path.is_dir():
            raise ValidationError(f"output {path} is a directory")
        resolved = path.resolve()
        if resolved in seen:
            raise ValidationError(f"output {path} would overwrite {seen[resolved]}")
        seen[resolved] = f"the output {path}"


def _dataset_spec(args) -> DatasetSpec:
    params = {}
    if args.clusters is not None:
        params["clusters"] = args.clusters
    if args.gaps is not None:
        try:
            params["gaps"] = [float(g) for g in args.gaps.split(":")]
        except ValueError:
            raise ValidationError(f"dataset gaps must be colon-separated numbers, got {args.gaps!r}") from None
    if args.separation is not None:
        params["separation"] = args.separation
    if args.turns is not None:
        params["turns"] = args.turns
    return DatasetSpec(
        family=args.family,
        n=args.n,
        p=args.p,
        noise=args.noise,
        seed=args.seed,
        params=params,
    )


def cmd_generate(args, argv: list[str]) -> int:
    started = time.time()
    out = Path(args.out)
    manifest = out.with_suffix(".manifest.json")
    _refuse_colliding_outputs(None, [out, manifest])
    spec = _dataset_spec(args)
    cloud = generate(spec)
    write_point_cloud(out, cloud)
    _write_manifest(manifest, "generate", argv, args.seed, [out], started)
    print(f"wrote {out} ({cloud.shape[0]} rows, {cloud.shape[1]} columns)")
    return EXIT_OK


def cmd_reduce(args, argv: list[str]) -> int:
    started = time.time()
    if args.algo == "pca" and args.dump_graph:
        raise ValidationError("--dump-graph needs --algo lsdr; pca builds no graph")
    out = Path(args.out)
    paired = out.with_name(out.stem + "_paired.csv")
    script = out.with_suffix(".gp")
    skel_path = out.with_name(out.stem + "_skeleton.json")
    graph_path = out.with_name(out.stem + "_graph.txt")
    manifest = out.with_suffix(".manifest.json")
    optional = [(script, args.plot), (skel_path, args.algo == "lsdr"), (graph_path, args.dump_graph)]
    outputs = [out, paired] + [path for path, used in optional if used]
    _refuse_colliding_outputs(args.input, outputs + [manifest])
    cloud = read_point_cloud(args.input)
    degenerate = False
    if args.algo == "pca":
        emb = pca_reduce(cloud, args.d)
        skeleton = None
        graph = None
    else:
        cfg = LsdrConfig(
            d=args.d,
            alpha=args.alpha,
            k=args.k,
            bandwidth=args.bandwidth,
            seed=args.seed,
        )
        result = lsdr(cloud, cfg)
        emb = result.embedding
        skeleton = result.skeleton
        graph = result.graph
        degenerate = result.degenerate_fallback

    # a fallback before the skeleton has none to write, and one before the
    # graph (rank-one cloud) no graph to dump
    unbuilt = {path for path, built in ((skel_path, skeleton), (graph_path, graph)) if built is None}
    outputs = [path for path in outputs if path not in unbuilt]
    write_embedding(out, emb)
    write_paired(paired, cloud, emb)
    if script in outputs:
        script.write_text(GNUPLOT_TEMPLATE.format(paired=paired.name, color=cloud.shape[1] + 1))
    if skel_path in outputs:
        write_json(skel_path, skeleton.to_dict())
    if graph_path in outputs:
        graph_path.write_text(dump_edge_list(graph))

    _write_manifest(manifest, "reduce", argv, args.seed, outputs, started)
    if degenerate and args.strict:
        return _fail("degeneracy", "degeneracy fallback taken under --strict", EXIT_DEGENERATE)
    print(f"wrote {out} ({emb.n} rows, {emb.d} columns)")
    return EXIT_OK


def _resolve_adapter(args):
    if args.algo == "pca":
        return PcaAdapter()
    if args.algo == "identity":
        return IdentityAdapter()
    return LsdrAdapter(alpha=args.alpha, k=args.k, seed=args.seed)


def cmd_index(args, argv: list[str]) -> int:
    started = time.time()
    out = Path(args.out)
    summary = out.with_suffix(".csv")
    manifest = out.with_suffix(".manifest.json")
    outputs = [out, summary]
    _refuse_colliding_outputs(args.input, outputs + [manifest])
    cloud = read_point_cloud(args.input)
    if args.knn:
        check_knn_k(cloud.shape[0], args.knn_k)
    adapter = _resolve_adapter(args)
    report = IndexReport(
        algorithm=adapter.name,
        dataset=Path(args.input).stem,
        n=cloud.shape[0],
    )
    # kNN and the consistency index's set-up read only the reduced cloud: one
    # worker thread reduces it once, runs the set-up (x hat), scores kNN and
    # then takes chunks of the consistency scan, while this thread runs TI,
    # the bandwidth and the scan, which takes the worker's reduction as its
    # base and joins the chunks in transform order. Results are collected
    # where the serial run computes them, so the report's bytes and the error
    # raised first are the serial run's; on any error pending work is
    # cancelled and the worker joined before the error propagates, and the
    # error of a result not yet collected is dropped.
    with ThreadPoolExecutor(1) as worker:
        try:
            base = x_hat = knn = None
            if args.tci or args.knn:
                base = worker.submit(_reduced, adapter, args.d, cloud)
            if args.tci:
                x_hat = worker.submit(lambda: _consistency_setup(cloud, base.result()))
            if args.knn:
                knn = worker.submit(lambda: knn_metrics(cloud, base.result(), args.knn_k))
            if args.ti:
                report.ti = trustability_index(adapter, cloud)
            if args.tci:
                sigma = args.bandwidth
                if sigma is None:
                    sigma = transform_bandwidth(cloud, alpha=args.alpha, k=args.k, seed=args.seed)
                # tractable_consistency_index's steps, in its order
                check_transform_subsample(args.transforms)
                report.tci = _consistency_scan(
                    adapter,
                    cloud,
                    args.d,
                    KernelSpec("gaussian", sigma),
                    args.transforms,
                    args.seed,
                    base.result(),
                    x_hat.result(),
                    helper=worker,
                )
                report.tci_bandwidth = sigma
            if knn is not None:
                report.tsi, report.trustworthiness, report.continuity = knn.result()
                report.knn_k = args.knn_k
        except BaseException:
            worker.shutdown(cancel_futures=True)
            raise

    write_json(out, report.to_dict())
    header, row = report.csv_row()
    summary.write_text(header + "\n" + row + "\n")
    _write_manifest(manifest, "index", argv, args.seed, outputs, started)
    if report.tci is not None and report.tci.value is None:
        first = report.tci.failed_transforms[0]
        return _fail(
            "numerical",
            f"every consistency transform failed; the first (point {first.point_index}, "
            f"axis {first.axis}): {first.message}",
            EXIT_NUMERICAL,
        )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_rerun(args, argv: list[str]) -> int:
    manifest = read_json(args.manifest)
    stored = manifest.get("argv") if isinstance(manifest, dict) else None
    strings = isinstance(stored, list) and all(isinstance(arg, str) for arg in stored)
    if not strings or stored[:1] not in (["generate"], ["reduce"], ["index"]):
        return _fail("input-parse", "manifest does not record the argv of a generate, reduce or index run", EXIT_PARSE)
    recorded, now = manifest.get("blas_threads"), _blas_threads()
    if recorded is not None and recorded != now:
        print(
            f"WARNING blas-threads: the manifest recorded {recorded}, this run has {now}; "
            "outputs can differ in their last bits",
            file=sys.stderr,
        )
    return _dispatch(stored)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsdr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=int, default=None)
    gen.add_argument("--noise", type=float, default=None)
    gen.add_argument("--clusters", type=int, default=None)
    gen.add_argument("--gaps", type=str, default=None, help="colon-separated cluster gaps")
    gen.add_argument("--separation", type=float, default=None)
    gen.add_argument("--turns", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="dataset.csv")
    gen.set_defaults(func=cmd_generate)

    red = sub.add_parser("reduce", help="reduce a CSV point cloud")
    red.add_argument("input")
    red.add_argument("--algo", choices=("lsdr", "pca"), default="lsdr")
    red.add_argument("--d", type=int, required=True)
    red.add_argument("--alpha", type=float, default=0.95)
    red.add_argument("--k", type=int, default=3)
    red.add_argument("--bandwidth", type=float, default=None)
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--dump-graph", action="store_true")
    red.add_argument("--plot", action="store_true")
    red.add_argument("--strict", action="store_true")
    red.add_argument("--out", default="embedding.csv")
    red.set_defaults(func=cmd_reduce)

    idx = sub.add_parser("index", help="compute quality indices for an algorithm")
    idx.add_argument("input")
    idx.add_argument("--algo", choices=("lsdr", "pca", "identity"), default="pca")
    idx.add_argument("--d", type=int, default=2)
    idx.add_argument("--alpha", type=float, default=0.95)
    idx.add_argument("--k", type=int, default=3)
    idx.add_argument("--ti", action="store_true")
    idx.add_argument("--tci", action="store_true")
    idx.add_argument("--knn", action="store_true")
    idx.add_argument("--knn-k", type=int, default=5)
    idx.add_argument("--transforms", type=int, default=32)
    idx.add_argument("--bandwidth", type=float, default=None)
    idx.add_argument("--seed", type=int, default=0)
    idx.add_argument("--out", default="indices.json")
    idx.set_defaults(func=cmd_index)

    rer = sub.add_parser("rerun", help="replay a command from its manifest")
    rer.add_argument("manifest")
    rer.set_defaults(func=cmd_rerun)
    return parser


def _dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except InputParseError as exc:
        return _fail("input-parse", str(exc), EXIT_PARSE)
    except ValidationError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    except LsdrError as exc:
        return _fail("numerical", str(exc), EXIT_NUMERICAL)


def main(argv: list[str] | None = None) -> int:
    return _dispatch(list(sys.argv[1:]) if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
