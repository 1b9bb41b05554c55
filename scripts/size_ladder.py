"""Time and measure stage 3 of ``lsdr`` on the spiral at growing sizes.

Each size runs in a fresh Python process (so its peak RSS is its own) with
one BLAS thread, on the benchmark's spiral (seed 25), d = 1:

    python scripts/size_ladder.py --n 1500 5000 10000 20000 --out BENCH_ladder.json
    python scripts/size_ladder.py --src /path/to/other/checkout/src --label parent

It reports, per size, the seconds of the whole ``lsdr`` call and of its
geodesic, metric-MDS and kernel-embedding calls, the process's peak RSS,
the RSS growth over the call, and the peak RSS of each geodesic helper
(VmHWM, which counts the pages a helper shares with its parent since the
fork). Run it under ``ulimit -v`` so a size that overruns the memory kills
the child process, not the machine. With ``--out`` the results are merged
into the JSON file under ``--label``.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, multiprocessing, resource, sys, time
sys.path.insert(0, sys.argv[1])
import lsdr
from lsdr import pipeline
from lsdr.datasets import DatasetSpec, spiral_with_angle

n = int(sys.argv[2])
seconds = {}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
    return wrapper

for name in ("graph_distances", "metric_mds", "nadaraya_embed"):
    setattr(pipeline, name, timed(name, getattr(pipeline, name)))
x, _ = spiral_with_angle(DatasetSpec("spiral", n, seed=25))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
result = lsdr.lsdr(x, lsdr.LsdrConfig(d=1))
total = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
helper_peaks = [
    int(line.split()[1])
    for child in multiprocessing.active_children()
    for line in open(f"/proc/{child.pid}/status")
    if line.startswith("VmHWM:")
]
print(json.dumps({
    "n": n,
    "skeletal_points": len(result.skeleton.skeletal_points),
    "seconds": round(total, 3),
    "stage_seconds": {k: round(v, 3) for k, v in seconds.items()},
    "peak_rss_mb": round(peak / 1024, 1),
    "rss_growth_mb": round((peak - before) / 1024, 1),
    "helper_peak_rss_mb": [round(kb / 1024, 1) for kb in helper_peaks],
}))
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, nargs="+", default=[1500, 5000, 10000, 20000])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src directory to import lsdr from")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", default=None, help="JSON file to merge the results into")
    args = parser.parse_args()

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows = []
    for n in args.n:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, args.src, str(n)], env=env, capture_output=True, text=True
        )
        if done.returncode != 0:
            rows.append({"n": n, "error": done.stderr.strip().splitlines()[-1:]})
        else:
            rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        merged[args.label] = {
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "cpu_count": os.cpu_count(),
                "blas_threads": 1,
                "ulimit_v_kb": None if limit == resource.RLIM_INFINITY else limit // 1024,
            },
            "runs": rows,
        }
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
