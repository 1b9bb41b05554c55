"""PCA against the skeleton pipeline (LSDR) on the paper's setups, one row per
(setup, algorithm):

- sigma: the transform bandwidth from the setup's own skeleton;
- ti/n: the trustability index over n, for PCA only (it reduces to d = p,
  which the pipeline refuses);
- tci/n: the consistency index over n on a seeded subsample of the boundary
  transforms that both algorithms share (a lower bound on the full set's);
- tsi, trust, cont: separability, trustworthiness and continuity at k = 5;
- |rho|: on the spiral, |Spearman| of the embedding against the generating angle.
"""

import argparse
import dataclasses
import warnings

from scipy.stats import spearmanr

from lsdr.datasets import DatasetSpec, generate, spiral_with_angle
from lsdr.embedding import KernelSpec
from lsdr.indices import PcaAdapter, knn_metrics, tractable_consistency_index, trustability_index
from lsdr.pipeline import LsdrAdapter, transform_bandwidth

SETUPS = [
    ("S1", DatasetSpec("gaussian_clusters", 200, p=10, seed=101, params={"clusters": 3}), 2),
    ("S2", DatasetSpec("uniform_hypercube", 200, p=10, seed=102), 2),
    ("S3", DatasetSpec("sphere_surface", 200, noise=0.02, seed=103), 2),
    ("S4", DatasetSpec("swiss_roll", 200, seed=104), 2),
    ("clusters", DatasetSpec("gaussian_clusters", 100, p=10, seed=3, params={"clusters": 3, "separation": 10.0}), 2),
    ("spiral", DatasetSpec("spiral", 300, seed=25), 1),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, help="one size for every setup (default: each setup's own)")
    parser.add_argument("--transforms", type=int, default=16, help="boundary transforms in the TCI subsample")
    args = parser.parse_args()

    print(f"{'setup':8s} {'algorithm':9s} {'n':>4s} {'sigma':>7s} {'ti/n':>11s} {'tci/n':>13s}"
          f" {'tsi':>7s} {'trust':>7s} {'cont':>7s} {'|rho|':>7s}")
    for name, spec, d in SETUPS:
        spec = dataclasses.replace(spec, n=spec.n if args.n is None else args.n)
        x, theta = spiral_with_angle(spec) if spec.family == "spiral" else (generate(spec), None)
        with warnings.catch_warnings():
            # the 10-D setups trip the documented tessellation-cap pre-reduction
            warnings.simplefilter("ignore")
            sigma = transform_bandwidth(x, seed=0)
            for adapter in (PcaAdapter(), LsdrAdapter(seed=0)):
                ti = f"{trustability_index(adapter, x) / spec.n:11.3e}" if adapter.name == "pca" else ""
                tci = tractable_consistency_index(
                    adapter, x, d, KernelSpec("gaussian", sigma), transform_subsample=args.transforms, seed=0
                )
                tci_n = "failed" if tci.value is None else f"{tci.value / spec.n:.6f}"
                tsi, trust, cont = knn_metrics(x, tci.base, 5)
                rho = "" if theta is None else f"{abs(spearmanr(tci.base[:, 0], theta)[0]):.4f}"
                row = (f"{name:8s} {adapter.name:9s} {spec.n:4d} {sigma:7.3f} {ti:>11s} {tci_n:>13s}"
                       f" {tsi:7.4f} {trust:7.4f} {cont:7.4f} {rho:>7s}")
                print(row.rstrip())


if __name__ == "__main__":
    main()
