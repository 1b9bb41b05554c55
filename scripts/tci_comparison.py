"""Compare the tractable consistency index of PCA and the skeleton pipeline.

The transform bandwidth comes from the dataset's own skeleton via the
recommended rule; both algorithms see the identical seeded transform
subsample, so the reported maxima are directly comparable lower bounds.
"""

import argparse
import warnings

from lsdr.datasets import DatasetSpec, generate
from lsdr.embedding import KernelSpec
from lsdr.indices import PcaAdapter, tractable_consistency_index
from lsdr.pipeline import LsdrAdapter, transform_bandwidth


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--transforms", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = DatasetSpec(
        "gaussian_clusters", args.n, p=10, seed=3, params={"clusters": 3, "separation": 10.0}
    )
    x = generate(spec)
    sigma = transform_bandwidth(x, seed=args.seed)
    kernel = KernelSpec("gaussian", sigma)
    print(f"dataset: 3 gaussian clusters, n={args.n}, p=10; transform bandwidth {sigma:.3f}")
    for adapter in (PcaAdapter(), LsdrAdapter(seed=args.seed)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = tractable_consistency_index(
                adapter, x, 2, kernel,
                transform_subsample=args.transforms, seed=args.seed,
            )
        tag = " (lower bound)" if report.subsampled else ""
        if report.value is None:
            # no transform was scored, so there is no value to print
            print(f"{adapter.name:6s} TCI: every one of {len(report.contributions)} transforms failed")
            continue
        print(
            f"{adapter.name:6s} TCI = {report.value:12.4f}   normalized {report.value / args.n:10.4f}"
            f"   over {len(report.contributions)} transforms{tag}"
        )


if __name__ == "__main__":
    main()
