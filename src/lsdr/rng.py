"""Named random sub-streams derived from a single seed.

The tessellation jitter draws from ``substream(seed, name)``. The dataset
generators and the consistency index's transform subsample seed
``numpy.random.default_rng`` directly with the seed and a fixed tag of their
own. Either way a single seed makes the whole run reproducible while the
components stay independently replayable.
"""

import zlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a generator for the named sub-stream of ``seed``."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, tag])
