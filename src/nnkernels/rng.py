"""Seeded random streams: the one place where the package builds a generator.

Every draw comes from ``stream(seed, purpose, index)``, a Philox
counter-based generator (Salmon et al. 2011, "Parallel random numbers:
as easy as 1, 2, 3") with the 128-bit key

    [seed, (PURPOSES.index(purpose) << 32) | index].

Two streams share a key only when seed, purpose and index all agree, so
the data a check is run on never reuses the normals of the oracle it is
checked against, whatever seeds the caller picks.  Any seed in
[0, 2^64) is valid.  "data" has id 0, so a data stream's key is
[seed, 0].
"""

from __future__ import annotations

import operator

import numpy as np

#: Stream purposes, by id; the order is part of every stored result.
PURPOSES = ("data", "teacher", "langevin", "kernel_mc", "dataset_mc", "ou_paths", "chains")


def check_seed(seed) -> int:
    """``seed`` as a Python int; ``ValueError`` unless 0 <= seed < 2^64."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def stream(seed, purpose: str, index: int = 0) -> np.random.Generator:
    """The generator keyed by (seed, purpose, index), 0 <= index < 2^32."""
    seed = check_seed(seed)
    index = operator.index(index)
    if not 0 <= index < 2**32:
        raise ValueError(f"stream index must be in [0, 2^32), got {index}")
    word = (PURPOSES.index(purpose) << 32) | index
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))
