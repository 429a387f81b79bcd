import numpy as np
import pytest

from nnkernels import rng

EXTREME_SEEDS = (0, 2**64 - 1)


def key(gen):
    return tuple(int(k) for k in gen.bit_generator.state["state"]["key"])


def test_keys_pairwise_distinct():
    keys = [
        key(rng.stream(seed, purpose, index))
        for seed in EXTREME_SEEDS
        for purpose in rng.PURPOSES
        for index in range(4)
    ]
    assert len(set(keys)) == len(keys) == 2 * len(rng.PURPOSES) * 4


def test_key_layout():
    assert key(rng.stream(5, "data")) == (5, 0)
    assert key(rng.stream(2**64 - 1, "kernel_mc", 7)) == (2**64 - 1, (3 << 32) | 7)


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
def test_data_and_langevin_streams_differ(seed):
    # a chain seeded like the data once drew its initial weights from the data's normals
    data = rng.stream(seed, "data").standard_normal(8)
    chain = rng.stream(seed, "langevin").standard_normal(8)
    assert not np.any(data == chain)


def test_numpy_integer_seed():
    a = rng.stream(np.uint64(2**64 - 1), "chains").bit_generator.random_raw(3)
    b = rng.stream(2**64 - 1, "chains").bit_generator.random_raw(3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**32)])
def test_out_of_range_rejected(seed, index):
    with pytest.raises(ValueError):
        rng.stream(seed, "data", index)


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        rng.stream(0, "banana")
