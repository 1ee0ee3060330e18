"""``sample`` output pinned against the ``np.unique``-based rejection loop.

The samplers deduplicate candidate cells with a sort plus an
adjacent-difference mask.  The distinct cells they draw from must be the
same sorted array ``np.unique`` gives, so ``gen.choice`` consumes the
identical random stream and every seed yields the identical particles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import DISTRIBUTIONS, get_distribution
from repro.distributions.three_d import get_distribution3d
from repro.util.sets import sorted_unique


def unique_reference(dist, n: int, order: int, seed: int, dims: int) -> list[np.ndarray]:
    """The rejection loop written with ``np.unique``; coordinates per axis."""
    gen = np.random.default_rng(seed)
    side = np.int64(1 << order)
    seen = np.empty(0, dtype=np.int64)
    batch = max(2 * n, 1024)
    for _ in range(8):
        first, *rest = dist._sample_batch(batch, int(side), gen)
        codes = first
        for axis in rest:
            codes = codes * side + axis
        seen = np.unique(np.concatenate([seen, codes]))
        if seen.size >= n:
            chosen = gen.choice(seen, size=n, replace=False)
            return [(chosen // side ** (dims - 1 - a)) % side for a in range(dims)]
        batch *= 2
    raise AssertionError(f"{n} distinct cells not reached in 8 batches")


#: A particle count per law that takes 2-4 batches on the order-6 (2D)
#: or order-4 (3D) lattice, exercising the accumulated ``seen`` set;
#: 300 particles always finish in one batch.
MULTI_BATCH = {
    "uniform": 3500,
    "normal": 800,
    "exponential": 1200,
    "plummer": 800,
    "clustered": 800,
    "uniform3d": 3500,
    "normal3d": 800,
    "exponential3d": 800,
}
SEEDS = [0, 7, 2013]


@pytest.mark.parametrize("name", DISTRIBUTIONS.names())
@pytest.mark.parametrize("batches", ["one", "several"])
@pytest.mark.parametrize("seed", SEEDS)
def test_2d_sample_matches_unique_reference(name, batches, seed):
    n = 300 if batches == "one" else MULTI_BATCH[name]
    got = get_distribution(name).sample(n, 6, rng=seed)
    # a fresh instance: the clustered law draws its centres once per session
    x, y = unique_reference(get_distribution(name), n, 6, seed, dims=2)
    np.testing.assert_array_equal(got.x, x)
    np.testing.assert_array_equal(got.y, y)


@pytest.mark.parametrize("name", ["uniform3d", "normal3d", "exponential3d"])
@pytest.mark.parametrize("batches", ["one", "several"])
@pytest.mark.parametrize("seed", SEEDS)
def test_3d_sample_matches_unique_reference(name, batches, seed):
    n = 300 if batches == "one" else MULTI_BATCH[name]
    got = get_distribution3d(name).sample(n, 4, rng=seed)
    x, y, z = unique_reference(get_distribution3d(name), n, 4, seed, dims=3)
    np.testing.assert_array_equal(got.x, x)
    np.testing.assert_array_equal(got.y, y)
    np.testing.assert_array_equal(got.z, z)


@pytest.mark.parametrize(
    "values",
    [
        np.empty(0, dtype=np.int64),
        np.array([5]),
        np.array([3, 1, 3, 3, 0, 1]),
        np.random.default_rng(1).integers(-50, 50, (40, 3)),
        np.random.default_rng(2).integers(0, 2**40, 10_000),
    ],
    ids=["empty", "single", "repeats", "2d", "wide"],
)
def test_sorted_unique_equals_np_unique(values):
    got = sorted_unique(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
