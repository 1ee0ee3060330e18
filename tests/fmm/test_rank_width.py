"""32-bit ranks and pair keys: edges of the key width, exactness of int32 chunks.

Owner grids, pyramid levels and the event chunks gathered from them hold
``int32`` ranks, and ``compact`` sorts ``uint32`` keys ``src * p + dst``
whenever ``p**2 <= 2**32``.  These tests pin the edges of that contract
against the brute-force ``Counter`` oracle: the largest ``uint32`` key,
the first rank space that needs ``int64`` keys, byte-identical
histograms from ``int32`` and ``int64`` input, and exact raw-chunk
consumers in :mod:`repro.contention`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.contention import link_loads, simulate_exchange
from repro.distributions import get_distribution, get_distribution3d
from repro.fmm import CommunicationEvents
from repro.fmm.nfi import nfi_events
from repro.metrics import compute_acd
from repro.partition import Assignment, partition_particles
from repro.partition.assignment import MAX_RANKS
from repro.quadtree.pyramid import EMPTY, representative_pyramid
from repro.topology import make_topology


def oracle(events: CommunicationEvents, symmetric: bool) -> dict[tuple[int, int], int]:
    """Total weight per pair (``(min, max)`` when symmetric), zero totals dropped."""
    totals: Counter = Counter()
    for src, dst, weights in events.iter_weighted_chunks():
        if weights is None:
            weights = np.ones(src.size, dtype=np.int64)
        for s, d, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
            totals[(min(s, d), max(s, d)) if symmetric else (s, d)] += w
    return {pair: w for pair, w in totals.items() if w > 0}


def assert_matches_oracle(events: CommunicationEvents, p: int, symmetric: bool):
    hist = events.compact(p, symmetric=symmetric)
    expected = oracle(events, symmetric)
    pairs = sorted(expected)
    np.testing.assert_array_equal(hist.src, [s for s, _ in pairs])
    np.testing.assert_array_equal(hist.dst, [d for _, d in pairs])
    np.testing.assert_array_equal(hist.weights, [expected[k] for k in pairs])
    assert hist.src.dtype == hist.dst.dtype == hist.weights.dtype == np.int64
    return hist


def edge_events(top: int, dtype, weighted: bool) -> CommunicationEvents:
    """Every ordered pair of ranks ``0`` and ``top``, repeated, in two chunks."""
    ranks = np.array([0, top], dtype=dtype)
    src, dst = np.repeat(ranks, 6), np.tile(np.repeat(ranks, 3), 2)
    events = CommunicationEvents()
    for half in (slice(0, 7), slice(7, None)):
        weights = np.arange(1, src.size + 1)[half] if weighted else None
        events.add(src[half], dst[half], weights)
    return events


@pytest.mark.parametrize("symmetric", [False, True], ids=["ordered", "symmetric"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
class TestKeyWidthEdges:
    def test_largest_uint32_key(self, symmetric, weighted, dtype):
        p = 1 << 16
        hist = assert_matches_oracle(edge_events(p - 1, dtype, weighted), p, symmetric)
        assert int(hist.flat_keys().max()) == (1 << 32) - 1

    def test_first_rank_space_with_int64_keys(self, symmetric, weighted, dtype):
        p = (1 << 16) + 1
        hist = assert_matches_oracle(edge_events(p - 1, dtype, weighted), p, symmetric)
        assert int(hist.flat_keys().max()) == p * p - 1 > (1 << 32)


@pytest.mark.parametrize("p", [64, 1 << 16, (1 << 16) + 1])
@pytest.mark.parametrize("symmetric", [False, True], ids=["ordered", "symmetric"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_int32_and_int64_chunks_compact_byte_identically(p, symmetric, weighted):
    rng = np.random.default_rng(p + 2 * symmetric + weighted)
    wide, narrow, mixed = CommunicationEvents(), CommunicationEvents(), CommunicationEvents()
    for n in (1, 500, 3000):
        ranks = np.unique(rng.integers(0, p, 60))
        src, dst = rng.choice(ranks, n), rng.choice(ranks, n)
        weights = rng.integers(0, 5, n) if weighted else None
        wide.add(src, dst, weights)
        narrow.add(src.astype(np.int32), dst.astype(np.int32), weights)
        mixed.add(src.astype(np.int32), dst, weights)
    assert next(narrow.iter_chunks())[0].dtype == np.int32
    hists = [events.compact(p, symmetric=symmetric) for events in (wide, narrow, mixed)]
    for hist in hists[1:]:
        for a, b in zip(
            (hists[0].src, hists[0].dst, hists[0].weights), (hist.src, hist.dst, hist.weights)
        ):
            assert a.dtype == b.dtype == np.int64
            assert a.tobytes() == b.tobytes()
        assert (hist.num_events, hist.symmetric) == (hists[0].num_events, symmetric)


def widened(events: CommunicationEvents) -> CommunicationEvents:
    out = CommunicationEvents(component=events.component)
    for src, dst, weights in events.iter_weighted_chunks():
        out.add(src.astype(np.int64), dst.astype(np.int64), weights)
    return out


@pytest.fixture(scope="module")
def nfi_int32():
    particles = get_distribution("normal").sample(400, 6, rng=np.random.default_rng(3))
    events = nfi_events(partition_particles(particles, "hilbert", 64), radius=2)
    assert all(src.dtype == dst.dtype == np.int32 for src, dst in events.iter_chunks())
    return events


class TestRawInt32ChunkConsumers:
    @pytest.mark.parametrize("name", ["mesh", "torus", "ring", "hypercube"])
    def test_simulated_exchange_matches_int64_events(self, nfi_int32, name):
        topo = make_topology(name, 64)
        assert simulate_exchange(nfi_int32, topo) == simulate_exchange(widened(nfi_int32), topo)

    @pytest.mark.parametrize("name", ["mesh", "torus"])
    def test_link_loads_match_int64_events(self, nfi_int32, name):
        topo = make_topology(name, 64, processor_curve="hilbert")
        narrow, wide = link_loads(nfi_int32, topo), link_loads(widened(nfi_int32), topo)
        np.testing.assert_array_equal(narrow.horizontal, wide.horizontal)
        np.testing.assert_array_equal(narrow.vertical, wide.vertical)

    @pytest.mark.parametrize("name", ["mesh", "torus", "quadtree", "fat_tree", "dragonfly"])
    def test_streamed_acd_matches_int64_events(self, nfi_int32, name):
        topo = make_topology(name, 64)
        assert compute_acd(nfi_int32, topo) == compute_acd(widened(nfi_int32), topo)

    def test_pairs_and_reversed_keep_int32(self, nfi_int32):
        src, dst = nfi_int32.pairs()
        back, forth = nfi_int32.reversed().pairs()
        assert src.dtype == dst.dtype == np.int32
        np.testing.assert_array_equal(back, dst)
        np.testing.assert_array_equal(forth, src)


class TestThirtyTwoBitGrids:
    def test_owner_grid_and_pyramid_are_int32(self):
        particles = get_distribution3d("uniform").sample(200, 4, rng=np.random.default_rng(0))
        grid = partition_particles(particles, "hilbert3d", 8).owner_grid()
        assert grid.dtype == np.int32
        levels = representative_pyramid(grid)
        assert all(level.dtype == np.int32 for level in levels)
        assert EMPTY == np.iinfo(np.int32).max == MAX_RANKS
        assert levels[0].item() == 0

    def test_too_many_ranks_rejected_before_allocating(self):
        particles = get_distribution("uniform").sample(50, 4, rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="num_processors"):
            partition_particles(particles, "hilbert", MAX_RANKS + 1)
        small = partition_particles(particles, "hilbert", 4)
        wide = Assignment(small.particles, small.keys, small.processor, MAX_RANKS + 1)
        with pytest.raises(ValueError, match="num_processors"):
            wide.owner_grid()

    def test_pyramid_rejects_ranks_at_the_sentinel(self):
        grid = np.full((4, 4), -1, dtype=np.int64)
        grid[1, 2] = EMPTY
        with pytest.raises(ValueError, match="below"):
            representative_pyramid(grid)
