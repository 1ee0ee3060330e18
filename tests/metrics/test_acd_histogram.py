"""Property tests: pair-histogram ACD ≡ streaming ACD.

The campaign runner evaluates shared event artifacts as
:class:`~repro.fmm.events.PairHistogram` instances; these tests pin the
exact equivalence (integer arithmetic, any topology, weighted or not)
that the bit-identity of grouped campaigns rests on.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.acd import acd_breakdown, compute_acd
from repro.topology.registry import make_topology, topology_names

#: 64 ranks is valid for every registered topology (4**3 quadtree
#: leaves, 8**2 octree leaves, 4**3 cube for the 3D grids, 2**6
#: hypercube labels).
P = 64


def random_events(rng: np.random.Generator, p: int, weighted: bool) -> CommunicationEvents:
    """A multi-chunk event multiset with repeated pairs and varied sizes."""
    events = CommunicationEvents(component="random")
    for _ in range(rng.integers(1, 5)):
        n = int(rng.integers(1, 400))
        src = rng.integers(0, p, n)
        dst = rng.integers(0, p, n)
        weights = rng.integers(0, 7, n) if weighted else None
        events.add(src, dst, weights)
    return events


@pytest.mark.parametrize("topology_name", topology_names())
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_histogram_acd_matches_streaming(topology_name, weighted):
    topology = make_topology(topology_name, P, processor_curve="hilbert")
    rng = np.random.default_rng(sum(map(ord, topology_name)) * 2 + int(weighted))
    for trial in range(5):
        events = random_events(rng, P, weighted)
        histogram = events.compact(P)
        streamed = compute_acd(events, topology)
        compacted = compute_acd(histogram, topology)
        assert streamed == compacted  # exact, both integer aggregates


def test_compact_aggregates_weights():
    events = CommunicationEvents()
    events.add([0, 1, 0], [2, 3, 2], [5, 1, 2])
    events.add([0], [2])  # unweighted chunk behaves as weight 1
    hist = events.compact(4)
    assert hist.num_events == 4
    assert hist.num_pairs == 2
    by_pair = dict(zip(zip(hist.src.tolist(), hist.dst.tolist()), hist.weights.tolist()))
    assert by_pair == {(0, 2): 8, (1, 3): 1}
    assert hist.total_weight == events.total_weight == 9


def test_compact_drops_zero_weight_pairs():
    events = CommunicationEvents()
    events.add([0, 1], [1, 2], [0, 3])
    hist = events.compact(3)
    assert hist.num_pairs == 1
    assert hist.total_weight == 3
    topology = make_topology("ring", 3)
    assert compute_acd(hist, topology) == compute_acd(events, topology)


def test_compact_empty_events():
    hist = CommunicationEvents().compact(8)
    assert hist.num_pairs == 0 and hist.num_events == 0 and hist.total_weight == 0
    assert compute_acd(hist, make_topology("ring", 8)).acd == 0.0


def test_compact_rejects_out_of_range_ranks():
    events = CommunicationEvents()
    events.add([0, 5], [1, 2])
    with pytest.raises(ValueError, match="outside"):
        events.compact(4)


@pytest.mark.parametrize("p", [16, 4096])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_compact_rejects_negative_ranks(p, side):
    events = CommunicationEvents()
    src, dst = ([0, -1], [1, 2]) if side == "src" else ([1, 3], [1, -1])
    events.add(src, dst)
    with pytest.raises(ValueError, match="rank -1 outside"):
        events.compact(p)


def counter_oracle(events: CommunicationEvents) -> dict[tuple[int, int], int]:
    """Brute-force histogram: total weight per (src, dst), zero totals dropped."""
    totals: Counter = Counter()
    for src, dst, weights in events.iter_weighted_chunks():
        if weights is None:
            weights = np.ones(src.size, dtype=np.int64)
        for s, d, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
            totals[s, d] += w
    return {pair: w for pair, w in totals.items() if w > 0}


@pytest.mark.parametrize("p", [1, 5, 64, 2049, 65536])
@pytest.mark.parametrize("kind", ["unweighted", "weighted", "zero_weight"])
def test_compact_matches_counter_oracle(p, kind):
    rng = np.random.default_rng(p * 3 + len(kind))
    chunks = []
    for n in (1, 300, 57, 1200):
        # few distinct ranks on the large spaces, so pairs still repeat
        ranks = np.unique(rng.integers(0, p, 40))
        src, dst = rng.choice(ranks, n), rng.choice(ranks, n)
        weights = None
        if kind == "weighted":
            weights = rng.integers(1, 1000, n)
        elif kind == "zero_weight":
            weights = rng.integers(0, 3, n)  # many pairs total zero
        chunks.append((src, dst, weights))
    forward, backward = CommunicationEvents(), CommunicationEvents()
    for chunk in chunks:
        forward.add(*chunk)
    for chunk in reversed(chunks):
        backward.add(*chunk)

    hist = forward.compact(p)
    expected = counter_oracle(forward)
    keys = sorted(expected)
    np.testing.assert_array_equal(hist.src, [s for s, _ in keys])
    np.testing.assert_array_equal(hist.dst, [d for _, d in keys])
    np.testing.assert_array_equal(hist.weights, [expected[k] for k in keys])
    assert hist.src.dtype == hist.dst.dtype == hist.weights.dtype == np.int64
    assert hist.num_processors == p and hist.num_events == len(forward)
    assert hist.total_weight == forward.total_weight

    other = backward.compact(p)
    for a, b in zip((hist.src, hist.dst, hist.weights), (other.src, other.dst, other.weights)):
        np.testing.assert_array_equal(a, b)
    assert other.num_events == hist.num_events


def test_compact_peak_memory_scales_with_events():
    """~1M unweighted neighbour events at p = 65536 compact within 32 B each.

    Each rank talks to its ring neighbours within distance 2, so pairs
    repeat as in the FMM event streams.  The sort-based path peaks near
    20 bytes per event (the chunk keys and their concatenation); the
    hash-based ``np.unique(return_inverse=True)`` it replaced peaked
    above 50.
    """
    p, n = 1 << 16, 1 << 20
    rng = np.random.default_rng(5)
    events = CommunicationEvents()
    for _ in range(16):
        src = rng.integers(0, p, n // 16)
        events.add(src, (src + rng.integers(-2, 3, n // 16)) % p)
    tracemalloc.start()
    try:
        hist = events.compact(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.total_weight == n and hist.num_pairs <= 5 * p
    assert peak <= 32 * n


#: A small and a large rank space.
COMPACT_PATHS = pytest.mark.parametrize("p", [16, 4096], ids=["dense", "sparse"])


@COMPACT_PATHS
def test_compact_rejects_total_weight_at_2_53(p):
    events = CommunicationEvents()
    events.add([0, p - 1], [1, 0], [2**52, 2**52])
    with pytest.raises(ValueError, match=r"2\*\*53"):
        events.compact(p)


@COMPACT_PATHS
def test_compact_exact_just_below_2_53(p):
    events = CommunicationEvents()
    # two events on one pair plus a unit event elsewhere: 2**53 - 1 total
    events.add([0, 0, p - 1], [1, 1, 0], [2**52, 2**52 - 2, 1])
    hist = events.compact(p)
    by_pair = dict(zip(zip(hist.src.tolist(), hist.dst.tolist()), hist.weights.tolist()))
    assert by_pair == {(0, 1): 2**53 - 2, (p - 1, 0): 1}
    assert hist.total_weight == events.total_weight == 2**53 - 1


@pytest.mark.parametrize("topology_name", ["torus", "hypercube", "fat_tree"])
def test_million_rank_histogram_matches_streaming_in_pair_memory(topology_name):
    """At 2**20 ranks the histogram ACD equals the streamed events and its
    working set scales with the pair count, never with ``p**2``."""
    p = 1 << 20
    topology = make_topology(topology_name, p, processor_curve="hilbert")
    rng = np.random.default_rng(sum(map(ord, topology_name)))
    n = 50_000
    events = CommunicationEvents()
    events.add(rng.integers(0, p, n), rng.integers(0, p, n), rng.integers(1, 9, n))
    histogram = events.compact(p)
    topology.distance(np.arange(2), np.arange(2))  # build lazy O(p) tables first
    tracemalloc.start()
    try:
        compacted = compute_acd(histogram, topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert compacted == compute_acd(events, topology)
    assert peak <= 128 * histogram.num_pairs


def test_compact_independent_of_chunk_boundaries():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 16, 200)
    dst = rng.integers(0, 16, 200)
    one_chunk = CommunicationEvents()
    one_chunk.add(src, dst)
    many_chunks = CommunicationEvents()
    for lo in range(0, 200, 17):
        many_chunks.add(src[lo : lo + 17], dst[lo : lo + 17])
    a, b = one_chunk.compact(16), many_chunks.compact(16)
    np.testing.assert_array_equal(a.src, b.src)
    np.testing.assert_array_equal(a.dst, b.dst)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_histogram_rejects_larger_rank_space_than_topology():
    events = CommunicationEvents()
    events.add([0, 9], [1, 3])
    hist = events.compact(16)
    with pytest.raises(ValueError, match="ranks"):
        compute_acd(hist, make_topology("ring", 8))


def test_acd_breakdown_accepts_histograms():
    rng = np.random.default_rng(7)
    topology = make_topology("torus", 16, processor_curve="hilbert")
    phases = {name: random_events(rng, 16, weighted=False) for name in ("a", "b")}
    streamed = acd_breakdown(phases, topology)
    compacted = acd_breakdown(
        {name: ev.compact(16) for name, ev in phases.items()}, topology
    )
    assert streamed == compacted


def test_flat_keys_round_trip():
    events = CommunicationEvents()
    events.add([3, 1], [2, 0])
    hist = events.compact(5)
    np.testing.assert_array_equal(hist.flat_keys(), hist.src * 5 + hist.dst)
    assert isinstance(hist, PairHistogram)


def test_rank_range_and_total_weight_cached_per_histogram():
    """One histogram evaluated on many networks scans its arrays once."""
    hist = random_events(np.random.default_rng(9), P, weighted=True).compact(P)
    assert not {"rank_range", "total_weight"} & set(vars(hist))
    results = [compute_acd(hist, make_topology(name, P)) for name in topology_names()]
    assert {"rank_range", "total_weight"} <= set(vars(hist))
    low, high = hist.rank_range
    assert low == min(hist.src.min(), hist.dst.min())
    assert high == max(hist.src.max(), hist.dst.max())
    assert all(result.count == hist.weights.sum() for result in results)
    assert [compute_acd(hist, make_topology(name, P)) for name in topology_names()] == results
    with pytest.raises(ValueError, match=f"rank {high} outside"):
        narrow = PairHistogram(hist.src, hist.dst, hist.weights, high, 1)
        compute_acd(narrow, make_topology("ring", high))
