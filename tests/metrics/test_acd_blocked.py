"""Blocked ACD evaluation: block boundaries never change the result.

:func:`repro.metrics.acd.compute_acd` evaluates distances in fixed
:data:`~repro.metrics.acd._BLOCK`-pair slices.  These tests pin the
result against an unblocked ``int64`` dot at every block-boundary size,
keep the up-front rank validation, and bound the evaluation's memory by
a block rather than by the number of pairs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.acd import _BLOCK, compute_acd
from repro.topology.registry import make_topology

P = 1024
TOPOLOGIES = ["torus", "hypercube", "dragonfly"]


def random_histogram(num_pairs: int, p: int = P, seed: int = 0) -> PairHistogram:
    """``num_pairs`` distinct sorted rank pairs with weights in 1..8."""
    rng = np.random.default_rng([num_pairs, seed])
    keys = np.sort(rng.choice(p * p, num_pairs, replace=False))
    src, dst = np.divmod(keys, p)
    weights = rng.integers(1, 9, num_pairs)
    return PairHistogram(src, dst, weights, p, int(weights.sum()))


def unblocked_total(histogram: PairHistogram, topology) -> int:
    if not histogram.num_pairs:
        return 0
    distances = topology.distance(histogram.src, histogram.dst).astype(np.int64)
    return int(distances @ histogram.weights)


@pytest.mark.parametrize("topology_name", TOPOLOGIES)
@pytest.mark.parametrize(
    "num_pairs",
    [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7],
    ids=["0", "1", "B-1", "B", "B+1", "3B+7"],
)
def test_blocked_equals_unblocked_dot(topology_name, num_pairs):
    topology = make_topology(topology_name, P, processor_curve="hilbert")
    histogram = random_histogram(num_pairs)
    result = compute_acd(histogram, topology)
    assert result.total_distance == unblocked_total(histogram, topology)
    assert result.count == histogram.total_weight
    events = CommunicationEvents()
    events.add(histogram.src, histogram.dst, histogram.weights)
    assert compute_acd(events, topology) == result
    unweighted = CommunicationEvents()
    unweighted.add(histogram.src, histogram.dst)
    hops = topology.distance(histogram.src, histogram.dst).astype(np.int64)
    assert compute_acd(unweighted, topology).total_distance == int(hops.sum())


@pytest.mark.parametrize("form", ["histogram", "events"])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_out_of_range_rank_in_last_block_raises(form, side):
    """Ranks are validated on the full arrays before the first block runs."""
    topology = make_topology("torus", P, processor_curve="hilbert")
    h = random_histogram(3 * _BLOCK + 7)
    src, dst = h.src.copy(), h.dst.copy()
    (src if side == "src" else dst)[-1] = P
    if form == "histogram":
        bad = PairHistogram(src, dst, h.weights, P, h.num_events)
    else:
        bad = CommunicationEvents()
        bad.add(src, dst, h.weights)
    with pytest.raises(ValueError, match=f"rank {P} outside the {P}-processor rank space"):
        compute_acd(bad, topology)


@pytest.mark.parametrize("topology_name", TOPOLOGIES)
def test_million_pair_histogram_memory_is_one_block(topology_name):
    """2**20 pairs evaluate within a fraction of one full-length int64 array."""
    p = 1 << 12
    n = 1 << 20
    histogram = random_histogram(n, p)
    topology = make_topology(topology_name, p, processor_curve="hilbert")
    topology.distance(np.arange(2), np.arange(2))  # build lazy O(p) tables first
    tracemalloc.start()
    try:
        result = compute_acd(histogram, topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.total_distance == unblocked_total(histogram, topology)
    full_distance_array = 8 * n
    assert peak <= 3 * full_distance_array // 8


@pytest.mark.parametrize("form", ["histogram", "events"])
def test_blocks_skip_the_per_call_rank_check(form, monkeypatch):
    """The up-front rank check covers every block: no block checks its ranks again.

    Checking in :meth:`Topology.distance` would cost two range scans per
    block, 8 for these four blocks.
    """
    import repro.topology.base as topology_base

    topology = make_topology("torus", P, processor_curve="hilbert")
    h = random_histogram(4 * _BLOCK)
    evaluated = h if form == "histogram" else CommunicationEvents()
    if form == "events":
        evaluated.add(h.src, h.dst, h.weights)
    real, names = topology_base.check_in_range, []
    monkeypatch.setattr(
        topology_base, "check_in_range", lambda *args: names.append(args[-1]) or real(*args)
    )
    result = compute_acd(evaluated, topology)
    assert names == []
    assert result.total_distance == unblocked_total(h, topology)
    assert len(names) == 2  # the reference itself goes through Topology.distance
