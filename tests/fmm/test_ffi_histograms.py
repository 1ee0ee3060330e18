"""Far-field histograms from the half interaction stencil.

:func:`~repro.fmm.ffi.ffi_histograms` generates each unordered
interaction-list pair once and stores it in a symmetric histogram
``U`` standing for ``U + Uᵀ``; anterpolation is the transposed
interpolation histogram.  These tests pin both, byte for byte, against
the compacted ordered events of the full interaction offset tables
(:func:`~repro.fmm.ffi.interaction_pairs`, every level) and of
:func:`~repro.fmm.ffi.interpolation_events`, at both granularities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution, get_distribution3d
from repro.fmm import (
    CommunicationEvents,
    PairHistogram,
    ffi_histograms,
    interpolation_events,
)
from repro.fmm.ffi import _dedup, interaction_pairs
from repro.metrics.acd import compute_acd
from repro.partition import partition_particles
from repro.quadtree import representative_pyramid
from repro.topology.registry import make_topology, topology_names

P = 64  # valid for every registered topology


def _assignment(dim: int, distribution: str, seed: int, p: int = P):
    if dim == 2:
        particles = get_distribution(distribution).sample(900, 6, rng=seed)
        return partition_particles(particles, "hilbert", p)
    particles = get_distribution3d(distribution).sample(700, 4, rng=seed)
    return partition_particles(particles, "hilbert3d", p)


def _assert_same(got: PairHistogram, want: PairHistogram) -> None:
    for field in ("src", "dst", "weights"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)
    assert got.num_processors == want.num_processors
    assert got.num_events == want.num_events


def _full_interaction(asg, per_processor: bool = False) -> CommunicationEvents:
    """Ordered interaction pairs of every level from the full offset tables.

    ``per_processor`` deduplicates each level to its distinct rank pairs.
    """
    events = CommunicationEvents(component="interaction")
    for grid in representative_pyramid(asg.owner_grid())[2:]:
        src, dst = interaction_pairs(grid)
        if per_processor and src.size:
            src, dst = _dedup(src, dst)
        events.add(src, dst)
    return events


def _mirrored(half: PairHistogram) -> PairHistogram:
    """``U`` ∪ ``Uᵀ`` as ordered events, compacted."""
    events = CommunicationEvents()
    events.add(half.src, half.dst, half.weights)
    events.add(half.dst, half.src, half.weights)
    return events.compact(half.num_processors)


CASES = [
    (dim, distribution, seed)
    for dim in (2, 3)
    for distribution in ("uniform", "normal", "exponential")
    for seed in (0, 2013)
]


@pytest.mark.parametrize("dim,distribution,seed", CASES)
def test_half_interaction_histogram_mirrors_to_full(dim, distribution, seed):
    asg = _assignment(dim, distribution, seed)
    full = _full_interaction(asg).compact(P)
    half = ffi_histograms(asg, P)["interaction"]
    assert half.symmetric and not full.symmetric
    assert half.num_events == full.num_events
    assert half.total_weight == full.total_weight
    assert half.num_pairs < full.num_pairs
    mirrored = _mirrored(half)
    for field in ("src", "dst"):
        np.testing.assert_array_equal(getattr(mirrored, field), getattr(full, field))
    # mirroring doubles self pairs: (r, r) appears in U and in U^T
    np.testing.assert_array_equal(mirrored.weights, full.weights)
    assert mirrored.weights.dtype == full.weights.dtype


@pytest.mark.parametrize("dim,distribution,seed", CASES)
def test_anterpolation_is_transposed_interpolation(dim, distribution, seed):
    asg = _assignment(dim, distribution, seed)
    pyramid = representative_pyramid(asg.owner_grid())
    want = interpolation_events(pyramid).reversed().compact(P)
    hists = ffi_histograms(asg, P)
    _assert_same(hists["anterpolation"], want)
    _assert_same(hists["interpolation"], interpolation_events(pyramid).compact(P))
    assert not hists["anterpolation"].symmetric


@pytest.mark.parametrize("dim", [2, 3])
def test_phases_match_compacted_ffi_events(dim):
    asg = _assignment(dim, "normal", 7)
    interpolation = interpolation_events(representative_pyramid(asg.owner_grid()))
    hists = ffi_histograms(asg, P)
    assert list(hists) == ["interpolation", "anterpolation", "interaction"]
    _assert_same(hists["interpolation"], interpolation.compact(P))
    _assert_same(hists["anterpolation"], interpolation.reversed().compact(P))
    assert hists["interaction"].num_events == len(_full_interaction(asg))


@pytest.mark.parametrize("dim,distribution,seed", CASES)
def test_processor_granularity_compacts_per_level_distinct_pairs(dim, distribution, seed):
    """No symmetric fold: the per-level deduplicated pairs, compacted as they are."""
    asg = _assignment(dim, distribution, seed)
    pyramid = representative_pyramid(asg.owner_grid())
    hists = ffi_histograms(asg, P, granularity="processor")
    interpolation = interpolation_events(pyramid, "processor").compact(P)
    _assert_same(hists["interpolation"], interpolation)
    _assert_same(hists["anterpolation"], interpolation.transposed())
    _assert_same(hists["interaction"], _full_interaction(asg, per_processor=True).compact(P))
    assert not any(h.symmetric for h in hists.values())


@pytest.mark.parametrize("name", topology_names())
def test_doubled_half_total_equals_full_total(name):
    topo = make_topology(name, P, processor_curve="hilbert")
    for dim in (2, 3):
        for distribution in ("uniform", "exponential"):
            asg = _assignment(dim, distribution, 11)
            full = _full_interaction(asg).compact(P)
            half = ffi_histograms(asg, P)["interaction"]
            stored = topo.distance(half.src, half.dst).astype(np.int64) @ half.weights
            ordered = topo.distance(full.src, full.dst).astype(np.int64) @ full.weights
            assert 2 * int(stored) == int(ordered)
            assert compute_acd(half, topo) == compute_acd(full, topo)


def test_empty_and_single_cell_inputs():
    from repro.distributions import Particles

    one = Particles(np.array([3]), np.array([5]), order=3)
    hists = ffi_histograms(partition_particles(one, "hilbert", 4), 4)
    inter = hists["interaction"]
    assert inter.symmetric and inter.num_pairs == 0 and inter.num_events == 0
    assert hists["interpolation"].num_events == 3
    _assert_same(hists["anterpolation"], hists["interpolation"])  # all self pairs


def test_transposed_of_empty_histogram():
    empty = CommunicationEvents().compact(4)
    _assert_same(empty.transposed(), empty)
