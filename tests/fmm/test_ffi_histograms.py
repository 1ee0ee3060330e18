"""Far-field histograms from the half interaction stencil.

:func:`~repro.fmm.ffi.ffi_histograms` generates each unordered
interaction-list pair once and stores it in a symmetric histogram
``U`` standing for ``U + Uᵀ``; anterpolation is the transposed
interpolation histogram.  These tests pin both against the ordered
event API, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution, get_distribution3d
from repro.fmm import (
    CommunicationEvents,
    PairHistogram,
    ffi_events,
    ffi_histograms,
    interaction_events,
    interpolation_events,
)
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
    full = interaction_events(representative_pyramid(asg.owner_grid())).compact(P)
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
    ordered = ffi_events(asg).as_mapping()
    hists = ffi_histograms(asg, P)
    assert list(hists) == ["interpolation", "anterpolation", "interaction"]
    for phase in ("interpolation", "anterpolation"):
        _assert_same(hists[phase], ordered[phase].compact(P))
    assert hists["interaction"].num_events == len(ordered["interaction"])


@pytest.mark.parametrize("name", topology_names())
def test_doubled_half_total_equals_full_total(name):
    topo = make_topology(name, P, processor_curve="hilbert")
    for dim in (2, 3):
        for distribution in ("uniform", "exponential"):
            asg = _assignment(dim, distribution, 11)
            full = interaction_events(representative_pyramid(asg.owner_grid())).compact(P)
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
