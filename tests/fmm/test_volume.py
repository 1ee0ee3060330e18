"""Tests for weighted events and the data-volume FFI model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution, get_distribution3d
from repro.fmm import CommunicationEvents, ffi_histograms
from repro.fmm.volume import weighted_ffi_events
from repro.metrics import acd_breakdown, compute_acd
from repro.partition import partition_particles
from repro.quadtree import (
    EMPTY,
    interaction_list_cells,
    occupancy_pyramid,
    representative_pyramid,
)
from repro.topology import make_topology


class TestWeightedEvents:
    def test_weight_accounting(self):
        ev = CommunicationEvents()
        ev.add([0, 1], [2, 3], weights=[5, 2])
        ev.add([4], [5])  # implicit weight 1
        assert len(ev) == 3
        assert ev.total_weight == 8

    def test_weighted_acd(self):
        bus = make_topology("bus", 8)
        ev = CommunicationEvents()
        ev.add([0, 0], [4, 1], weights=[2, 6])  # 2*4 + 6*1 = 14 over weight 8
        result = compute_acd(ev, bus)
        assert result.total_distance == 14
        assert result.count == 8
        assert result.acd == pytest.approx(14 / 8)

    def test_zero_weight_events_ignored_in_mean(self):
        bus = make_topology("bus", 8)
        ev = CommunicationEvents()
        ev.add([0], [7], weights=[0])
        assert compute_acd(ev, bus).acd == 0.0

    def test_negative_weight_rejected(self):
        ev = CommunicationEvents()
        with pytest.raises(ValueError):
            ev.add([0], [1], weights=[-1])

    def test_length_mismatch_rejected(self):
        ev = CommunicationEvents()
        with pytest.raises(ValueError):
            ev.add([0, 1], [2, 3], weights=[1])

    def test_reversed_preserves_weights(self):
        ev = CommunicationEvents()
        ev.add([0], [1], weights=[7])
        rev = ev.reversed()
        assert rev.total_weight == 7


@pytest.fixture(scope="module")
def assignment():
    particles = get_distribution("uniform").sample(500, 5, rng=8)
    return partition_particles(particles, "hilbert", 16)


class TestWeightedFfi:
    def test_multipole_model_matches_unweighted(self, assignment):
        net = make_topology("torus", 16, processor_curve="hilbert")
        plain = acd_breakdown(ffi_histograms(assignment, 16), net)
        weighted = acd_breakdown(weighted_ffi_events(assignment, "multipole"), net)
        assert weighted == plain

    def test_multipole_expansion_size_scales_totals(self, assignment):
        net = make_topology("torus", 16, processor_curve="hilbert")
        one = acd_breakdown(
            weighted_ffi_events(assignment, "multipole", expansion_size=1), net
        )
        ten = acd_breakdown(
            weighted_ffi_events(assignment, "multipole", expansion_size=10), net
        )
        assert ten["combined"].total_distance == 10 * one["combined"].total_distance
        assert ten["combined"].acd == pytest.approx(one["combined"].acd)

    def test_aggregate_weights_equal_cell_occupancy(self, assignment):
        ffi = weighted_ffi_events(assignment, "aggregate")
        # the root-level transfer(s) carry every particle
        total_interp_weight = ffi["interpolation"].total_weight
        # one transfer per non-empty cell per level, weighted by its count:
        # summing over all levels the weights telescope to levels * n
        from repro.quadtree import occupancy_pyramid

        occ = occupancy_pyramid(assignment.owner_grid())
        expected = sum(int(g.sum()) for g in occ[1:])
        assert total_interp_weight == expected

    def test_aggregate_raises_acd_on_torus(self, assignment):
        """Shifting weight to coarse (long-haul) transfers raises the
        volume-weighted ACD above the per-message ACD."""
        net = make_topology("torus", 16, processor_curve="hilbert")
        plain = acd_breakdown(ffi_histograms(assignment, 16), net)
        agg = acd_breakdown(weighted_ffi_events(assignment, "aggregate"), net)
        assert agg["interpolation"].acd > plain["interpolation"].acd

    def test_unknown_model_rejected(self, assignment):
        with pytest.raises(ValueError, match="volume_model"):
            weighted_ffi_events(assignment, "bytes")


def aggregate_interaction_reference(owner_grid) -> dict:
    """``{(src, dst): volume}`` of every interaction-list message, from the definition.

    Each occupied cell sends its particle count to every occupied cell
    of its interaction list.
    """
    pyramid, occupancy = representative_pyramid(owner_grid), occupancy_pyramid(owner_grid)
    weights: dict = {}
    for level in range(2, len(pyramid)):
        grid = pyramid[level]
        for cell in zip(*np.nonzero(grid != EMPTY)):
            cell = tuple(int(c) for c in cell)
            for peer in interaction_list_cells(*cell, level=level).tolist():
                if grid[tuple(peer)] != EMPTY:
                    key = (int(grid[cell]), int(grid[tuple(peer)]))
                    weights[key] = weights.get(key, 0) + int(occupancy[level][cell])
    return weights


@pytest.fixture(scope="module", params=[2, 3], ids=["2d", "3d"])
def any_dim_assignment(request):
    if request.param == 2:
        particles = get_distribution("normal").sample(300, 5, rng=2)
        return partition_particles(particles, "hilbert", 16)
    particles = get_distribution3d("uniform").sample(300, 3, rng=2)
    return partition_particles(particles, "hilbert3d", 16)


class TestWeightedFfiAnyDimension:
    def test_aggregate_interpolation_weight_is_occupancy_of_levels_1_to_k(
        self, any_dim_assignment
    ):
        ffi = weighted_ffi_events(any_dim_assignment, "aggregate")
        occ = occupancy_pyramid(any_dim_assignment.owner_grid())
        assert ffi["interpolation"].total_weight == sum(int(g.sum()) for g in occ[1:])
        assert ffi["anterpolation"].total_weight == ffi["interpolation"].total_weight

    def test_unit_multipole_equals_unweighted_histograms(self, any_dim_assignment):
        net = make_topology("hypercube", 16)
        weighted = weighted_ffi_events(any_dim_assignment, "multipole", expansion_size=1)
        plain = ffi_histograms(any_dim_assignment, 16)
        assert acd_breakdown(weighted, net) == acd_breakdown(plain, net)

    def test_aggregate_interaction_matches_definition(self, any_dim_assignment):
        hist = weighted_ffi_events(any_dim_assignment, "aggregate")["interaction"]
        got = dict(zip(zip(hist.src.tolist(), hist.dst.tolist()), hist.weights.tolist()))
        assert got == aggregate_interaction_reference(any_dim_assignment.owner_grid())
