"""Tests for far-field event generation with a brute-force oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.distributions import get_distribution, get_distribution3d
from repro.fmm import ffi_events, interaction_events, interpolation_events
from repro.partition import partition_particles
from repro.quadtree import (
    EMPTY,
    interaction_list_cells,
    interaction_offsets,
    representative_pyramid,
)


@pytest.fixture
def assignment():
    particles = get_distribution("uniform").sample(100, 4, rng=9)
    return partition_particles(particles, "hilbert", 8)


def brute_force_interpolation(pyramid):
    pairs = []
    k = len(pyramid) - 1
    for level in range(k, 0, -1):
        grid, parent = pyramid[level], pyramid[level - 1]
        side = grid.shape[0]
        for cx in range(side):
            for cy in range(side):
                if grid[cx, cy] != EMPTY:
                    pairs.append((int(grid[cx, cy]), int(parent[cx // 2, cy // 2])))
    return pairs


def brute_force_interaction(pyramid):
    pairs = []
    for level in range(2, len(pyramid)):
        grid = pyramid[level]
        side = grid.shape[0]
        for cx in range(side):
            for cy in range(side):
                if grid[cx, cy] == EMPTY:
                    continue
                for tx, ty in interaction_list_cells(cx, cy, level):
                    if grid[tx, ty] != EMPTY:
                        pairs.append((int(grid[cx, cy]), int(grid[tx, ty])))
    return pairs


class TestInterpolation:
    def test_matches_brute_force(self, assignment):
        pyramid = representative_pyramid(assignment.owner_grid())
        events = interpolation_events(pyramid)
        src, dst = events.pairs()
        got = sorted(zip(src.tolist(), dst.tolist()))
        assert got == sorted(brute_force_interpolation(pyramid))

    def test_event_count_equals_nonempty_cells(self, assignment):
        """One upward transfer per non-empty non-root cell."""
        pyramid = representative_pyramid(assignment.owner_grid())
        expected = sum(int(np.count_nonzero(g != EMPTY)) for g in pyramid[1:])
        assert len(interpolation_events(pyramid)) == expected

    def test_parent_rep_is_min_of_children(self, assignment):
        pyramid = representative_pyramid(assignment.owner_grid())
        events = interpolation_events(pyramid)
        src, dst = events.pairs()
        assert np.all(dst <= src)  # parent representative is a min-reduction


class TestInteraction:
    def test_matches_brute_force(self, assignment):
        pyramid = representative_pyramid(assignment.owner_grid())
        events = interaction_events(pyramid)
        src, dst = events.pairs()
        got = sorted(zip(src.tolist(), dst.tolist()))
        assert got == sorted(brute_force_interaction(pyramid))

    def test_ordered_pairs_are_symmetric(self, assignment):
        pyramid = representative_pyramid(assignment.owner_grid())
        src, dst = interaction_events(pyramid).pairs()
        forward = sorted(zip(src.tolist(), dst.tolist()))
        backward = sorted(zip(dst.tolist(), src.tolist()))
        assert forward == backward

    def test_dense_lattice_interaction_count(self):
        """Full occupancy: sum of |interaction list| over levels >= 2."""
        particles = get_distribution("uniform").sample(256, 4, rng=0)
        asg = partition_particles(particles, "zcurve", 4)
        pyramid = representative_pyramid(asg.owner_grid())
        events = interaction_events(pyramid)
        expected = 0
        for level in (2, 3, 4):
            side = 1 << level
            for cx in range(side):
                for cy in range(side):
                    expected += interaction_list_cells(cx, cy, level).shape[0]
        assert len(events) == expected


def offset_loop_interaction(pyramid) -> list:
    """Interaction pairs from a per-offset loop with explicit bounds tests.

    Emits parity class by parity class, offset by offset, cells in
    row-major order: the event order the contention simulator's FIFO
    queues see, which the padded gather must keep.
    """
    pairs = []
    for grid in pyramid[2:]:
        occupied = np.nonzero(grid != EMPTY)
        for bits in itertools.product((0, 1), repeat=grid.ndim):
            mine = np.all([(c & 1) == b for c, b in zip(occupied, bits)], axis=0)
            cells = list(zip(*(c[mine].tolist() for c in occupied)))
            for offset in interaction_offsets(*bits).tolist():
                for cell in cells:
                    target = tuple(c + o for c, o in zip(cell, offset))
                    if all(0 <= t < grid.shape[0] for t in target) and grid[target] != EMPTY:
                        pairs.append((int(grid[cell]), int(grid[target])))
    return pairs


@pytest.mark.parametrize("dims", [2, 3])
def test_interaction_event_order_matches_offset_loop(dims):
    if dims == 2:
        particles = get_distribution("normal").sample(300, 5, rng=4)
        asg = partition_particles(particles, "hilbert", 16)
    else:
        particles = get_distribution3d("uniform").sample(150, 3, rng=4)
        asg = partition_particles(particles, "hilbert3d", 8)
    pyramid = representative_pyramid(asg.owner_grid())
    src, dst = interaction_events(pyramid).pairs()
    assert list(zip(src.tolist(), dst.tolist())) == offset_loop_interaction(pyramid)


def boundary_owner_grid(order: int, pattern: str, ranks: str) -> np.ndarray:
    """Owner grid occupied only on the lattice edges or only at its corners."""
    side = 1 << order
    x, y = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    if pattern == "edges":
        occupied = (x == 0) | (x == side - 1) | (y == 0) | (y == side - 1)
    else:
        occupied = (x % (side - 1) == 0) & (y % (side - 1) == 0)
    owner = x * side + y if ranks == "distinct" else (x * side + y) % 3
    return np.where(occupied, owner, -1)


def level_reference(grid: np.ndarray, level: int, per_processor: bool) -> list:
    """Interaction-list pairs of one level, straight from the definition."""
    pairs = []
    for cx, cy in zip(*np.nonzero(grid != EMPTY)):
        for tx, ty in interaction_list_cells(int(cx), int(cy), level):
            if grid[tx, ty] != EMPTY:
                pairs.append((int(grid[cx, cy]), int(grid[tx, ty])))
    return sorted(set(pairs)) if per_processor else sorted(pairs)


class TestPaddedGatherBoundaries:
    """Occupancy only where the padded gather meets the lattice border."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("pattern", ["edges", "corners"])
    @pytest.mark.parametrize("ranks", ["distinct", "shared"])
    @pytest.mark.parametrize("granularity", ["cell", "processor"])
    def test_each_level_matches_reference(self, order, pattern, ranks, granularity):
        pyramid = representative_pyramid(boundary_owner_grid(order, pattern, ranks))
        for level in range(2, order + 1):
            only = [np.full_like(g, EMPTY) for g in pyramid]
            only[level] = pyramid[level]
            src, dst = interaction_events(only, granularity).pairs()
            got = list(zip(src.tolist(), dst.tolist()))
            if granularity == "cell":
                got.sort()  # processor dedup is already sorted
            expected = level_reference(pyramid[level], level, granularity == "processor")
            assert got == expected, f"level {level}"


class TestFfiEvents:
    def test_anterpolation_mirrors_interpolation(self, assignment):
        ffi = ffi_events(assignment)
        isrc, idst = ffi.interpolation.pairs()
        asrc, adst = ffi.anterpolation.pairs()
        assert np.array_equal(isrc, adst)
        assert np.array_equal(idst, asrc)

    def test_combined_counts(self, assignment):
        ffi = ffi_events(assignment)
        assert len(ffi.combined()) == (
            len(ffi.interpolation) + len(ffi.anterpolation) + len(ffi.interaction)
        )

    def test_mapping_keys(self, assignment):
        assert set(ffi_events(assignment).as_mapping()) == {
            "interpolation",
            "anterpolation",
            "interaction",
        }

    def test_single_particle(self):
        from repro.distributions import Particles

        one = Particles(np.array([3]), np.array([5]), order=3)
        asg = partition_particles(one, "hilbert", 4)
        ffi = ffi_events(asg)
        # one cell per level communicates with its parent; no interactions
        assert len(ffi.interpolation) == 3
        assert len(ffi.interaction) == 0
        src, dst = ffi.interpolation.pairs()
        assert np.all(src == dst)  # all the same processor


@pytest.mark.parametrize("distribution", ["uniform", "normal", "exponential"])
@pytest.mark.parametrize("seed", [0, 7, 2013])
def test_interaction_histogram_is_symmetric(distribution, seed):
    """Interaction lists are mutual, so the compacted histogram has H == H^T."""
    particles = get_distribution(distribution).sample(600, 6, rng=seed)
    asg = partition_particles(particles, "hilbert", 32)
    hist = ffi_events(asg).interaction.compact(32)
    assert hist.num_pairs > 0
    order = np.lexsort((hist.src, hist.dst))  # transpose, re-sorted by (dst, src)
    np.testing.assert_array_equal(hist.src, hist.dst[order])
    np.testing.assert_array_equal(hist.dst, hist.src[order])
    np.testing.assert_array_equal(hist.weights, hist.weights[order])
