"""Tests for quadtree cell arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quadtree import (
    aligned_views,
    cells_are_adjacent,
    children_of,
    half_space_offsets,
    level_side,
    neighbor_offsets,
    parent_of,
)


class TestParentChild:
    def test_parent(self):
        px, py = parent_of(np.array([0, 1, 6, 7]), np.array([0, 1, 3, 7]))
        assert px.tolist() == [0, 0, 3, 3]
        assert py.tolist() == [0, 0, 1, 3]

    def test_children(self):
        kids = children_of(1, 2)
        assert kids.tolist() == [[2, 4], [2, 5], [3, 4], [3, 5]]

    def test_roundtrip(self):
        for cx in range(4):
            for cy in range(4):
                for kx, ky in children_of(cx, cy):
                    px, py = parent_of(kx, ky)
                    assert (px, py) == (cx, cy)

    def test_level_side(self):
        assert level_side(0) == 1
        assert level_side(3) == 8
        with pytest.raises(ValueError):
            level_side(-1)


class TestNeighborOffsets:
    def test_chebyshev_r1_has_8(self):
        offs = neighbor_offsets(1, "chebyshev")
        assert offs.shape == (8, 2)  # the paper's "bounded by 8" for r=1

    def test_manhattan_r1_has_4(self):
        offs = neighbor_offsets(1, "manhattan")
        assert offs.shape == (4, 2)

    def test_chebyshev_counts(self):
        # (2r+1)^2 - 1 offsets
        assert neighbor_offsets(2, "chebyshev").shape[0] == 24
        assert neighbor_offsets(3, "chebyshev").shape[0] == 48

    def test_manhattan_counts(self):
        # 2r(r+1) offsets in the L1 ball
        assert neighbor_offsets(2, "manhattan").shape[0] == 12
        assert neighbor_offsets(3, "manhattan").shape[0] == 24

    def test_excludes_origin(self):
        for metric in ("chebyshev", "manhattan"):
            offs = neighbor_offsets(2, metric)
            assert not np.any((offs[:, 0] == 0) & (offs[:, 1] == 0))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            neighbor_offsets(1, "euclidean")

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            neighbor_offsets(-1)


class TestAdjacency:
    def test_adjacent_and_not(self):
        assert cells_are_adjacent(2, 2, 3, 3)
        assert cells_are_adjacent(2, 2, 2, 2)
        assert not cells_are_adjacent(2, 2, 4, 2)


class TestHalfSpaceOffsets:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("metric,radius", [("chebyshev", 1), ("manhattan", 2), ("chebyshev", 2)])
    def test_one_of_each_opposite_pair_in_stencil_order(self, dim, metric, radius):
        full = [tuple(o) for o in neighbor_offsets(radius, metric, dim).tolist()]
        half = [tuple(o) for o in half_space_offsets(radius, metric, dim).tolist()]
        assert half == [o for o in full if tuple(-v for v in o) not in half]
        assert len(half) * 2 == len(full)
        assert all(next(v for v in o if v) > 0 for o in half)

    def test_2d_order(self):
        assert half_space_offsets(1, "chebyshev", 2).tolist() == [[0, 1], [1, -1], [1, 0], [1, 1]]


class TestAlignedViews:
    @pytest.mark.parametrize("offset", [(1, 0, 0), (0, -1, 2), (-3, 1, -1), (2, 2, 2)])
    def test_matches_per_cell_shift(self, offset):
        grid = np.arange(4**3).reshape(4, 4, 4)
        a, b = aligned_views(grid, offset)
        pairs = sorted(zip(a.ravel().tolist(), b.ravel().tolist()))
        want = []
        for cell in np.ndindex(grid.shape):
            target = tuple(c + o for c, o in zip(cell, offset))
            if all(0 <= t < 4 for t in target):
                want.append((int(grid[cell]), int(grid[target])))
        assert pairs == sorted(want)

    def test_offset_longer_than_grid_is_empty(self):
        a, b = aligned_views(np.zeros((4, 4)), (0, 4))
        assert a.size == b.size == 0

    def test_offset_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3D grid"):
            aligned_views(np.zeros((4, 4, 4)), (1, 0))
