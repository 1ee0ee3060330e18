"""Tests for representative and occupancy pyramids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quadtree import EMPTY, occupancy_pyramid, representative_pyramid


def make_grid():
    grid = np.full((4, 4), -1, dtype=np.int64)
    grid[0, 0] = 3
    grid[0, 1] = 1
    grid[3, 3] = 7
    grid[2, 0] = 0
    return grid


class TestRepresentativePyramid:
    def test_level_shapes(self):
        levels = representative_pyramid(make_grid())
        assert [g.shape[0] for g in levels] == [1, 2, 4]

    def test_finest_level_mirrors_grid(self):
        levels = representative_pyramid(make_grid())
        finest = levels[-1]
        assert finest[0, 0] == 3
        assert finest[1, 1] == EMPTY

    def test_min_rank_reduction(self):
        levels = representative_pyramid(make_grid())
        mid = levels[1]
        assert mid[0, 0] == 1  # min(3, 1)
        assert mid[1, 0] == 0
        assert mid[1, 1] == 7
        assert mid[0, 1] == EMPTY

    def test_root_is_global_min(self):
        levels = representative_pyramid(make_grid())
        assert levels[0][0, 0] == 0

    def test_all_empty(self):
        levels = representative_pyramid(np.full((4, 4), -1, dtype=np.int64))
        assert all(np.all(g == EMPTY) for g in levels)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            representative_pyramid(np.zeros((4, 8), dtype=np.int64))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            representative_pyramid(np.zeros((6, 6), dtype=np.int64))

    def test_input_not_mutated(self):
        grid = make_grid()
        copy = grid.copy()
        representative_pyramid(grid)
        assert np.array_equal(grid, copy)


class TestOccupancyPyramid:
    def test_counts(self):
        levels = occupancy_pyramid(make_grid())
        assert levels[0][0, 0] == 4
        assert levels[1][0, 0] == 2
        assert levels[1][0, 1] == 0
        assert levels[2].sum() == 4

    def test_conservation_across_levels(self):
        rng = np.random.default_rng(0)
        grid = np.where(rng.random((16, 16)) < 0.3, 1, -1).astype(np.int64)
        levels = occupancy_pyramid(grid)
        totals = {int(g.sum()) for g in levels}
        assert len(totals) == 1


def reduce_reference(finest: np.ndarray, ufunc: np.ufunc) -> list[np.ndarray]:
    """Each coarser level as one multi-axis ``ufunc.reduce`` over ``2**d`` children."""
    d = finest.ndim
    levels = [finest]
    while levels[-1].shape[0] > 1:
        half = levels[-1].shape[0] // 2
        blocks = levels[-1].reshape((half, 2) * d)
        levels.append(ufunc.reduce(blocks, axis=tuple(range(1, 2 * d, 2))))
    return levels[::-1]


class TestSliceWiseReduction:
    @pytest.mark.parametrize("ufunc", [np.minimum, np.add], ids=["minimum", "add"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("side", [1, 2, 4, 8, 16, 32, 64])
    def test_matches_ufunc_reduce(self, ufunc, dim, side):
        from repro.quadtree.pyramid import _pyramid

        rng = np.random.default_rng([dim, side])
        finest = rng.integers(-(2**40), 2**40, (side,) * dim)
        finest[rng.random(finest.shape) < 0.5] = EMPTY if ufunc is np.minimum else 0
        got = _pyramid(finest.copy(), ufunc)
        want = reduce_reference(finest, ufunc)
        assert len(got) == len(want)
        for level, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype and a.shape == b.shape, f"level {level}"
            np.testing.assert_array_equal(a, b, err_msg=f"level {level}")
