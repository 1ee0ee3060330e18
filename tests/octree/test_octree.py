"""Tests for the octree (3D) side of the dimension-generic tree substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quadtree import (
    EMPTY,
    children_of,
    interaction_list_cells,
    interaction_offsets,
    neighbor_offsets,
    occupancy_pyramid,
    parent_of,
    representative_pyramid,
)


class TestCells3D:
    def test_parent_child_roundtrip(self):
        for cx in range(2):
            for cy in range(2):
                for cz in range(2):
                    for kx, ky, kz in children_of(cx, cy, cz):
                        px, py, pz = parent_of(kx, ky, kz)
                        assert (px, py, pz) == (cx, cy, cz)

    def test_children_count(self):
        assert children_of(1, 1, 1).shape == (8, 3)

    def test_chebyshev_r1_has_26(self):
        assert neighbor_offsets(1, "chebyshev", dim=3).shape == (26, 3)

    def test_manhattan_r1_has_6(self):
        assert neighbor_offsets(1, "manhattan", dim=3).shape == (6, 3)

    def test_chebyshev_r2(self):
        assert neighbor_offsets(2, "chebyshev", dim=3).shape[0] == 5**3 - 1

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            neighbor_offsets(1, "euclidean", dim=3)


class TestInteraction3D:
    @pytest.mark.parametrize("px", [0, 1])
    @pytest.mark.parametrize("py", [0, 1])
    @pytest.mark.parametrize("pz", [0, 1])
    def test_189_offsets_per_parity(self, px, py, pz):
        offs = interaction_offsets(px, py, pz)
        assert offs.shape == (189, 3)
        assert np.all(np.abs(offs).max(axis=1) >= 2)

    def test_interior_cell_has_189(self):
        assert interaction_list_cells(4, 4, 4, level=3).shape == (189, 3)

    def test_corner_cell_truncated(self):
        cells = interaction_list_cells(0, 0, 0, level=3)
        assert 0 < cells.shape[0] < 189

    def test_reference_matches_offset_table(self):
        level = 3
        side = 1 << level
        rng = np.random.default_rng(0)
        for _ in range(30):
            cx, cy, cz = (int(v) for v in rng.integers(0, side, 3))
            ref = {tuple(c) for c in interaction_list_cells(cx, cy, cz, level).tolist()}
            got = set()
            for dx, dy, dz in interaction_offsets(cx & 1, cy & 1, cz & 1).tolist():
                tx, ty, tz = cx + dx, cy + dy, cz + dz
                if 0 <= tx < side and 0 <= ty < side and 0 <= tz < side:
                    got.add((tx, ty, tz))
            assert ref == got, (cx, cy, cz)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            interaction_list_cells(8, 0, 0, level=3)


class TestPyramid3D:
    def make_volume(self):
        vol = np.full((4, 4, 4), -1, dtype=np.int64)
        vol[0, 0, 0] = 5
        vol[0, 0, 1] = 2
        vol[3, 3, 3] = 9
        return vol

    def test_shapes(self):
        levels = representative_pyramid(self.make_volume())
        assert [g.shape[0] for g in levels] == [1, 2, 4]

    def test_min_reduction(self):
        levels = representative_pyramid(self.make_volume())
        assert levels[1][0, 0, 0] == 2
        assert levels[1][1, 1, 1] == 9
        assert levels[1][0, 1, 0] == EMPTY
        assert levels[0][0, 0, 0] == 2

    def test_occupancy_conservation(self):
        levels = occupancy_pyramid(self.make_volume())
        assert {int(g.sum()) for g in levels} == {3}

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError):
            representative_pyramid(np.zeros((4, 4, 8), dtype=np.int64))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            representative_pyramid(np.zeros((6, 6, 6), dtype=np.int64))
