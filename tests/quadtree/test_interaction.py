"""Tests for FMM interaction-list construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quadtree import interaction_list_cells, interaction_offsets


class TestInteractionOffsets:
    @pytest.mark.parametrize("px", [0, 1])
    @pytest.mark.parametrize("py", [0, 1])
    def test_27_offsets_per_parity(self, px, py):
        assert interaction_offsets(px, py).shape == (27, 2)

    @pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_offsets_are_non_adjacent(self, px, py):
        offs = interaction_offsets(px, py)
        assert np.all(np.maximum(np.abs(offs[:, 0]), np.abs(offs[:, 1])) >= 2)

    @pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_offsets_within_parent_neighborhood(self, px, py):
        # all candidates lie within 3 cells (parent's 1-ring spans 2 cells + slot)
        offs = interaction_offsets(px, py)
        assert np.abs(offs).max() <= 3

    def test_parity_symmetry(self):
        # parity (1,1) offsets are the negation of parity (0,0) offsets
        a = {tuple(o) for o in interaction_offsets(0, 0).tolist()}
        b = {(-x, -y) for x, y in interaction_offsets(1, 1).tolist()}
        assert a == b


class TestInteractionListReference:
    def test_interior_cell_has_27(self):
        cells = interaction_list_cells(4, 4, level=4)
        assert cells.shape == (27, 2)

    def test_corner_cell_is_truncated(self):
        cells = interaction_list_cells(0, 0, level=3)
        assert 0 < cells.shape[0] < 27

    def test_level1_is_empty(self):
        # the level-1 cells' parent is the root which has no neighbours
        assert interaction_list_cells(0, 1, level=1).shape[0] == 0

    def test_reference_matches_offset_table(self):
        level = 4
        side = 1 << level
        for cx in range(side):
            for cy in range(side):
                ref = {tuple(c) for c in interaction_list_cells(cx, cy, level).tolist()}
                offs = interaction_offsets(cx & 1, cy & 1)
                got = set()
                for dx, dy in offs.tolist():
                    tx, ty = cx + dx, cy + dy
                    if 0 <= tx < side and 0 <= ty < side:
                        got.add((tx, ty))
                assert ref == got, (cx, cy)

    def test_symmetry_of_membership(self):
        """x in IL(y) iff y in IL(x) — FMM lists are symmetric."""
        level = 3
        side = 1 << level
        lists = {
            (x, y): {tuple(c) for c in interaction_list_cells(x, y, level).tolist()}
            for x in range(side)
            for y in range(side)
        }
        for (x, y), members in lists.items():
            for m in members:
                assert (x, y) in lists[m]

    def test_out_of_bounds_cell_rejected(self):
        with pytest.raises(ValueError):
            interaction_list_cells(8, 0, level=3)

    def test_paper_figure4_example(self):
        """Fig. 4(a): on a 4x4 partition, cell 0's list is everything
        outside its quadrant, and cell 6's list has 7 members."""
        # Fig. 4 numbers cells in row-major fashion on the 4x4 level-2 grid:
        # cell 0 -> (0,0), cell 6 -> (1,2) with (row, col) = (y, x)... the
        # figure's exact labelling is ambiguous, but the *sizes* are not:
        # a corner cell interacts with 12 - 3 = ... we check the counts.
        corner = interaction_list_cells(0, 0, level=2)
        assert corner.shape[0] == 12  # 16 cells - itself - 3 adjacent
        inner = interaction_list_cells(1, 2, level=2)
        # inner cell at level 2: all 16 minus itself minus its 8 neighbours = 7
        assert inner.shape[0] == 7


class TestOffsetTables:
    @pytest.mark.parametrize("parity", [(0, 1), (1, 0, 1)])
    def test_tables_are_shared_and_read_only(self, parity):
        table = interaction_offsets(*parity)
        assert interaction_offsets(*parity) is table
        assert table.shape[1] == len(parity)
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_keyword_and_positional_level_agree(self):
        assert np.array_equal(
            interaction_list_cells(2, 5, 4), interaction_list_cells(2, 5, level=4)
        )
        assert np.array_equal(
            interaction_list_cells(1, 2, 3, 3), interaction_list_cells(1, 2, 3, level=3)
        )
