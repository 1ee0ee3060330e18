"""Property tests for the shared occupied-cell stencil kernel.

:func:`repro.quadtree.cells.stencil_pairs` drives both the near-field
neighbour pairs and the far-field interaction lists.  It must reproduce,
as an exact ordered event sequence, a dense reference that shifts the
whole grid once per offset with :func:`aligned_views`.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.quadtree.cells as cells_module
from repro.distributions import get_distribution, get_distribution3d
from repro.fmm import nfi_events, shifted_occupied_pairs
from repro.fmm.ffi import interaction_pairs
from repro.partition import partition_particles
from repro.quadtree import EMPTY, aligned_views, half_space_offsets, interaction_offsets
from repro.quadtree.cells import stencil_pairs


def parity_classes(dim: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=dim))


def dense_reference(grid: np.ndarray, empty: int, tables) -> list[tuple[int, int]]:
    """Shift the whole grid once per offset, class by class (the old NFI loop)."""
    coords = np.indices(grid.shape)
    if len(tables) == 1:
        masks = [np.ones(grid.shape, dtype=bool)]
    else:
        masks = [
            np.logical_and.reduce([(c & 1) == b for c, b in zip(coords, bits)])
            for bits in parity_classes(grid.ndim)
        ]
    pairs = []
    for table, mask in zip(tables, masks):
        for offset in table:
            a, b = aligned_views(grid, offset)
            mine, _ = aligned_views(mask, offset)
            both = mine & (a != empty) & (b != empty)
            pairs.extend(zip(a[both].tolist(), b[both].tolist()))
    return pairs


def as_pairs(result) -> list[tuple[int, int]]:
    src, dst = result
    return list(zip(src.tolist(), dst.tolist()))


def random_grid(rng, dim: int, side: int, occupancy: float, empty: int) -> np.ndarray:
    values = rng.integers(0, 50, (side,) * dim)
    return np.where(rng.random((side,) * dim) < occupancy, values, empty)


def nfi_tables(radius: int, metric: str, dim: int) -> list[np.ndarray]:
    return [half_space_offsets(radius, metric, dim)]


def interaction_tables(dim: int) -> list[np.ndarray]:
    return [interaction_offsets(*bits) for bits in parity_classes(dim)]


GRIDS = [
    pytest.param(2, side, occ, id=f"2d-side{side}-occ{occ}")
    for side in (1, 2, 3, 5, 8, 13)
    for occ in (0.0, 0.1, 0.5, 1.0)
] + [
    pytest.param(3, side, occ, id=f"3d-side{side}-occ{occ}")
    for side in (1, 2, 3, 6)
    for occ in (0.0, 0.2, 1.0)
]


class TestNearFieldStencil:
    @pytest.mark.parametrize("dim, side, occupancy", GRIDS)
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("metric", ["chebyshev", "manhattan"])
    def test_matches_dense_shift_reference(self, dim, side, occupancy, radius, metric):
        rng = np.random.default_rng([dim, side, radius, int(occupancy * 10)])
        grid = random_grid(rng, dim, side, occupancy, -1)
        tables = nfi_tables(radius, metric, dim)
        assert as_pairs(stencil_pairs(grid, -1, tables)) == dense_reference(grid, -1, tables)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [1, 4])
    def test_single_occupied_cell_has_no_pairs(self, dim, radius):
        grid = np.full((4,) * dim, -1)
        grid[(1,) * dim] = 7
        src, dst = stencil_pairs(grid, -1, nfi_tables(radius, "chebyshev", dim))
        assert src.size == dst.size == 0
        # the zero offset pairs the cell with itself
        assert as_pairs(stencil_pairs(grid, -1, [np.zeros((1, dim), np.int64)])) == [(7, 7)]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_offsets_longer_than_the_grid(self, dim):
        """r = 4 on a 2x2 grid: every offset past the side lands in the padding."""
        grid = np.arange(2**dim).reshape((2,) * dim)
        tables = nfi_tables(4, "chebyshev", dim)
        got = as_pairs(stencil_pairs(grid, -1, tables))
        assert got == dense_reference(grid, -1, tables)
        assert len(got) == 2**dim * (2**dim - 1) // 2  # every pair of distinct cells

    @pytest.mark.parametrize("dim", [2, 3])
    def test_all_empty_grid(self, dim):
        grid = np.full((8,) * dim, -1, dtype=np.int64)
        src, dst = stencil_pairs(grid, -1, nfi_tables(2, "chebyshev", dim))
        assert src.size == dst.size == 0
        assert src.dtype == dst.dtype == np.int64

    @pytest.mark.parametrize("metric", ["chebyshev", "manhattan"])
    @pytest.mark.parametrize("radius", [1, 3])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_nfi_events_match_dense_reference(self, dims, radius, metric):
        if dims == 2:
            particles = get_distribution("exponential").sample(400, 6, rng=11)
            asg = partition_particles(particles, "hilbert", 16)
        else:
            particles = get_distribution3d("uniform").sample(200, 3, rng=11)
            asg = partition_particles(particles, "hilbert3d", 8)
        grid = asg.owner_grid()
        events = nfi_events(asg, radius=radius, metric=metric)
        tables = nfi_tables(radius, metric, dims)
        assert as_pairs(events.pairs()) == dense_reference(grid, -1, tables)

    def test_shifted_occupied_pairs_is_one_offset(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, 2, 9, 0.4, -1)
        for offset in [(1, 0), (-2, 3), (0, 0), (9, 0), (-1, -1)]:
            expected = dense_reference(grid, -1, [np.array([offset])])
            assert as_pairs(shifted_occupied_pairs(grid, *offset)) == expected

    def test_rejects_mismatched_offsets(self):
        grid = np.zeros((4, 4, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="3D offsets"):
            stencil_pairs(grid, -1, [np.array([[1, 0]])])
        with pytest.raises(ValueError, match="8 parity-class tables"):
            stencil_pairs(grid, -1, nfi_tables(1, "chebyshev", 3) * 2)


class TestInteractionStencil:
    @pytest.mark.parametrize("dim, side, occupancy", GRIDS)
    def test_matches_dense_shift_reference(self, dim, side, occupancy):
        rng = np.random.default_rng([dim, side, int(occupancy * 10), 1])
        grid = random_grid(rng, dim, side, occupancy, EMPTY)
        tables = interaction_tables(dim)
        expected = dense_reference(grid, EMPTY, tables)
        assert as_pairs(stencil_pairs(grid, EMPTY, tables)) == expected
        assert as_pairs(interaction_pairs(grid)) == expected

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("occupied", range(4))
    def test_empty_parity_classes(self, dim, occupied):
        """Only one parity class holds cells; every other class has ``n == 0``."""
        rng = np.random.default_rng(occupied)
        grid = random_grid(rng, dim, 8, 1.0, EMPTY)
        bits = parity_classes(dim)[occupied]
        keep = np.logical_and.reduce([(c & 1) == b for c, b in zip(np.indices(grid.shape), bits)])
        grid = np.where(keep, grid, EMPTY)
        tables = interaction_tables(dim)
        got = as_pairs(stencil_pairs(grid, EMPTY, tables))
        assert got == dense_reference(grid, EMPTY, tables)
        assert got  # the occupied class does reach its own class

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_cell_and_all_empty(self, dim):
        tables = interaction_tables(dim)
        grid = np.full((4,) * dim, EMPTY, dtype=np.int64)
        assert as_pairs(stencil_pairs(grid, EMPTY, tables)) == []
        grid[(2,) * dim] = 5
        assert as_pairs(stencil_pairs(grid, EMPTY, tables)) == []


@pytest.mark.parametrize("entries", [1, 7, 64])
def test_row_blocks_keep_the_event_order(monkeypatch, entries):
    """Gathering an offset table in row blocks changes nothing in the output."""
    rng = np.random.default_rng(entries)
    cases = [
        (random_grid(rng, 2, 12, 0.3, -1), -1, nfi_tables(3, "chebyshev", 2)),
        (random_grid(rng, 3, 6, 0.3, EMPTY), EMPTY, interaction_tables(3)),
    ]
    expected = [as_pairs(stencil_pairs(*case)) for case in cases]
    monkeypatch.setattr(cells_module, "_GATHER_ENTRIES", entries)
    assert [as_pairs(stencil_pairs(*case)) for case in cases] == expected
    assert expected == [dense_reference(*case) for case in cases]
