"""Cell arithmetic for the spatial ``2**d``-ary tree over a ``2**k`` lattice.

Level ``l`` (0 = root, ``k`` = finest) tiles the domain with ``2**l``
cells per axis; the cell at level-``l`` coordinates ``(c_0, ..., c_{d-1})``
covers lattice cells ``[c_i * 2**(k-l), (c_i+1) * 2**(k-l))`` in axis
``i``.  These helpers encode the parent/child/neighbour algebra the FMM
model (§III of the paper) is built on, for the paper's quadtree (``d = 2``)
and its octree extension (``d = 3``) alike.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._typing import IntArray

__all__ = [
    "parent_of",
    "children_of",
    "level_side",
    "neighbor_offsets",
    "half_space_offsets",
    "positive_half",
    "aligned_views",
    "stencil_pairs",
    "cells_are_adjacent",
]

#: Most ``(offset, cell)`` targets one :func:`stencil_pairs` gather holds.
#: Longer tables are gathered in row blocks, which keeps each temporary
#: near 2 MiB (cache-sized) at any lattice size.
_GATHER_ENTRIES = 1 << 18


def level_side(level: int) -> int:
    """Number of cells per axis at tree level ``level``."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    return 1 << level


def parent_of(*cell) -> tuple[IntArray, ...]:
    """Coordinates of the parent cell one level coarser."""
    return tuple(np.asarray(c, dtype=np.int64) >> 1 for c in cell)


def children_of(*cell: int) -> IntArray:
    """The ``2**d`` child cells one level finer, as a ``(2**d, d)`` array."""
    bits = np.array(list(itertools.product((0, 1), repeat=len(cell))), dtype=np.int64)
    return bits + 2 * np.array(cell, dtype=np.int64)


def neighbor_offsets(radius: int = 1, metric: str = "chebyshev", dim: int = 2) -> IntArray:
    """All non-zero ``dim``-dimensional offsets within ``radius``.

    ``"chebyshev"`` yields the edge/corner neighbourhood the FMM
    near-field uses (8 cells in 2D and 26 in 3D for ``radius=1``, §III);
    ``"manhattan"`` yields the cross-shaped neighbourhood of the ANNS
    metric (§V).  Offsets come in lexicographic order.
    """
    r = int(radius)
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    span = np.arange(-r, r + 1, dtype=np.int64)
    axes = np.meshgrid(*[span] * dim, indexing="ij")
    offs = np.stack([a.ravel() for a in axes], axis=1)
    if metric == "chebyshev":
        keep = np.abs(offs).max(axis=1) >= 1
    elif metric == "manhattan":
        dist = np.abs(offs).sum(axis=1)
        keep = (dist >= 1) & (dist <= r)
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'chebyshev' or 'manhattan'")
    return offs[keep]


def positive_half(offsets) -> IntArray:
    """The rows of an ``(m, d)`` offset table whose first non-zero component is positive.

    Of a symmetric table (``o`` in it exactly when ``-o`` is), exactly
    one of ``o`` and ``-o`` survives, so shifting by the rows visits
    each unordered pair of cells once.
    """
    offs = np.asarray(offsets, dtype=np.int64)
    first = offs[np.arange(len(offs)), (offs != 0).argmax(axis=1)]
    return offs[first > 0]


def half_space_offsets(radius: int, metric: str, dim: int) -> IntArray:
    """:func:`neighbor_offsets` whose first non-zero component is positive."""
    return positive_half(neighbor_offsets(radius, metric, dim))


def aligned_views(grid: np.ndarray, offset) -> tuple[np.ndarray, np.ndarray]:
    """Views ``(grid[c], grid[c + offset])`` over every cell ``c`` with both in bounds.

    The two views have equal shape (empty when an offset component is
    as long as the grid) and share memory with ``grid``.
    """
    offset = [int(o) for o in offset]
    if len(offset) != grid.ndim:
        raise ValueError(f"offset {tuple(offset)} does not match a {grid.ndim}D grid")
    if any(abs(o) >= n for o, n in zip(offset, grid.shape)):
        empty = grid[(slice(0, 0),) * grid.ndim]
        return empty, empty
    here = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, grid.shape))
    there = tuple(slice(s.start + o, s.stop + o) for s, o in zip(here, offset))
    return grid[here], grid[there]


def stencil_pairs(grid: np.ndarray, empty: int, tables) -> tuple[IntArray, IntArray]:
    """Value pairs ``(grid[c], grid[c + o])`` over occupied cells ``c`` and ``c + o``.

    ``empty`` marks unoccupied cells (``-1`` in owner grids,
    :data:`~repro.quadtree.pyramid.EMPTY` in pyramid levels).
    ``tables`` holds ``(m, d)`` offset tables: one table applies to every
    cell; ``2**d`` tables are indexed by parity class, the cell's
    coordinates modulo 2 read as a binary number with the first axis
    most significant.

    The occupied cells are listed once and the grid is padded with
    ``empty`` by the largest offset, so an offset is a fixed shift of
    the flat cell index with no bounds test (Holzmüller's index-space
    neighbour finding, arXiv:1710.06384) and a table is one gather over
    the occupied cells only.  Pairs come in class, then offset, then
    row-major cell order: the order of shifting the dense grid once per
    offset.
    """
    grid = np.asarray(grid)
    d = grid.ndim
    tables = [np.asarray(t, dtype=np.int64) for t in tables]
    if len(tables) not in (1, 1 << d) or any(t.ndim != 2 or t.shape[1] != d for t in tables):
        raise ValueError(
            f"need one offset table or {1 << d} parity-class tables of "
            f"{d}D offsets, got shapes {[t.shape for t in tables]}"
        )
    pad = max((int(np.abs(t).max()) for t in tables if t.size), default=0)
    # One flat scan is several times faster than a multi-axis np.nonzero.
    coords = np.unravel_index(np.flatnonzero(grid != empty), grid.shape)
    padded = np.pad(grid, pad, constant_values=empty)
    strides = np.array(padded.strides, dtype=np.int64) // padded.itemsize
    flat = padded.ravel()
    cells = sum((c + pad) * s for c, s in zip(coords, strides))
    if len(tables) == 1:
        classes = [cells]
    else:
        parity = sum((c & 1) << (d - 1 - i) for i, c in enumerate(coords))
        classes = [cells[parity == k] for k in range(len(tables))]
    srcs, dsts = [np.empty(0, grid.dtype)], [np.empty(0, grid.dtype)]
    for table, mine in zip(tables, classes):
        n = mine.size
        own = flat[mine]
        shifts = table @ strides
        rows = max(1, _GATHER_ENTRIES // max(n, 1))
        for lo in range(0, shifts.size, rows):
            targets = np.take(flat, shifts[lo : lo + rows, None] + mine)
            hits = np.flatnonzero(targets != empty)
            srcs.append(own[hits % n])
            dsts.append(targets.ravel()[hits])
    return np.concatenate(srcs), np.concatenate(dsts)


def cells_are_adjacent(ax, ay, bx, by) -> np.ndarray:
    """True where cells share an edge or corner (or coincide)."""
    ax, ay = np.asarray(ax, np.int64), np.asarray(ay, np.int64)
    bx, by = np.asarray(bx, np.int64), np.asarray(by, np.int64)
    return np.maximum(np.abs(ax - bx), np.abs(ay - by)) <= 1
