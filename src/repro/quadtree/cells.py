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
    "aligned_views",
    "cells_are_adjacent",
]


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


def half_space_offsets(radius: int, metric: str, dim: int) -> IntArray:
    """:func:`neighbor_offsets` whose first non-zero component is positive.

    Exactly one of ``o`` and ``-o`` survives, so shifting by these
    offsets visits each unordered pair of cells once.
    """
    offs = neighbor_offsets(radius, metric, dim)
    first = offs[np.arange(len(offs)), (offs != 0).argmax(axis=1)]
    return offs[first > 0]


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


def cells_are_adjacent(ax, ay, bx, by) -> np.ndarray:
    """True where cells share an edge or corner (or coincide)."""
    ax, ay = np.asarray(ax, np.int64), np.asarray(ay, np.int64)
    bx, by = np.asarray(bx, np.int64), np.asarray(by, np.int64)
    return np.maximum(np.abs(ax - bx), np.abs(ay - by)) <= 1
