"""Representative pyramids: who speaks for each tree cell.

§III/§IV of the paper adopt the convention that "for each level of
resolution, the lowest ranked processor in a quadrant will collect the
data from the cells at that level" (equivalently, the processor holding
the lowest-indexed particle — with contiguous chunking the two coincide;
see DESIGN.md §3.6).  The *representative pyramid* materialises this:
one grid per tree level whose entries are the minimum owning rank
over all particles inside the cell, or :data:`EMPTY` for empty cells.
The same reductions serve the quadtree (2D owner grids) and the octree
(3D owner grids).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._typing import IntArray
from repro.util.bits import is_power_of_two

__all__ = ["EMPTY", "representative_pyramid", "occupancy_pyramid"]

#: Sentinel marking an empty cell in representative pyramids: the
#: largest ``int32``, above every rank an owner grid can hold.
EMPTY: int = int(np.iinfo(np.int32).max)


def _check_grid(owner_grid: IntArray) -> IntArray:
    grid = np.asarray(owner_grid)
    if grid.ndim not in (2, 3) or len(set(grid.shape)) != 1:
        raise ValueError(f"owner grid must be a square or a cube, got shape {grid.shape}")
    if not is_power_of_two(grid.shape[0]):
        raise ValueError(f"owner grid side must be a power of two, got {grid.shape[0]}")
    return grid


def _pyramid(finest: IntArray, ufunc: np.ufunc) -> list[IntArray]:
    """``finest`` plus each coarser level, ``ufunc``-reduced over ``2**d`` children.

    Each level is folded from the ``2**d`` strided child views in place,
    which is several times faster than a multi-axis ``ufunc.reduce``.
    """
    slots = list(itertools.product((slice(0, None, 2), slice(1, None, 2)), repeat=finest.ndim))
    levels = [finest]
    while levels[-1].shape[0] > 1:
        child = levels[-1]
        out = ufunc(child[slots[0]], child[slots[1]])
        for slot in slots[2:]:
            ufunc(out, child[slot], out=out)
        levels.append(out)
    levels.reverse()
    return levels


def representative_pyramid(owner_grid: IntArray) -> list[IntArray]:
    """Min-rank reduction pyramid over an owner grid.

    Parameters
    ----------
    owner_grid:
        ``(side,)*d`` array (``d`` = 2 or 3) of owning ranks with ``-1``
        marking empty lattice cells (as produced by
        :meth:`repro.partition.Assignment.owner_grid`).  Every rank must
        lie below :data:`EMPTY`.

    Returns
    -------
    list of arrays
        ``int32`` levels: ``levels[l]`` has shape ``(2**l,)*d``; an
        entry is the minimum rank owning a particle in that level-``l``
        cell, or :data:`EMPTY` (``2**31 - 1``) if the cell holds no
        particles.  ``levels[k]`` is the finest level, ``levels[0]``
        the root.  The stencil pairs gathered from the levels are
        ``int32`` too.
    """
    grid = _check_grid(owner_grid)
    if grid.dtype != np.int32 and grid.size and int(grid.max()) >= EMPTY:
        raise ValueError(f"owner grid ranks must lie below {EMPTY}, got {int(grid.max())}")
    grid = grid.astype(np.int32, copy=True)
    grid[grid < 0] = EMPTY
    return _pyramid(grid, np.minimum)


def occupancy_pyramid(owner_grid: IntArray) -> list[IntArray]:
    """Particle-count pyramid: entry = number of particles in each cell (``int64``)."""
    return _pyramid((_check_grid(owner_grid) >= 0).astype(np.int64), np.add)
