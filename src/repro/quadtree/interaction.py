"""FMM interaction lists (§III, Fig. 4 of the paper).

The interaction list of a cell ``c`` at level ``l`` contains the
children of ``c``'s parent's neighbours that are *not* adjacent to ``c``
(no shared face, edge or corner) and live at the same level.  Each cell
has at most 27 such peers in 2D and 189 in 3D (the 26 parent neighbours
contribute 8 children each, 19 of them adjacent to the cell).

Because the candidate set depends only on ``c``'s parity within its
parent (which of the ``2**d`` child slots it occupies), the offsets can
be tabulated once per parity class and reused for every cell — this is
what lets the far-field event generation stay fully vectorised.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from repro._typing import IntArray

__all__ = ["interaction_offsets", "interaction_list_cells"]


@lru_cache(maxsize=12)
def _interaction_offsets_table(parity: tuple[int, ...]) -> IntArray:
    d = len(parity)
    offsets = []
    for step in itertools.product((-1, 0, 1), repeat=d):
        if not any(step):
            continue  # the parent's own children are all adjacent
        for slot in itertools.product((0, 1), repeat=d):
            delta = tuple(2 * s + i - p for s, i, p in zip(step, slot, parity))
            if max(map(abs, delta)) > 1:
                offsets.append(delta)
    table = np.asarray(offsets, dtype=np.int64).reshape(-1, d)
    table.setflags(write=False)  # cached instances are shared — keep immutable
    return table


def interaction_offsets(*parity: int) -> IntArray:
    """Offsets from a cell with the given parity to its interaction list.

    The parity classes are tabulated once per process (the far-field
    generator asks for them at every level of every trial) and returned
    as shared read-only arrays.

    Parameters
    ----------
    parity:
        The cell's coordinates modulo 2 (its slot within the parent),
        one per axis: ``interaction_offsets(px, py)`` in 2D,
        ``interaction_offsets(px, py, pz)`` in 3D.

    Returns
    -------
    ``(m, d)`` array of offsets (``m <= 27`` in 2D, ``<= 189`` in 3D);
    adding an offset to the cell's coordinates yields an
    interaction-list candidate, still subject to domain-boundary and
    occupancy checks.
    """
    return _interaction_offsets_table(tuple(int(p) & 1 for p in parity))


def interaction_list_cells(*cell: int, level: int | None = None) -> IntArray:
    """Explicit interaction list of one cell (reference implementation).

    Called as ``interaction_list_cells(cx, cy, level)`` or
    ``interaction_list_cells(cx, cy, cz, level=level)``.  Enumerates the
    children of the parent's neighbours directly from the definition —
    used by the test-suite to validate the vectorised offset tables and
    by examples for illustration.  Returns the in-bounds peers as an
    ``(m, d)`` array at the same level.
    """
    if level is None:
        *cell, level = cell
    cell = tuple(int(c) for c in cell)
    side = 1 << level
    if not all(0 <= c < side for c in cell):
        raise ValueError(f"cell {cell} outside level-{level} grid")
    out = []
    parent = [c >> 1 for c in cell]
    for neighbour in itertools.product(*[(p - 1, p, p + 1) for p in parent]):
        for slot in itertools.product((0, 1), repeat=len(cell)):
            target = tuple(2 * n + i for n, i in zip(neighbour, slot))
            in_grid = all(0 <= t < side for t in target)
            if in_grid and max(abs(t - c) for t, c in zip(target, cell)) > 1:
                out.append(target)
    return np.asarray(out, dtype=np.int64).reshape(-1, len(cell))
