"""Near-field interaction (NFI) communication events (§III, §IV).

Every particle must read all particles within radius ``r`` of its cell;
each such pair induces one communication between the owning processors
(distance possibly zero when both particles share a processor).  §III
uses the edge/corner (Chebyshev) neighbourhood — "the number of nearest
neighbors which share an edge/corner with a cell is bounded by 8
(corresponding to r = 1)".

The generator works on the owner grid, 2D or 3D, through the shared
occupied-cell stencil kernel :func:`repro.quadtree.cells.stencil_pairs`:
the occupied cells are listed once and every stencil offset is one
gather over them, so the cost is ``O(|stencil| * occupied)`` NumPy work
with no Python-level per-particle loop and no pass over the empty part
of the lattice.  Each unordered neighbour pair is
counted exactly once (the stencil is restricted to a half-space); the
ACD is invariant to this choice and the companion ordered-pair count is
simply twice ours.
"""

from __future__ import annotations

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents
from repro.partition.assignment import Assignment
from repro.quadtree.cells import half_space_offsets, stencil_pairs

__all__ = ["nfi_events", "shifted_occupied_pairs"]


def shifted_occupied_pairs(owner_grid: IntArray, *offset: int) -> tuple[IntArray, IntArray]:
    """Owner pairs ``(grid[c], grid[c + offset])`` over occupied cells.

    ``offset`` has one component per grid axis
    (``shifted_occupied_pairs(grid, dx, dy)`` in 2D).  Pairs come in
    row-major order of ``c``; only the occupied cells are visited.
    """
    return stencil_pairs(owner_grid, -1, [[offset]])


def nfi_events(
    assignment: Assignment,
    radius: int = 1,
    metric: str = "chebyshev",
) -> CommunicationEvents:
    """All near-field neighbour communications for a partitioned input.

    Parameters
    ----------
    assignment:
        The SFC-ordered, chunked 2D or 3D particle set
        (:func:`repro.partition.partition_particles`).
    radius:
        Neighbourhood radius ``r`` (default 1, the paper's standard).
    metric:
        ``"chebyshev"`` (paper's NFI neighbourhood) or ``"manhattan"``.

    Returns
    -------
    :class:`~repro.fmm.events.CommunicationEvents` with one event per
    unordered pair of neighbouring particles.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    grid = assignment.owner_grid()
    events = CommunicationEvents(component="nfi")
    events.add(*stencil_pairs(grid, -1, [half_space_offsets(radius, metric, grid.ndim)]))
    return events
