"""Far-field interaction (FFI) communication events (§III, §IV).

The far field decomposes into three communication phases over the
spatial quadtree:

* **Interpolation** — upward accumulation: each non-empty cell's
  representative sends to its parent cell's representative.
* **Anterpolation** — downward accumulation: the same parent → child
  transfers in the opposite direction.
* **Interaction list** — at every level, each non-empty cell's
  representative exchanges with the representative of every non-empty
  cell in its interaction list (children of the parent's neighbours that
  are not adjacent; ≤ 27 peers in 2D, ≤ 189 in 3D).

The same code serves the quadtree over a 2D owner grid and the octree
over a 3D one; the dimension is taken from the grid.

Cell representatives are the lowest owning ranks
(:mod:`repro.quadtree.pyramid`).  Interaction-list pairs are counted
once per *ordered* pair — each cell walks its own list, exactly as §IV
step 9 describes.  The relation is symmetric, so :func:`ffi_events`
generates every unordered pair twice (in both directions), while
:func:`ffi_histograms` generates it once and counts it twice: it
gathers only the half of each parity-class offset table whose first
non-zero component is positive (the half-space rule of the near field)
and compacts those pairs into a symmetric
:class:`~repro.fmm.events.PairHistogram`.  Anterpolation is the
interpolation histogram transposed.  The two builders give the same ACD
and the same event counts; :func:`ffi_events` keeps the event order the
contention simulator replays.

Granularity
-----------
The paper describes the far field twice: §III walks quadtree *cells*
(every non-empty cell communicates with its parent and its interaction
list), while §IV steps 8–9 phrase the same traffic per *processor*
("construct the interaction list for each processor at each level").
``granularity="cell"`` (default) counts one event per cell pair;
``granularity="processor"`` deduplicates to one event per distinct
(source rank, destination rank) pair per level — the same messages, but
coarse levels carry relatively more weight.  The ablation study
(:mod:`repro.experiments.ablation`) quantifies the difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.partition.assignment import Assignment
from repro.quadtree.cells import positive_half, stencil_pairs
from repro.quadtree.interaction import interaction_offsets
from repro.quadtree.pyramid import EMPTY, representative_pyramid
from repro.util.sets import sorted_unique

__all__ = [
    "FfiEvents",
    "ffi_events",
    "ffi_histograms",
    "interpolation_events",
    "interaction_events",
]

@dataclass(frozen=True)
class FfiEvents:
    """The three far-field phases, kept separate for per-phase analysis."""

    interpolation: CommunicationEvents
    anterpolation: CommunicationEvents
    interaction: CommunicationEvents

    def combined(self) -> CommunicationEvents:
        """All far-field events merged into one container."""
        out = CommunicationEvents(component="ffi")
        out.extend(self.interpolation)
        out.extend(self.anterpolation)
        out.extend(self.interaction)
        return out

    def as_mapping(self) -> dict[str, CommunicationEvents]:
        """Phase-name → events mapping (for breakdown reporting)."""
        return {
            "interpolation": self.interpolation,
            "anterpolation": self.anterpolation,
            "interaction": self.interaction,
        }


def _check_granularity(granularity: str) -> bool:
    if granularity not in ("cell", "processor"):
        raise ValueError(
            f"unknown granularity {granularity!r}; use 'cell' or 'processor'"
        )
    return granularity == "processor"


def _dedup(src: IntArray, dst: IntArray) -> tuple[IntArray, IntArray]:
    """Collapse to distinct (src, dst) pairs, sorted by (src, dst)."""
    base = int(dst.max()) + 1
    keys = sorted_unique(src * base + dst)
    return keys // base, keys % base


def interpolation_events(
    pyramid: list[IntArray], granularity: str = "cell"
) -> CommunicationEvents:
    """Child-representative → parent-representative transfers, all levels."""
    per_processor = _check_granularity(granularity)
    events = CommunicationEvents(component="interpolation")
    for level in range(len(pyramid) - 1, 0, -1):
        child, parent = pyramid[level], pyramid[level - 1]
        cells = np.nonzero(child != EMPTY)
        if cells[0].size == 0:
            continue
        src, dst = child[cells], parent[tuple(c >> 1 for c in cells)]
        if per_processor:
            src, dst = _dedup(src, dst)
        events.add(src, dst)
    return events


def interaction_pairs(grid: IntArray, *, half: bool = False) -> tuple[IntArray, IntArray]:
    """Interaction-list ``(src, dst)`` pairs of one 2D or 3D level grid.

    :func:`~repro.quadtree.interaction.interaction_offsets` tabulates the
    offsets of each parity class, and the shared occupied-cell stencil
    kernel :func:`~repro.quadtree.cells.stencil_pairs` gathers each class
    in one pass.  Pairs come in parity-class, then offset, then
    row-major cell order.  ``half=True`` keeps only each table's offsets
    whose first non-zero component is positive, which yields every
    unordered pair of interacting cells exactly once.
    """
    classes = itertools.product((0, 1), repeat=grid.ndim)
    tables = [interaction_offsets(*bits) for bits in classes]
    if half:
        tables = [positive_half(table) for table in tables]
    return stencil_pairs(grid, EMPTY, tables)


def interaction_events(
    pyramid: list[IntArray], granularity: str = "cell"
) -> CommunicationEvents:
    """Interaction-list exchanges at every level (ordered pairs).

    Levels 0 and 1 contribute nothing: the root has no parent and the
    level-1 cells' parent (the root) has no neighbours.
    """
    per_processor = _check_granularity(granularity)
    events = CommunicationEvents(component="interaction")
    for grid in pyramid[2:]:
        src, dst = interaction_pairs(grid)
        if per_processor and src.size:
            src, dst = _dedup(src, dst)
        events.add(src, dst)
    return events


def ffi_events(assignment: Assignment, granularity: str = "cell") -> FfiEvents:
    """All far-field communications for a partitioned 2D or 3D input (§IV steps 5–10)."""
    pyramid = representative_pyramid(assignment.owner_grid())
    interp = interpolation_events(pyramid, granularity)
    anterp = interp.reversed()
    anterp.component = "anterpolation"
    inter = interaction_events(pyramid, granularity)
    return FfiEvents(interpolation=interp, anterpolation=anterp, interaction=inter)


def ffi_histograms(assignment: Assignment, num_processors: int) -> dict[str, PairHistogram]:
    """The three far-field phase histograms over ``num_processors`` ranks.

    Keys are ``"interpolation"``, ``"anterpolation"`` and
    ``"interaction"``, in that order.  Interpolation is compacted from
    its events; anterpolation is its :meth:`~PairHistogram.transposed`
    histogram, with no second compaction; the interaction list is
    generated from the half stencil and compacted once into a symmetric
    histogram standing for every ordered pair.  Every endpoint-only
    metric with a transpose-invariant fold gives the same value on these
    histograms as on the compacted phases of :func:`ffi_events`
    (cell granularity).
    """
    pyramid = representative_pyramid(assignment.owner_grid())
    interpolation = interpolation_events(pyramid).compact(num_processors)
    interaction = CommunicationEvents(component="interaction")
    for grid in pyramid[2:]:
        interaction.add(*interaction_pairs(grid, half=True))
    return {
        "interpolation": interpolation,
        "anterpolation": interpolation.transposed(),
        "interaction": interaction.compact(num_processors, symmetric=True),
    }
