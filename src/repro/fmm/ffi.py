"""Far-field interaction (FFI) communication histograms (§III, §IV).

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
step 9 describes.  :func:`ffi_histograms` is the one far-field builder:
it compacts each phase into a :class:`~repro.fmm.events.PairHistogram`,
which determines every endpoint-only metric.  The interaction relation
is symmetric, so at cell granularity it gathers only the half of each
parity-class offset table whose first non-zero component is positive
(the half-space rule of the near field) and stores each unordered pair
once in a symmetric histogram that counts it twice.  Anterpolation is
the interpolation histogram transposed.  :func:`interpolation_events`
and :func:`interaction_pairs` are the per-phase generators it is built
from; the data-volume model (:mod:`repro.fmm.volume`) weights the same
generators' output.

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

import numpy as np

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.partition.assignment import Assignment
from repro.quadtree.cells import positive_half, stencil_pairs
from repro.quadtree.interaction import interaction_offsets
from repro.quadtree.pyramid import EMPTY, representative_pyramid
from repro.util.sets import sorted_unique

__all__ = ["ffi_histograms", "interpolation_events"]


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


def interaction_tables(ndim: int, *, half: bool = False) -> list[IntArray]:
    """The ``2**ndim`` parity-class interaction offset tables, in class order.

    :func:`~repro.quadtree.interaction.interaction_offsets` tabulates
    each class; ``half=True`` keeps only each table's offsets whose
    first non-zero component is positive, which visits every unordered
    pair of interacting cells exactly once.
    """
    classes = itertools.product((0, 1), repeat=ndim)
    tables = [interaction_offsets(*bits) for bits in classes]
    return [positive_half(table) for table in tables] if half else tables


def interaction_pairs(grid: IntArray, *, half: bool = False) -> tuple[IntArray, IntArray]:
    """Interaction-list ``(src, dst)`` pairs of one 2D or 3D level grid.

    The shared occupied-cell stencil kernel
    :func:`~repro.quadtree.cells.stencil_pairs` gathers each parity
    class of :func:`interaction_tables` in one pass.  Pairs come in
    parity-class, then offset, then row-major cell order.  Levels 0 and
    1 yield nothing: the root has no parent and the level-1 cells'
    parent (the root) has no neighbours.
    """
    return stencil_pairs(grid, EMPTY, interaction_tables(grid.ndim, half=half))


def ffi_histograms(
    assignment: Assignment, num_processors: int, granularity: str = "cell"
) -> dict[str, PairHistogram]:
    """The three far-field phase histograms over ``num_processors`` ranks (§IV steps 5–10).

    Keys are ``"interpolation"``, ``"anterpolation"`` and
    ``"interaction"``, in that order.  Interpolation is compacted from
    :func:`interpolation_events`; anterpolation is its
    :meth:`~PairHistogram.transposed` histogram, with no second
    compaction.  At ``"cell"`` granularity the interaction list is
    generated from the half stencil and compacted once into a symmetric
    histogram standing for every ordered pair; at ``"processor"``
    granularity each level's full interaction pairs are deduplicated
    first, so the histogram is ordered.
    """
    per_processor = _check_granularity(granularity)
    pyramid = representative_pyramid(assignment.owner_grid())
    interpolation = interpolation_events(pyramid, granularity).compact(num_processors)
    interaction = CommunicationEvents(component="interaction")
    for grid in pyramid[2:]:
        src, dst = interaction_pairs(grid, half=not per_processor)
        if per_processor and src.size:
            src, dst = _dedup(src, dst)
        interaction.add(src, dst)
    return {
        "interpolation": interpolation,
        "anterpolation": interpolation.transposed(),
        "interaction": interaction.compact(num_processors, symmetric=not per_processor),
    }
