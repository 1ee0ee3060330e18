"""Data-volume-weighted FMM communication (future-work item i).

§VIII of the paper lists "the impact of data volume ... on communication
efficiency, and ... the modeling of the ACD metric" as future work.  The
plain ACD counts every message equally; this module attaches volumes so
the metric becomes *average distance per unit of data moved*.

Two far-field volume models are provided:

* ``"multipole"`` — every far-field transfer carries a fixed-size
  multipole expansion (``expansion_size`` units).  This is how a real
  FMM behaves: the expansion order, not the particle count, fixes the
  message size, so the weighted ACD equals the unweighted one.
* ``"aggregate"`` — a transfer out of a cell carries one unit per
  particle the cell contains (a tree-code-like upper bound where source
  data is shipped verbatim).  Coarse-level messages become heavy, which
  shifts weight onto exactly the long-distance transfers and stresses
  the topology far more than the unweighted metric.

Near-field messages always weigh 1 per particle pair (each pair
exchanges one particle record), matching the unweighted NFI.

The messages are those of :func:`~repro.fmm.ffi.ffi_histograms`, from
the same generators, for 2D and 3D inputs alike: the interpolation
events of :func:`~repro.fmm.ffi.interpolation_events` and, per level,
the interaction pairs of :func:`~repro.fmm.ffi.interaction_pairs`.  A
cell's particle count comes from the occupancy pyramid, which is
non-zero on exactly the cells the representative pyramid occupies, so
masking or gathering both pyramids the same way lines the counts up
with the messages.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.fmm.ffi import interaction_pairs, interaction_tables, interpolation_events
from repro.partition.assignment import Assignment
from repro.quadtree.cells import stencil_pairs
from repro.quadtree.pyramid import occupancy_pyramid, representative_pyramid

__all__ = ["weighted_ffi_events"]


def weighted_ffi_events(
    assignment: Assignment,
    volume_model: str = "aggregate",
    expansion_size: int = 1,
) -> dict[str, PairHistogram]:
    """Far-field phase histograms weighted by per-message data volume.

    Parameters
    ----------
    volume_model:
        ``"multipole"`` (fixed ``expansion_size`` per transfer) or
        ``"aggregate"`` (volume = particle count of the sending cell).
    expansion_size:
        Units carried by one multipole transfer (``"multipole"`` only).

    Returns
    -------
    The ``"interpolation"``, ``"anterpolation"`` and ``"interaction"``
    histograms over the assignment's ranks, in that order.
    Anterpolation is the transposed interpolation histogram; the
    interaction histogram is ordered, because a pair's two directions
    carry their own senders' volumes.
    """
    if volume_model not in ("multipole", "aggregate"):
        raise ValueError(
            f"unknown volume_model {volume_model!r}; use 'multipole' or 'aggregate'"
        )
    owner = assignment.owner_grid()
    pyramid = representative_pyramid(owner)
    occupancy = occupancy_pyramid(owner)

    def volume(counts: IntArray) -> IntArray:
        if volume_model == "multipole":
            return np.full(counts.shape, expansion_size, dtype=np.int64)
        return counts

    # Levels k..1, the order interpolation_events emits; the empty
    # leading array covers a one-cell lattice, which has no level 1.
    counts = [np.empty(0, np.int64)] + [occ[occ > 0] for occ in reversed(occupancy[1:])]
    interp = CommunicationEvents(component="interpolation")
    interp.add(*interpolation_events(pyramid).pairs(), volume(np.concatenate(counts)))

    inter = CommunicationEvents(component="interaction")
    for grid, occ in zip(pyramid[2:], occupancy[2:]):
        senders, _ = stencil_pairs(occ, 0, interaction_tables(grid.ndim))
        inter.add(*interaction_pairs(grid), volume(senders))

    p = assignment.num_processors
    interpolation = interp.compact(p)
    return {
        "interpolation": interpolation,
        "anterpolation": interpolation.transposed(),
        "interaction": inter.compact(p),
    }
