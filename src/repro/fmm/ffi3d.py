"""Far-field interaction events in 3D (extension).

The octree analogue of :mod:`repro.fmm.ffi`: interpolation and
anterpolation walk the representative pyramid, and every non-empty cell
exchanges with its (up to 189-member) 3D interaction list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents
from repro.fmm.ffi import interaction_pairs
from repro.octree.interaction import interaction_offsets3d
from repro.octree.pyramid import EMPTY, representative_pyramid3d
from repro.partition.assignment3d import Assignment3D

__all__ = ["FfiEvents3D", "ffi_events3d", "interpolation_events3d", "interaction_events3d"]


@dataclass(frozen=True)
class FfiEvents3D:
    """The three far-field phases of the 3D model."""

    interpolation: CommunicationEvents
    anterpolation: CommunicationEvents
    interaction: CommunicationEvents

    def as_mapping(self) -> dict[str, CommunicationEvents]:
        """Phase-name → events mapping (for breakdown reporting)."""
        return {
            "interpolation": self.interpolation,
            "anterpolation": self.anterpolation,
            "interaction": self.interaction,
        }


def interpolation_events3d(pyramid: list[IntArray]) -> CommunicationEvents:
    """Child-representative → parent-representative transfers, all levels."""
    events = CommunicationEvents(component="interpolation")
    for level in range(len(pyramid) - 1, 0, -1):
        child, parent = pyramid[level], pyramid[level - 1]
        cx, cy, cz = np.nonzero(child != EMPTY)
        if cx.size == 0:
            continue
        events.add(child[cx, cy, cz], parent[cx >> 1, cy >> 1, cz >> 1])
    return events


def interaction_events3d(pyramid: list[IntArray]) -> CommunicationEvents:
    """Interaction-list exchanges at every octree level (ordered pairs)."""
    events = CommunicationEvents(component="interaction")
    for grid in pyramid[2:]:
        events.add(*interaction_pairs(grid, interaction_offsets3d))
    return events


def ffi_events3d(assignment: Assignment3D) -> FfiEvents3D:
    """All 3D far-field communications for a partitioned input."""
    pyramid = representative_pyramid3d(assignment.owner_volume())
    interp = interpolation_events3d(pyramid)
    anterp = interp.reversed()
    anterp.component = "anterpolation"
    inter = interaction_events3d(pyramid)
    return FfiEvents3D(interpolation=interp, anterpolation=anterp, interaction=inter)
