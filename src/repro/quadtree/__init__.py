"""Spatial tree substrate for the FMM communication model.

One implementation serves the paper's quadtree (2D) and its octree
extension (3D): every helper takes its dimension from the number of
coordinates or the rank of the grid it is given.
"""

from repro.quadtree.cells import (
    aligned_views,
    cells_are_adjacent,
    children_of,
    half_space_offsets,
    level_side,
    neighbor_offsets,
    parent_of,
)
from repro.quadtree.interaction import interaction_list_cells, interaction_offsets
from repro.quadtree.pyramid import EMPTY, occupancy_pyramid, representative_pyramid

__all__ = [
    "parent_of",
    "children_of",
    "level_side",
    "neighbor_offsets",
    "half_space_offsets",
    "aligned_views",
    "cells_are_adjacent",
    "interaction_offsets",
    "interaction_list_cells",
    "EMPTY",
    "representative_pyramid",
    "occupancy_pyramid",
]
