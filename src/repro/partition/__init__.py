"""Particle ordering and chunk distribution onto processors."""

from repro.partition.assignment import Assignment, partition_particles
from repro.partition.chunking import chunk_assignment, chunk_bounds
from repro.partition.ordering import curve_keys, order_particles

__all__ = [
    "Assignment",
    "partition_particles",
    "chunk_assignment",
    "chunk_bounds",
    "curve_keys",
    "order_particles",
]
