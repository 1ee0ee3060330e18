"""End-to-end particle → processor assignment (§IV steps 1–4)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._typing import IntArray
from repro.distributions.base import Particles
from repro.distributions.three_d import Particles3D
from repro.partition.chunking import chunk_assignment
from repro.partition.ordering import order_particles, particle_coords
from repro.quadtree.pyramid import EMPTY
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.curves3d import Curve3D
from repro.util.validation import check_positive

__all__ = ["Assignment", "partition_particles", "MAX_RANKS"]

#: Most ranks an owner grid holds: ranks are stored as ``int32`` and
#: must stay below :data:`~repro.quadtree.pyramid.EMPTY` (``2**31 - 1``),
#: the pyramid's empty-cell sentinel.
MAX_RANKS = EMPTY


def _check_rank_space(num_processors: int) -> None:
    if num_processors > MAX_RANKS:
        raise ValueError(
            f"num_processors must be at most {MAX_RANKS} (ranks are stored in 32 "
            f"bits), got {num_processors}"
        )


@dataclass(frozen=True)
class Assignment:
    """Particles ordered along a particle-order SFC and chunked onto ranks.

    Attributes
    ----------
    particles:
        The 2D or 3D particle set sorted in curve order.
    keys:
        Curve index of each (sorted) particle; strictly increasing.
    processor:
        Owning processor rank of each (sorted) particle; non-decreasing.
    num_processors:
        Total rank count ``p`` (some ranks may own zero particles when
        ``p > n``).
    """

    particles: Particles | Particles3D
    keys: IntArray
    processor: IntArray
    num_processors: int
    _owner_cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def order(self) -> int:
        """Lattice order of the underlying particle set."""
        return self.particles.order

    @property
    def side(self) -> int:
        """Lattice side length."""
        return self.particles.side

    def owner_grid(self) -> IntArray:
        """Dense ``(side,)*d`` ``int32`` grid of owning ranks; ``-1`` marks empty cells.

        ``d`` is the dimension of the particle set.  The grid is computed
        once and cached (it is read by both the NFI and FFI models).
        Ranks are stored in 32 bits, as are the pyramids, stencil pairs
        and event chunks built from the grid; so ``num_processors`` may
        not exceed :data:`MAX_RANKS`, which keeps every rank below the
        pyramid's empty-cell sentinel.

        Raises :class:`ValueError` naming ``num_processors`` when it
        exceeds :data:`MAX_RANKS`, before the grid is allocated.
        """
        if not self._owner_cache:
            _check_rank_space(self.num_processors)
            coords = particle_coords(self.particles)
            grid = np.full((self.side,) * len(coords), -1, dtype=np.int32)
            grid[coords] = self.processor
            self._owner_cache.append(grid)
        return self._owner_cache[0]

    def particles_per_processor(self) -> IntArray:
        """Histogram of particle counts per rank (length ``num_processors``)."""
        return np.bincount(self.processor, minlength=self.num_processors).astype(np.int64)


def partition_particles(
    particles: Particles | Particles3D,
    particle_curve: SpaceFillingCurve | Curve3D | str,
    num_processors: int,
    *,
    duplicates: str = "raise",
) -> Assignment:
    """Order ``particles`` by ``particle_curve`` and chunk them onto ranks.

    ``particles`` may be 2D or 3D; a curve name is resolved in the
    registry of the matching dimension (:func:`curve_keys`).
    ``duplicates`` is forwarded to :func:`order_particles`: co-located
    particles (possible in time-evolved sets) either raise or are merged
    before chunking.  ``p > n`` is legal — trailing ranks simply own
    zero particles and generate no communication events.  More than
    :data:`MAX_RANKS` ranks raise :class:`ValueError` before any
    per-rank array is allocated.
    """
    p = check_positive(num_processors, "num_processors")
    _check_rank_space(p)
    ordered, keys = order_particles(particles, particle_curve, duplicates=duplicates)
    procs = chunk_assignment(len(ordered), p)
    return Assignment(ordered, keys, procs, p)
