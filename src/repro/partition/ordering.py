"""Particle-order SFCs: linearly ordering a particle set (§IV step 1)."""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.distributions.base import Particles
from repro.distributions.three_d import Particles3D
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.curves3d import Curve3D, get_curve3d
from repro.sfc.registry import get_curve

__all__ = ["particle_coords", "curve_keys", "order_particles"]


def particle_coords(particles: Particles | Particles3D) -> tuple[IntArray, ...]:
    """The per-axis cell coordinates of a 2D or 3D particle set."""
    if isinstance(particles, Particles3D):
        return particles.x, particles.y, particles.z
    return particles.x, particles.y


def curve_keys(
    particles: Particles | Particles3D, curve: SpaceFillingCurve | Curve3D | str
) -> IntArray:
    """Curve index of each particle's cell under the particle-order SFC.

    A curve name is looked up in the 2D or the 3D curve registry, to
    match the dimension of ``particles``.
    """
    coords = particle_coords(particles)
    three_d = len(coords) == 3
    if isinstance(curve, str):
        sfc = (get_curve3d if three_d else get_curve)(curve, particles.order)
    else:
        sfc = curve
    if isinstance(sfc, Curve3D) != three_d:
        raise ValueError(
            f"a {'3D' if three_d else '2D'} particle set needs a "
            f"{'3D' if three_d else '2D'} curve, got {type(sfc).__name__}"
        )
    if sfc.order != particles.order:
        raise ValueError(
            f"curve order {sfc.order} does not match particle lattice order {particles.order}"
        )
    return sfc.encode(*coords)


def order_particles(
    particles: Particles | Particles3D,
    curve: SpaceFillingCurve | Curve3D | str,
    *,
    duplicates: str = "raise",
) -> tuple[Particles | Particles3D, IntArray]:
    """Sort particles along the particle-order SFC.

    Returns the reordered particle set (of the input's type) and the
    curve keys aligned with it.  The keys are strictly increasing
    **only if** all particles occupy distinct cells — a property freshly
    sampled distributions guarantee but time-evolved or hand-built sets
    may violate.  The occupancy pyramid and :meth:`Assignment.owner_grid`
    both assume at most one particle per cell, so duplicate keys are
    never passed through silently; the ``duplicates`` policy decides
    what happens instead:

    ``"raise"`` (default)
        Raise :class:`ValueError` naming the first colliding cell.
    ``"merge"``
        Collapse co-located particles to a single representative (the
        first in the stable sort order), restoring strictly increasing
        keys.  Event generation then sees each occupied cell once, which
        matches the FMM model's one-particle-per-finest-cell abstraction.
    """
    if duplicates not in ("raise", "merge"):
        raise ValueError(
            f"duplicates must be 'raise' or 'merge', got {duplicates!r}"
        )
    coords = particle_coords(particles)
    keys = curve_keys(particles, curve)
    perm = np.argsort(keys, kind="stable")
    sorted_keys = keys[perm]
    distinct = np.ones(sorted_keys.size, dtype=bool)
    distinct[1:] = sorted_keys[1:] != sorted_keys[:-1]
    if not distinct.all():
        if duplicates == "raise":
            clash = int(np.flatnonzero(~distinct)[0])
            cell = ", ".join(str(int(c[perm[clash]])) for c in coords)
            raise ValueError(
                f"particles collide at cell ({cell}) "
                f"(curve key {int(sorted_keys[clash])}): curve keys must be distinct; "
                "merge co-located particles (duplicates='merge') or resolve collisions "
                "during evolution (repro.dynamics.evolution.evolve_step)"
            )
        perm = perm[distinct]
        sorted_keys = sorted_keys[distinct]
    sorted_particles = type(particles)(*(c[perm] for c in coords), particles.order)
    return sorted_particles, sorted_keys
