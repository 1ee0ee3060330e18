"""Metamorphic check: a 2D input lifted into the z=0 plane of a 3D lattice.

Appending a zero z coordinate keeps the relative order of row-major and
Z-order keys, so the 3D pipeline must assign every particle the same
rank and emit exactly the same event *sequences* as the 2D pipeline —
not just the same histograms, since the contention simulator's FIFO
queues see events in order.  The check fails if the dimension-generic
code enumerates stencil offsets or parity classes in a different order
per dimension.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Particles3D, get_distribution
from repro.fmm import ffi_events, nfi_events
from repro.partition import partition_particles


def lift(particles) -> Particles3D:
    """The same particles on the z=0 plane of a same-order cube lattice."""
    return Particles3D(particles.x, particles.y, np.zeros_like(particles.x), particles.order)


def sequence(events) -> list:
    src, dst = events.pairs()
    return list(zip(src.tolist(), dst.tolist()))


@pytest.mark.parametrize("seed", [0, 7, 2013])
@pytest.mark.parametrize("p", [4, 16, 64])
@pytest.mark.parametrize("curve2d,curve3d", [("rowmajor", "rowmajor3d"), ("zcurve", "morton3d")])
def test_lifted_input_gives_identical_ranks_and_event_sequences(seed, p, curve2d, curve3d):
    particles = get_distribution("uniform").sample(400, 5, rng=seed)
    flat = partition_particles(particles, curve2d, p)
    deep = partition_particles(lift(particles), curve3d, p)

    assert np.array_equal(flat.particles.x, deep.particles.x)
    assert np.array_equal(flat.particles.y, deep.particles.y)
    assert np.array_equal(flat.processor, deep.processor)

    for radius, metric in ((1, "chebyshev"), (2, "manhattan")):
        want = sequence(nfi_events(flat, radius, metric))
        assert want and sequence(nfi_events(deep, radius, metric)) == want, (radius, metric)

    flat_ffi, deep_ffi = ffi_events(flat).as_mapping(), ffi_events(deep).as_mapping()
    for phase, events in flat_ffi.items():
        want = sequence(events)
        assert want and sequence(deep_ffi[phase]) == want, phase
