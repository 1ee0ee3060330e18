"""Metamorphic check: a 2D input lifted into the z=0 plane of a 3D lattice.

Appending a zero z coordinate keeps the relative order of row-major and
Z-order keys, so the 3D pipeline must assign every particle the same
rank, emit exactly the same near-field event *sequence* and far-field
generator sequences as the 2D pipeline — not just the same histograms,
since the contention simulator's FIFO queues see near-field events in
order — and build byte-identical far-field histograms.  The check fails
if the dimension-generic code enumerates stencil offsets or parity
classes in a different order per dimension.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Particles3D, get_distribution
from repro.fmm import ffi_histograms, interpolation_events, nfi_events
from repro.fmm.ffi import interaction_pairs
from repro.partition import partition_particles
from repro.quadtree import representative_pyramid


def lift(particles) -> Particles3D:
    """The same particles on the z=0 plane of a same-order cube lattice."""
    return Particles3D(particles.x, particles.y, np.zeros_like(particles.x), particles.order)


def sequence(events) -> list:
    src, dst = events.pairs()
    return list(zip(src.tolist(), dst.tolist()))


def far_field_sequences(assignment) -> dict[str, list]:
    """Interpolation events and every level's interaction pairs, in generator order."""
    pyramid = representative_pyramid(assignment.owner_grid())
    levels = [interaction_pairs(grid) for grid in pyramid[2:]]
    return {
        "interpolation": sequence(interpolation_events(pyramid)),
        "interaction": [pair for src, dst in levels for pair in zip(src.tolist(), dst.tolist())],
    }


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

    flat_ffi, deep_ffi = far_field_sequences(flat), far_field_sequences(deep)
    for phase, want in flat_ffi.items():
        assert want and deep_ffi[phase] == want, phase

    flat_hists, deep_hists = ffi_histograms(flat, p), ffi_histograms(deep, p)
    for phase, want in flat_hists.items():
        got = deep_hists[phase]
        for field in ("src", "dst", "weights"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (phase, field)
