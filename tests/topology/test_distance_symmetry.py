"""distance(a, b) == distance(b, a) on every registered topology.

Symmetric far-field histograms store one half of the interaction-list
relation and double its distance total, which is exact only because
every network distance is symmetric.  This pins that invariant
exhaustively at a small rank count and on sampled pairs at paper scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.registry import (
    GRID3D_TOPOLOGIES,
    GRID_TOPOLOGIES,
    make_topology,
    topology_names,
)

#: Processor-order curves for the grid-embedded networks (each name is
#: registered as a 2D curve and as an alias of a 3D curve).
CURVES = ("hilbert", "zcurve", "gray", "rowmajor")


def _layouts(name: str) -> tuple[str | None, ...]:
    return CURVES if name in GRID_TOPOLOGIES + GRID3D_TOPOLOGIES else (None,)


def _large_p(name: str) -> int:
    """The paper's 65 536 ranks, or 64**3 where a network needs a cube."""
    return 1 << 18 if name in GRID3D_TOPOLOGIES else 1 << 16


@pytest.mark.parametrize("name", topology_names())
def test_distance_is_symmetric_exhaustively(name):
    for p in (8, 64) if name in GRID3D_TOPOLOGIES else (16, 64):
        ranks = np.arange(p, dtype=np.int64)
        a, b = (m.ravel() for m in np.meshgrid(ranks, ranks, indexing="ij"))
        for curve in _layouts(name):
            topo = make_topology(name, p, processor_curve=curve)
            d = topo.distance(a, b)
            np.testing.assert_array_equal(d, topo.distance(b, a))
            assert np.all((d == 0) == (a == b))


@pytest.mark.parametrize("name", topology_names())
def test_distance_is_symmetric_on_sampled_pairs_at_scale(name):
    p = _large_p(name)
    rng = np.random.default_rng(p + sum(map(ord, name)))
    a = rng.integers(0, p, 100_000)
    b = rng.integers(0, p, 100_000)
    b[:1000] = a[:1000]  # some self pairs
    for curve in _layouts(name)[:2]:
        topo = make_topology(name, p, processor_curve=curve)
        d = topo.distance(a, b)
        np.testing.assert_array_equal(d, topo.distance(b, a))
        assert np.all((d == 0) == (a == b))
