"""Micro-benchmarks of the computational kernels.

These are conventional multi-round timing benchmarks (unlike the
``rounds=1`` artefact regenerations): curve encoding throughput,
topology distance throughput and FMM event generation, which together
dominate every experiment's runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution
from repro.fmm import ffi_histograms, nfi_events
from repro.metrics import compute_acd
from repro.partition import partition_particles
from repro.sfc import get_curve
from repro.sfc.registry import PAPER_CURVES
from repro.topology import make_topology

N_POINTS = 1_000_000
ORDER = 10


@pytest.fixture(scope="module")
def coords():
    rng = np.random.default_rng(0)
    side = 1 << ORDER
    return rng.integers(0, side, N_POINTS), rng.integers(0, side, N_POINTS)


@pytest.mark.parametrize("name", PAPER_CURVES)
def test_encode_throughput(benchmark, name, coords):
    curve = get_curve(name, ORDER)
    x, y = coords
    benchmark(curve.encode, x, y)


@pytest.mark.parametrize("name", PAPER_CURVES)
def test_decode_throughput(benchmark, name):
    curve = get_curve(name, ORDER)
    idx = np.arange(N_POINTS, dtype=np.int64)
    benchmark(curve.decode, idx)


@pytest.mark.parametrize("topo", ["torus", "mesh", "hypercube", "quadtree", "ring"])
def test_distance_throughput(benchmark, topo):
    net = make_topology(topo, 4096, processor_curve="hilbert")
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4096, N_POINTS)
    b = rng.integers(0, 4096, N_POINTS)
    benchmark(net.distance, a, b)


@pytest.fixture(scope="module")
def assignment():
    particles = get_distribution("uniform").sample(250_000, 10, rng=2)
    return partition_particles(particles, "hilbert", 4096)


def test_nfi_event_generation(benchmark, assignment):
    benchmark(nfi_events, assignment, 1, "chebyshev")


def test_ffi_event_generation(benchmark, assignment):
    benchmark(ffi_histograms, assignment, 4096)


def test_acd_evaluation(benchmark, assignment):
    net = make_topology("torus", 4096, processor_curve="hilbert")
    events = nfi_events(assignment)
    benchmark(compute_acd, events, net)
