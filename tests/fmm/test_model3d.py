"""Tests for the FMM model on 3D inputs (extension), with brute-force oracles."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.distributions import get_distribution3d
from repro.fmm import FmmCommunicationModel, ffi_histograms, nfi_events
from repro.partition import partition_particles
from repro.quadtree import EMPTY, interaction_list_cells, representative_pyramid
from repro.topology import make_topology


@pytest.fixture(scope="module")
def assignment():
    particles = get_distribution3d("uniform").sample(150, 3, rng=4)  # 8^3
    return partition_particles(particles, "hilbert3d", 8)


def brute_force_nfi3d(assignment, radius, metric):
    p = assignment.particles
    pairs = []
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(int(p.x[i] - p.x[j]))
            dy = abs(int(p.y[i] - p.y[j]))
            dz = abs(int(p.z[i] - p.z[j]))
            d = max(dx, dy, dz) if metric == "chebyshev" else dx + dy + dz
            if 1 <= d <= radius:
                pairs.append(
                    (int(assignment.processor[i]), int(assignment.processor[j]))
                )
    return pairs


class TestNfi3D:
    @pytest.mark.parametrize("metric", ["chebyshev", "manhattan"])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_brute_force(self, assignment, radius, metric):
        events = nfi_events(assignment, radius=radius, metric=metric)
        src, dst = events.pairs()
        got = sorted(map(tuple, np.sort(np.stack([src, dst], 1), axis=1).tolist()))
        want = sorted(
            map(tuple, np.sort(np.array(brute_force_nfi3d(assignment, radius, metric)).reshape(-1, 2), axis=1).tolist())
        )
        assert got == want

    def test_radius_zero_rejected(self, assignment):
        with pytest.raises(ValueError):
            nfi_events(assignment, radius=0)


def ordered_counts(histogram) -> Counter:
    """``{(src, dst): weight}`` of the ordered events a histogram stands for."""
    counts: Counter = Counter()
    for s, d, w in zip(*(a.tolist() for a in (histogram.src, histogram.dst, histogram.weights))):
        counts[s, d] += w
        if histogram.symmetric:
            counts[d, s] += w
    return counts


class TestFfi3D:
    def test_interpolation_matches_brute_force(self, assignment):
        pyramid = representative_pyramid(assignment.owner_grid())
        got = ordered_counts(ffi_histograms(assignment, 8)["interpolation"])
        want = []
        for level in range(len(pyramid) - 1, 0, -1):
            grid, parent = pyramid[level], pyramid[level - 1]
            side = grid.shape[0]
            for cx in range(side):
                for cy in range(side):
                    for cz in range(side):
                        if grid[cx, cy, cz] != EMPTY:
                            want.append(
                                (
                                    int(grid[cx, cy, cz]),
                                    int(parent[cx // 2, cy // 2, cz // 2]),
                                )
                            )
        assert got == Counter(want)

    def test_interaction_matches_brute_force(self, assignment):
        pyramid = representative_pyramid(assignment.owner_grid())
        got = ordered_counts(ffi_histograms(assignment, 8)["interaction"])
        want = []
        for level in range(2, len(pyramid)):
            grid = pyramid[level]
            side = grid.shape[0]
            for cx in range(side):
                for cy in range(side):
                    for cz in range(side):
                        if grid[cx, cy, cz] == EMPTY:
                            continue
                        for tx, ty, tz in interaction_list_cells(cx, cy, cz, level):
                            if grid[tx, ty, tz] != EMPTY:
                                want.append(
                                    (int(grid[cx, cy, cz]), int(grid[tx, ty, tz]))
                                )
        assert got == Counter(want)

    def test_anterpolation_mirrors_interpolation(self, assignment):
        ffi = ffi_histograms(assignment, 8)
        up, down = ordered_counts(ffi["interpolation"]), ordered_counts(ffi["anterpolation"])
        assert down == Counter({(d, s): w for (s, d), w in up.items()})


class TestModel3D:
    def test_full_pipeline(self):
        particles = get_distribution3d("uniform").sample(2000, 5, rng=1)
        net = make_topology("torus3d", 64, processor_curve="hilbert3d")
        model = FmmCommunicationModel(net, particle_curve="hilbert3d")
        report = model.evaluate(particles)
        assert report.nfi_acd >= 0 and report.ffi_acd > 0
        assert report.nfi_acd <= net.diameter

    def test_hilbert_beats_rowmajor_in_3d(self):
        particles = get_distribution3d("uniform").sample(4000, 5, rng=2)
        hil_net = make_topology("torus3d", 512, processor_curve="hilbert3d")
        rm_net = make_topology("torus3d", 512, processor_curve="rowmajor3d")
        hil = FmmCommunicationModel(hil_net, "hilbert3d").evaluate(particles)
        rm = FmmCommunicationModel(rm_net, "rowmajor3d").evaluate(particles)
        assert hil.nfi_acd < rm.nfi_acd
        assert hil.ffi_acd < rm.ffi_acd

    def test_curve_order_mismatch_rejected(self):
        particles = get_distribution3d("uniform").sample(10, 3, rng=0)
        from repro.sfc import get_curve3d

        with pytest.raises(ValueError, match="order"):
            partition_particles(particles, get_curve3d("hilbert3d", 4), 8)
