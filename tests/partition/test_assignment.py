"""Tests for SFC ordering and end-to-end partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Particles, get_distribution, get_distribution3d
from repro.partition import curve_keys, order_particles, partition_particles
from repro.sfc import get_curve, get_curve3d


@pytest.fixture
def particles():
    return get_distribution("uniform").sample(300, 5, rng=11)


class TestOrdering:
    def test_keys_match_curve(self, particles):
        keys = curve_keys(particles, "hilbert")
        curve = get_curve("hilbert", 5)
        assert np.array_equal(keys, curve.encode(particles.x, particles.y))

    def test_sorted_keys_strictly_increasing(self, particles):
        _, keys = order_particles(particles, "zcurve")
        assert np.all(np.diff(keys) > 0)

    def test_ordering_is_permutation(self, particles):
        ordered, _ = order_particles(particles, "gray")
        assert set(map(tuple, np.stack([ordered.x, ordered.y], 1).tolist())) == set(
            map(tuple, np.stack([particles.x, particles.y], 1).tolist())
        )

    def test_curve_instance_accepted(self, particles):
        keys = curve_keys(particles, get_curve("hilbert", 5))
        assert keys.size == len(particles)

    def test_order_mismatch_rejected(self, particles):
        with pytest.raises(ValueError, match="order"):
            curve_keys(particles, get_curve("hilbert", 6))


class TestPartition:
    def test_processor_array_contiguous(self, particles):
        asg = partition_particles(particles, "hilbert", 8)
        assert np.all(np.diff(asg.processor) >= 0)
        assert asg.processor.min() == 0 and asg.processor.max() == 7

    def test_balance(self, particles):
        asg = partition_particles(particles, "hilbert", 7)
        counts = asg.particles_per_processor()
        assert counts.sum() == 300
        assert counts.max() - counts.min() <= 1

    def test_owner_grid_consistency(self, particles):
        asg = partition_particles(particles, "zcurve", 8)
        grid = asg.owner_grid()
        assert grid.shape == (32, 32)
        assert np.count_nonzero(grid >= 0) == 300
        assert np.array_equal(grid[asg.particles.x, asg.particles.y], asg.processor)

    def test_owner_grid_cached(self, particles):
        asg = partition_particles(particles, "zcurve", 8)
        assert asg.owner_grid() is asg.owner_grid()

    def test_chunks_follow_curve_locality(self):
        """Particles of one processor occupy a contiguous curve segment."""
        particles = get_distribution("uniform").sample(256, 4, rng=0)  # full 16x16
        asg = partition_particles(particles, "hilbert", 16)
        curve = get_curve("hilbert", 4)
        keys = curve.encode(asg.particles.x, asg.particles.y)
        for proc in range(16):
            seg = keys[asg.processor == proc]
            assert seg.max() - seg.min() == len(seg) - 1  # consecutive indices

    def test_more_processors_than_particles(self):
        particles = Particles(np.array([0, 1]), np.array([0, 1]), order=2)
        asg = partition_particles(particles, "hilbert", 8)
        counts = asg.particles_per_processor()
        assert counts.sum() == 2 and counts.max() == 1


class TestPartition3D:
    @pytest.fixture
    def particles3d(self):
        return get_distribution3d("uniform").sample(100, 3, rng=2)

    def test_curve_name_resolves_in_3d_registry(self, particles3d):
        keys = curve_keys(particles3d, "hilbert")
        curve = get_curve3d("hilbert3d", 3)
        assert np.array_equal(keys, curve.encode(particles3d.x, particles3d.y, particles3d.z))

    def test_owner_grid_is_a_cube(self, particles3d):
        asg = partition_particles(particles3d, "morton3d", 8)
        grid = asg.owner_grid()
        assert grid.shape == (8, 8, 8)
        assert np.count_nonzero(grid >= 0) == 100
        p = asg.particles
        assert np.array_equal(grid[p.x, p.y, p.z], asg.processor)

    def test_curve_dimension_mismatch_rejected(self, particles, particles3d):
        with pytest.raises(ValueError, match="3D particle set needs a 3D curve"):
            curve_keys(particles3d, get_curve("hilbert", 3))
        with pytest.raises(ValueError, match="2D particle set needs a 2D curve"):
            curve_keys(particles, get_curve3d("hilbert3d", 5))
