"""Regression tests: duplicate curve keys in ordering and partitioning.

`order_particles` historically documented "strictly increasing" keys and
silently violated that once two particles shared a cell (possible only
for hand-built or time-evolved inputs — distributions sample distinct
cells).  The contract is now explicit: duplicates raise by default, or
merge to one representative per cell on request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Particles, Particles3D
from repro.partition import order_particles, partition_particles


@pytest.fixture
def colliding():
    # particles 1 and 3 share cell (2, 2); particle 0 sits at (1, 0)
    return Particles(np.array([1, 2, 0, 2]), np.array([0, 2, 3, 2]), 3)


class TestDuplicateDetection:
    def test_raise_names_colliding_cell(self, colliding):
        with pytest.raises(ValueError, match=r"collide at cell \(2, 2\)"):
            order_particles(colliding, "hilbert")

    def test_raise_is_default_policy(self, colliding):
        with pytest.raises(ValueError, match="curve keys must be distinct"):
            partition_particles(colliding, "zcurve", 2)

    def test_error_points_at_resolution_options(self, colliding):
        with pytest.raises(ValueError, match="duplicates='merge'"):
            order_particles(colliding, "gray")

    def test_invalid_policy_rejected(self, colliding):
        with pytest.raises(ValueError, match="'raise' or 'merge'"):
            order_particles(colliding, "hilbert", duplicates="ignore")

    def test_deterministic_error(self, colliding):
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError) as excinfo:
                order_particles(colliding, "rowmajor")
            messages.add(str(excinfo.value))
        assert len(messages) == 1


class TestMerge:
    def test_merge_restores_strictly_increasing_keys(self, colliding):
        merged, keys = order_particles(colliding, "hilbert", duplicates="merge")
        assert len(merged) == 3  # one representative for the shared cell
        assert np.all(np.diff(keys) > 0)
        merged.validate_distinct()

    def test_merge_keeps_first_stable_occurrence(self):
        # ids 0 and 2 collide; the representative must be id 0's entry
        particles = Particles(np.array([3, 1, 3]), np.array([3, 1, 3]), 2)
        merged, _ = order_particles(particles, "rowmajor", duplicates="merge")
        assert len(merged) == 2
        assert {(int(x), int(y)) for x, y in zip(merged.x, merged.y)} == {(3, 3), (1, 1)}

    def test_merge_without_duplicates_is_identity(self):
        particles = Particles(np.array([0, 1, 2]), np.array([0, 1, 2]), 2)
        plain, plain_keys = order_particles(particles, "hilbert")
        merged, merged_keys = order_particles(particles, "hilbert", duplicates="merge")
        assert np.array_equal(plain.x, merged.x) and np.array_equal(plain.y, merged.y)
        assert np.array_equal(plain_keys, merged_keys)

    def test_partition_with_merge_balances_survivors(self, colliding):
        asg = partition_particles(colliding, "hilbert", 2, duplicates="merge")
        assert asg.particles_per_processor().sum() == 3
        grid = asg.owner_grid()
        assert np.count_nonzero(grid >= 0) == 3

    def test_merged_owner_grid_has_no_overwrite_ambiguity(self, colliding):
        # pre-fix, owner_grid silently overwrote the shared cell; merged
        # assignments see each occupied cell exactly once
        asg = partition_particles(colliding, "zcurve", 4, duplicates="merge")
        assert np.array_equal(
            asg.owner_grid()[asg.particles.x, asg.particles.y], asg.processor
        )


class TestDuplicates3D:
    """3D inputs go through the same ordering, and the same duplicate policy."""

    @pytest.fixture
    def colliding3d(self):
        # particles 0 and 2 share cell (1, 1, 1); particle 1 sits at (0, 2, 3)
        return Particles3D(np.array([1, 0, 1]), np.array([1, 2, 1]), np.array([1, 3, 1]), 2)

    @pytest.mark.parametrize("curve", ["morton3d", "hilbert3d", "rowmajor"])
    def test_raise_names_all_three_coordinates(self, colliding3d, curve):
        with pytest.raises(ValueError, match=r"collide at cell \(1, 1, 1\)"):
            partition_particles(colliding3d, curve, 2)

    def test_merge_keeps_one_particle_per_cell(self, colliding3d):
        asg = partition_particles(colliding3d, "morton3d", 2, duplicates="merge")
        assert isinstance(asg.particles, Particles3D)
        assert len(asg.particles) == 2
        assert np.all(np.diff(asg.keys) > 0)
        assert asg.particles_per_processor().tolist() == [1, 1]
        grid = asg.owner_grid()
        assert grid.shape == (4, 4, 4)
        assert np.array_equal(
            grid[asg.particles.x, asg.particles.y, asg.particles.z], asg.processor
        )
        assert np.count_nonzero(grid >= 0) == 2
