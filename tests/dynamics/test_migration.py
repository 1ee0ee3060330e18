"""Migration accounting vs brute force, stale partitions, p > n audit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution
from repro.dynamics import (
    TrajectorySpec,
    clear_trajectory_cache,
    migration_volume,
    owners_by_id,
    stale_assignment,
    trajectory,
)
from repro.fmm.ffi import ffi_histograms
from repro.fmm.nfi import nfi_events
from repro.partition import curve_keys, partition_particles
from repro.sfc import PAPER_CURVES
from repro.topology import make_topology


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_trajectory_cache()
    yield
    clear_trajectory_cache()


def brute_force_owners(particles, curve, p):
    """id -> processor map via explicit per-particle sort bookkeeping."""
    keys = curve_keys(particles, curve)
    ranked = sorted(range(len(particles)), key=lambda i: (int(keys[i]), i))
    n = len(particles)
    base, extra = divmod(n, p)
    owners = {}
    position = 0
    for proc in range(p):
        size = base + (1 if proc < extra else 0)
        for _ in range(size):
            owners[ranked[position]] = proc
            position += 1
    return owners


class TestMigrationBruteForce:
    @pytest.mark.parametrize("curve", PAPER_CURVES)
    def test_matches_set_difference_of_owner_maps(self, curve):
        spec = TrajectorySpec.create(
            distribution="uniform", num_particles=220, order=6, motion="diffusion", seed=17
        )
        frames = trajectory(spec, 3)
        p = 16
        topo = make_topology("mesh", p, processor_curve=curve)
        for prev_frame, next_frame in zip(frames, frames[1:]):
            prev = owners_by_id(prev_frame, curve, p)
            nxt = owners_by_id(next_frame, curve, p)

            prev_map = brute_force_owners(prev_frame, curve, p)
            next_map = brute_force_owners(next_frame, curve, p)
            assert prev_map == {i: int(r) for i, r in enumerate(prev)}
            assert next_map == {i: int(r) for i, r in enumerate(nxt)}

            moved_ids = {i for i in prev_map if prev_map[i] != next_map[i]}
            expected_hops = sum(
                int(topo.distance(np.array([prev_map[i]]), np.array([next_map[i]]))[0])
                for i in moved_ids
            )
            migrated, hops = migration_volume(prev, nxt, topo)
            assert migrated == len(moved_ids)
            assert hops == expected_hops

    def test_identical_frames_zero_migration(self):
        dist = get_distribution("uniform").sample(100, 5, rng=3)
        owners = owners_by_id(dist, "hilbert", 4)
        assert migration_volume(owners, owners) == (0, 0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            migration_volume(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))


class TestStaleAssignment:
    def test_step_zero_stale_equals_resorted(self):
        particles = get_distribution("uniform").sample(120, 5, rng=8)
        owners0 = owners_by_id(particles, "hilbert", 8)
        stale = stale_assignment(particles, "hilbert", owners0, 8)
        fresh = partition_particles(particles, "hilbert", 8)
        assert np.array_equal(stale.processor, fresh.processor)
        assert np.array_equal(stale.owner_grid(), fresh.owner_grid())

    def test_ownership_frozen_while_positions_move(self):
        spec = TrajectorySpec.create(
            distribution="uniform", num_particles=150, order=6, motion="drift", seed=23
        )
        frames = trajectory(spec, 4)
        owners0 = owners_by_id(frames[0], "zcurve", 16)
        stale = stale_assignment(frames[4], "zcurve", owners0, 16)
        # every rank still owns exactly its step-0 particle count
        counts0 = np.bincount(owners0, minlength=16)
        assert np.array_equal(stale.particles_per_processor(), counts0)
        # event generation runs on the stale grid without complaint
        hist = nfi_events(stale, 1, "chebyshev").compact(16)
        assert hist.num_events > 0

    def test_owner_length_mismatch_rejected(self):
        particles = get_distribution("uniform").sample(50, 5, rng=2)
        with pytest.raises(ValueError, match="one entry per particle"):
            stale_assignment(particles, "hilbert", np.zeros(49, dtype=np.int64), 4)


class TestEmptyProcessors:
    """`p > n` audit: empty ranks must flow through the whole pipeline."""

    @pytest.mark.parametrize("n,p", [(3, 8), (0, 4), (5, 64)])
    def test_partition_handles_more_processors_than_particles(self, n, p):
        particles = get_distribution("uniform").sample(n, 5, rng=9)
        asg = partition_particles(particles, "hilbert", p)
        counts = asg.particles_per_processor()
        assert counts.shape == (p,)
        assert counts.sum() == n
        assert counts.max(initial=0) <= 1 or n <= p  # balanced chunks
        grid = asg.owner_grid()
        assert np.count_nonzero(grid >= 0) == n

    def test_events_on_sparse_assignment(self):
        particles = get_distribution("uniform").sample(5, 4, rng=1)
        asg = partition_particles(particles, "gray", 64)
        nfi = nfi_events(asg, 1, "chebyshev").compact(64)
        ffi = ffi_histograms(asg, 64)
        assert nfi.num_processors == 64
        assert all(h.num_processors == 64 for h in ffi.values())
        assert ffi["interpolation"].num_events > 0  # interpolation chain always exists

    def test_owners_by_id_with_empty_ranks(self):
        particles = get_distribution("uniform").sample(3, 5, rng=4)
        owners = owners_by_id(particles, "rowmajor", 8)
        assert owners.shape == (3,)
        assert np.all((owners >= 0) & (owners < 8))
        # first n ranks get one particle each under balanced chunking
        assert sorted(owners.tolist()) == [0, 1, 2]
