"""Tests for the cell-vs-processor FFI granularity option."""

from __future__ import annotations

import pytest

from repro.distributions import get_distribution
from repro.fmm import FmmCommunicationModel, ffi_histograms
from repro.partition import partition_particles
from repro.topology import make_topology


@pytest.fixture(scope="module")
def assignment():
    particles = get_distribution("uniform").sample(200, 4, rng=3)
    return partition_particles(particles, "hilbert", 8)


class TestGranularity:
    def test_processor_events_are_subset(self, assignment):
        cell = ffi_histograms(assignment, 8, granularity="cell")["interaction"]
        proc = ffi_histograms(assignment, 8, granularity="processor")["interaction"]
        stored = list(zip(cell.src.tolist(), cell.dst.tolist()))
        cell_pairs = set(stored) | {(d, s) for s, d in stored}  # U + U^T
        proc_pairs = set(zip(proc.src.tolist(), proc.dst.tolist()))
        assert proc_pairs <= cell_pairs

    def test_processor_has_fewer_or_equal_events(self, assignment):
        cell = ffi_histograms(assignment, 8, granularity="cell")
        proc = ffi_histograms(assignment, 8, granularity="processor")
        for phase in ("interaction", "interpolation"):
            assert proc[phase].num_events <= cell[phase].num_events

    def test_processor_dedup_is_per_level(self):
        """A pair appearing on two levels is kept once per level."""
        particles = get_distribution("uniform").sample(64, 3, rng=0)  # full 8x8
        asg = partition_particles(particles, "zcurve", 2)
        proc = ffi_histograms(asg, 2, granularity="processor")["interaction"]
        # with 2 processors only 4 ordered pairs exist per level, but two
        # levels (2 and 3) contribute, so duplicates across levels remain
        assert proc.num_events > proc.num_pairs

    def test_unknown_granularity_rejected(self, assignment):
        with pytest.raises(ValueError, match="granularity"):
            ffi_histograms(assignment, 8, granularity="quadrant")

    def test_model_forwards_granularity(self, assignment):
        net = make_topology("torus", 16, processor_curve="hilbert")
        model = FmmCommunicationModel(net, "hilbert", ffi_granularity="processor")
        particles = get_distribution("uniform").sample(200, 4, rng=3)
        report = model.evaluate(particles)
        cell_model = FmmCommunicationModel(net, "hilbert")
        cell_report = cell_model.evaluate(particles)
        assert report.ffi["combined"].count <= cell_report.ffi["combined"].count
