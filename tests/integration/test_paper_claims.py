"""End-to-end assertions of the paper's qualitative findings.

Each test reproduces one claim from §V/§VI at a reduced scale and checks
the *shape* of the result (who wins, rough ordering) rather than the
absolute numbers.  The scale keeps the paper's two governing ratios:
lattice occupancy ~6-15% and particles-per-processor ~8-15 (Tables I/II
use n/p = 3.8, Fig. 6/7 sweep similar regimes); several orderings flip
outside that regime, as EXPERIMENTS.md discusses.
"""

from __future__ import annotations

import pytest

from repro.distributions import get_distribution
from repro.experiments import Scale, StudyContext, run_study
from repro.fmm import FmmCommunicationModel, ffi_histograms
from repro.metrics import acd_breakdown, anns
from repro.partition import partition_particles
from repro.topology import QuadtreeTopology, make_topology

CLAIM_SCALE = Scale(
    name="claims",
    pairs_particles=2_000,
    pairs_order=7,  # 128 x 128, 12% occupancy, n/p = 8
    pairs_processors=256,
    topo_particles=15_000,
    topo_order=9,  # 512 x 512, 6% occupancy, n/p = 15
    topo_processors=1_024,
    topo_radius=4,
    scaling_particles=8_000,
    scaling_order=7,
    scaling_processors=(16, 256),
    anns_orders=(1, 2, 3),
    trials=2,
)

RECURSIVE = ("hilbert", "zcurve", "gray")
PLOTTED = ("mesh", "torus", "quadtree", "hypercube")  # Fig. 6's bars


@pytest.fixture(scope="module")
def pairs_result():
    return run_study("tables", StudyContext(scale=CLAIM_SCALE, seed=7, trials=2))


@pytest.fixture(scope="module")
def topo_result():
    return run_study("fig6", StudyContext(scale=CLAIM_SCALE, seed=7, trials=2))


class TestTableIClaims:
    def test_hilbert_processor_order_wins_every_column(self, pairs_result):
        """Table I: 'the results are unanimously in favor of the Hilbert
        ordering for every particle distribution' (processor-order)."""
        for dist in pairs_result.distributions:
            for part in pairs_result.particle_curves:
                column = {
                    proc: pairs_result.nfi[dist][proc][part]
                    for proc in pairs_result.processor_curves
                }
                assert min(column, key=column.get) == "hilbert", (dist, part)

    def test_recursive_curves_beat_rowmajor_on_diagonal(self, pairs_result):
        """'{Hilbert ~ Z} < Gray << Row-major'."""
        for dist in pairs_result.distributions:
            diag = {c: pairs_result.nfi[dist][c][c] for c in pairs_result.particle_curves}
            for curve in RECURSIVE:
                assert diag[curve] < diag["rowmajor"], (dist, curve)

    def test_rowmajor_particles_worst_in_every_row(self, pairs_result):
        """Within each processor ordering, row-major particle ordering
        gives the highest NFI ACD (the boldface never lands there)."""
        for dist in pairs_result.distributions:
            for proc in pairs_result.processor_curves:
                row = pairs_result.nfi[dist][proc]
                assert max(row, key=row.get) == "rowmajor", (dist, proc)

    def test_rowmajor_rowmajor_is_worst_diagonal(self, pairs_result):
        for dist in pairs_result.distributions:
            diag = {c: pairs_result.nfi[dist][c][c] for c in pairs_result.particle_curves}
            assert max(diag, key=diag.get) == "rowmajor", dist

    def test_normal_distribution_hurts_recursive_curves(self, pairs_result):
        """Central clustering hits the quadrant seams: the Hilbert NFI
        ACD roughly doubles from uniform to normal (§VI-A)."""
        uni = pairs_result.nfi["uniform"]["hilbert"]["hilbert"]
        norm = pairs_result.nfi["normal"]["hilbert"]["hilbert"]
        assert norm > 1.3 * uni


class TestTableIIClaims:
    def test_hilbert_processor_order_wins_ffi_with_hilbert_particles(self, pairs_result):
        for dist in pairs_result.distributions:
            column = {
                proc: pairs_result.ffi[dist][proc]["hilbert"]
                for proc in pairs_result.processor_curves
            }
            assert min(column, key=column.get) == "hilbert", dist

    def test_rowmajor_processor_order_clearly_worse_than_hilbert(self, pairs_result):
        """Table II's row-major row sits far above the Hilbert row; at a
        reduced scale the gap shrinks but never closes."""
        for dist in pairs_result.distributions:
            row_means = {
                proc: sum(pairs_result.ffi[dist][proc].values())
                for proc in pairs_result.processor_curves
            }
            assert row_means["rowmajor"] > 1.05 * row_means["hilbert"], dist


class TestFig6Claims:
    def test_hypercube_best_or_near_best_nfi(self, topo_result):
        """'for the near-field interactions, the hypercube gave the best
        results' — exact for Z/Gray; for Hilbert the hypercube stays
        within a whisker of the mesh/torus at this scale."""
        for curve in ("zcurve", "gray"):
            plotted = {t: topo_result.nfi[t][curve] for t in PLOTTED}
            assert min(plotted, key=plotted.get) == "hypercube", curve
        hil = {t: topo_result.nfi[t]["hilbert"] for t in PLOTTED}
        assert hil["hypercube"] <= 1.3 * min(hil.values())

    def test_ffi_quadtree_ranking_depends_on_hop_convention(self, topo_result):
        """The paper reports the quadtree 'slightly smaller than even the
        hypercube' for FFI.  Under the literal up-and-down hop counting a
        switch tree charges >= 2 hops for any off-processor message and
        cannot win; under the one-hop-per-level convention the quadtree
        does come out ahead, matching the paper's ranking."""
        for curve in ("hilbert", "zcurve"):
            plotted = {t: topo_result.ffi[t][curve] for t in PLOTTED}
            assert min(plotted, key=plotted.get) == "hypercube", curve
            # halving = switching the quadtree to the "levels" convention
            assert plotted["quadtree"] / 2 < plotted["hypercube"], curve

    def test_bus_and_ring_off_scale(self, topo_result):
        """'the performance of the bus and ring topologies was
        significantly worse' (recursive curves; the paper's plot drops
        the NFI row-major entries entirely)."""
        for curve in RECURSIVE:
            grid_best = min(topo_result.nfi[t][curve] for t in ("mesh", "torus"))
            assert topo_result.nfi["bus"][curve] > 2 * grid_best
            assert topo_result.nfi["ring"][curve] > 2 * grid_best

    def test_mesh_torus_comparable_for_recursive_curves(self, topo_result):
        """'the results from the mesh and torus topologies are highly
        comparable' for Hilbert/Z/Gray, but row-major gains from wrap."""
        for curve in RECURSIVE:
            mesh, torus = topo_result.nfi["mesh"][curve], topo_result.nfi["torus"][curve]
            assert mesh <= 1.25 * torus
        rm_mesh = topo_result.ffi["mesh"]["rowmajor"]
        rm_torus = topo_result.ffi["torus"]["rowmajor"]
        assert rm_torus < rm_mesh

    def test_levels_convention_reverses_quadtree_hypercube(self):
        """Direct check of the convention sensitivity on one instance."""
        particles = get_distribution("uniform").sample(15_000, 9, rng=11)
        asg = partition_particles(particles, "hilbert", 1024)
        ffi = ffi_histograms(asg, 1024)
        updown = QuadtreeTopology(1024, "hilbert", hop_convention="updown")
        levels = QuadtreeTopology(1024, "hilbert", hop_convention="levels")
        cube = make_topology("hypercube", 1024)
        acd_updown = acd_breakdown(ffi, updown)["combined"].acd
        acd_levels = acd_breakdown(ffi, levels)["combined"].acd
        acd_cube = acd_breakdown(ffi, cube)["combined"].acd
        assert acd_levels == pytest.approx(acd_updown / 2)
        assert acd_levels < acd_cube < acd_updown


class TestAnnsClaims:
    def test_fig5_ordering(self):
        """Fig. 5: Z / row-major beat Hilbert / Gray, at every resolution."""
        for order in (4, 6, 8):
            vals = {c: anns(c, order) for c in ("hilbert", "zcurve", "gray", "rowmajor")}
            assert vals["zcurve"] < vals["hilbert"] < vals["gray"]
            assert vals["rowmajor"] < vals["hilbert"]


class TestDistributionEffects:
    def test_nfi_distribution_ordering(self):
        """§VI-C: NFI ACD best for uniform, then exponential, then normal."""
        net = make_topology("torus", 256, processor_curve="hilbert")
        model = FmmCommunicationModel(net, "hilbert")
        acds = {}
        for dist in ("uniform", "normal", "exponential"):
            vals = []
            for seed in (0, 1, 2):
                particles = get_distribution(dist).sample(8_000, 7, rng=seed)
                vals.append(model.evaluate(particles).nfi_acd)
            acds[dist] = sum(vals) / len(vals)
        assert acds["uniform"] < acds["exponential"] < acds["normal"]
