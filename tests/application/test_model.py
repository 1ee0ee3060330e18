"""Tests for the composable application model (§VII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.application import ApplicationModel, ApplicationPhase, recommend_configuration
from repro.fmm import CommunicationEvents
from repro.primitives import allreduce, broadcast
from repro.topology import make_topology


def events_of(pairs):
    ev = CommunicationEvents()
    arr = np.asarray(pairs).reshape(-1, 2)
    ev.add(arr[:, 0], arr[:, 1])
    return ev


@pytest.fixture
def model():
    app = ApplicationModel("solver")
    app.add_phase("halo", events_of([(0, 1), (1, 2), (2, 3)]), repeats=4)
    app.add_phase("allreduce", lambda topo: allreduce(np.arange(topo.num_processors)))
    return app


class TestApplicationModel:
    def test_phase_names(self, model):
        assert model.phase_names == ("halo", "allreduce")

    def test_evaluate_reports_each_phase(self, model):
        report = model.evaluate(make_topology("ring", 16))
        assert set(report.phases) == {"halo", "allreduce"}
        assert report.phases["halo"].count == 3
        assert report.repeats["halo"] == 4

    def test_total_weights_by_repeats(self, model):
        ring = make_topology("ring", 16)
        report = model.evaluate(ring)
        halo, ar = report.phases["halo"], report.phases["allreduce"]
        assert report.total.total_distance == 4 * halo.total_distance + ar.total_distance
        assert report.total.count == 4 * halo.count + ar.count

    def test_factory_phase_adapts_to_topology(self, model):
        small = model.evaluate(make_topology("ring", 8))
        big = model.evaluate(make_topology("ring", 32))
        assert big.phases["allreduce"].count > small.phases["allreduce"].count

    def test_duplicate_phase_rejected(self, model):
        with pytest.raises(ValueError, match="already registered"):
            model.add_phase("halo", events_of([(0, 1)]))

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            ApplicationModel().add_phase("x", events_of([(0, 1)]), repeats=0)
        with pytest.raises(ValueError):
            ApplicationPhase("x", events_of([(0, 1)]), repeats=0)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="no phases"):
            ApplicationModel().evaluate(make_topology("ring", 4))

    def test_chaining(self):
        app = ApplicationModel().add_phase("a", events_of([(0, 1)])).add_phase(
            "b", events_of([(1, 0)])
        )
        assert app.phase_names == ("a", "b")


class TestRecommendation:
    def test_ranks_by_total_cost(self):
        app = ApplicationModel("bcast-heavy")
        app.add_phase("bcast", lambda t: broadcast(np.arange(t.num_processors)), repeats=8)
        candidates = {
            "hypercube": make_topology("hypercube", 64),
            "bus": make_topology("bus", 64),
            "torus/hilbert": make_topology("torus", 64, processor_curve="hilbert"),
        }
        ranked = recommend_configuration(app, candidates)
        labels = [label for label, _ in ranked]
        costs = [r.total_distance_per_timestep for _, r in ranked]
        assert costs == sorted(costs)
        assert labels[0] == "hypercube"  # log-tree broadcast loves the cube
        assert labels[-1] == "bus"

    def test_empty_candidates_rejected(self):
        app = ApplicationModel().add_phase("x", events_of([(0, 1)]))
        with pytest.raises(ValueError, match="candidate"):
            recommend_configuration(app, {})

    def test_empty_generator_fails_before_evaluating(self):
        evaluated = []

        def tracked(topo):
            evaluated.append(topo)
            return events_of([(0, 1)])

        app = ApplicationModel().add_phase("x", tracked)
        with pytest.raises(ValueError, match="candidate"):
            recommend_configuration(app, (pair for pair in ()))
        assert evaluated == []  # validation must precede any evaluation


class TestObjectives:
    def _model(self, events):
        return ApplicationModel("halo").add_phase("halo", events, repeats=3)

    def test_energy_objective_evaluates_each_phase(self):
        app = self._model(events_of([(0, 1), (1, 2), (0, 2)]))
        report = app.evaluate(make_topology("ring", 8), objective="energy")
        assert report.objective == "energy"
        # hop_cost=3, message_cost=5; ring distances 1, 1, 2
        assert report.phases["halo"].total == 3 * (1 + 1 + 2) + 5 * 3

    def test_partition_objective_rejected(self):
        app = self._model(events_of([(0, 1)]))
        with pytest.raises(ValueError, match="partition"):
            app.evaluate(make_topology("ring", 8), objective="surface_to_volume")

    def test_unknown_objective_rejected(self):
        app = self._model(events_of([(0, 1)]))
        with pytest.raises(KeyError, match="energy"):
            app.evaluate(make_topology("ring", 8), objective="nope")

    @pytest.mark.parametrize("objective", ["acd", "energy", "data_volume"])
    def test_precompacted_histogram_phase(self, objective):
        """A phase registered as a PairHistogram must evaluate like raw events."""
        raw = events_of([(0, 1), (1, 2), (0, 2)])
        compacted = events_of([(0, 1), (1, 2), (0, 2)]).compact(8)
        topo = make_topology("ring", 8)
        from_raw = self._model(raw).evaluate(topo, objective=objective)
        from_hist = self._model(compacted).evaluate(topo, objective=objective)

        def totals(report):
            phase = report.phases["halo"]
            total = phase.total_distance if objective == "acd" else phase.total
            return total, phase.count

        assert totals(from_raw) == totals(from_hist)

    def test_recommend_with_energy_objective(self):
        app = self._model(events_of([(i, i + 1) for i in range(7)]))
        candidates = {
            "ring": make_topology("ring", 8),
            "bus": make_topology("bus", 8),
        }
        ranked = recommend_configuration(app, candidates, objective="energy")
        labels = [label for label, _ in ranked]
        assert set(labels) == {"ring", "bus"}
        totals = [r.total.total for _, r in ranked]
        assert totals == sorted(totals)
