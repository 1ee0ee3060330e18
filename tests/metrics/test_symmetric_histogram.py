"""Symmetric pair histograms: the stored half ``U`` counted as ``U + Uᵀ``.

Every transpose-invariant metric must give the same integer aggregate on
a symmetric histogram as on the full ordered histogram it stands for;
any other metric must refuse it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.application import ApplicationModel
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.acd import compute_acd
from repro.metrics.base import CommunicationMetric, MetricValue
from repro.metrics.registry import get_metric
from repro.topology.registry import make_topology, topology_names

P = 64  # valid for every registered topology
TRANSPOSE_INVARIANT = ("acd", "energy", "data_volume")


def _half_and_full(seed: int, weighted: bool) -> tuple[PairHistogram, PairHistogram]:
    """A random half relation (with self pairs) and its mirrored full form."""
    rng = np.random.default_rng(seed)
    half = CommunicationEvents()
    full = CommunicationEvents()
    for _ in range(3):
        n = int(rng.integers(50, 400))
        src = rng.integers(0, P, n)
        dst = np.where(rng.random(n) < 0.2, src, rng.integers(0, P, n))
        weights = rng.integers(1, 9, n) if weighted else None
        half.add(src, dst, weights)
        full.add(src, dst, weights)
        full.add(dst, src, weights)
    return half.compact(P, symmetric=True), full.compact(P)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_symmetric_histogram_reports_ordered_counts(weighted):
    sym, full = _half_and_full(1, weighted)
    assert sym.symmetric and not full.symmetric
    assert sym.num_events == full.num_events
    assert sym.total_weight == full.total_weight
    assert sym.num_pairs < full.num_pairs


@pytest.mark.parametrize("name", topology_names())
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_transpose_invariant_metrics_agree_with_full_histogram(name, weighted):
    topo = make_topology(name, P, processor_curve="hilbert")
    sym, full = _half_and_full(sum(map(ord, name)) + int(weighted), weighted)
    assert compute_acd(sym, topo) == compute_acd(full, topo)
    for metric in TRANSPOSE_INVARIANT:
        engine = get_metric(metric)
        assert engine.transpose_invariant
        assert engine.evaluate(sym, topo) == engine.evaluate(full, topo), metric


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_symmetric_compaction_ignores_event_direction(weighted):
    rng = np.random.default_rng(21)
    src, dst = rng.integers(0, P, 500), rng.integers(0, P, 500)
    weights = rng.integers(1, 5, 500) if weighted else None
    flip = rng.random(500) < 0.5
    events, flipped = CommunicationEvents(), CommunicationEvents()
    events.add(src, dst, weights)
    flipped.add(np.where(flip, dst, src), np.where(flip, src, dst), weights)
    a, b = events.compact(P, symmetric=True), flipped.compact(P, symmetric=True)
    assert np.all(a.src <= a.dst)  # stored upper-triangular
    for field in ("src", "dst", "weights"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.num_events == b.num_events == 1000


def test_transposed_symmetric_histogram_stays_symmetric():
    sym, _ = _half_and_full(3, weighted=True)
    flipped = sym.transposed()
    assert flipped.symmetric
    assert flipped.num_events == sym.num_events
    keys = flipped.flat_keys()
    assert np.all(np.diff(keys) > 0)
    topo = make_topology("hypercube", P)
    assert compute_acd(flipped, topo) == compute_acd(sym, topo)


def test_exact_weight_guard_applies_to_the_doubled_total():
    events = CommunicationEvents()
    events.add([0, 1], [1, 2], [1 << 51, 1 << 51])  # 2**52 stored, 2**53 ordered
    assert events.compact(4).total_weight == 1 << 52
    with pytest.raises(ValueError, match="2\\*\\*53"):
        events.compact(4, symmetric=True)


class _SourceRankCost(CommunicationMetric):
    """A direction-dependent cost: weight times the sending rank."""

    name = "source_rank_cost"

    def fold(self, histogram, topology) -> MetricValue:
        return MetricValue(int(histogram.src @ histogram.weights), histogram.total_weight)


def test_metric_without_declaration_refuses_symmetric_histogram():
    topo = make_topology("ring", P)
    sym, full = _half_and_full(9, weighted=False)
    metric = _SourceRankCost()
    assert not metric.transpose_invariant
    assert metric.evaluate(full, topo).count == full.total_weight
    with pytest.raises(ValueError, match="transpose-invariant"):
        metric.evaluate(sym, topo)


@pytest.mark.parametrize("objective", TRANSPOSE_INVARIANT)
def test_application_model_accepts_symmetric_histogram(objective):
    topo = make_topology("mesh", P, processor_curve="hilbert")
    sym, full = _half_and_full(13, weighted=True)
    reports = []
    for hist in (sym, full):
        app = ApplicationModel("far field")
        app.add_phase("interaction", hist, repeats=3)
        reports.append(app.evaluate(topo, objective=objective))
    assert reports[0].phases == reports[1].phases
    assert reports[0].cost_per_timestep == reports[1].cost_per_timestep
