"""Registry of the study's evaluation metrics (objectives).

Mirrors :mod:`repro.sfc.registry` and :mod:`repro.topology.registry`:
every pluggable objective registers here under a canonical name, the
experiment harness and the ``/recommend`` service validate objective
names against it, and :func:`get_metric` is the uniform factory.

``"acd"`` — the paper's Average Communicated Distance — is registered
like any other metric, so the historical behaviour is simply the
default objective rather than a special case.
"""

from __future__ import annotations

from repro.metrics.acd import compute_acd
from repro.metrics.base import CommunicationMetric, Metric, MetricValue
from repro.metrics.data_volume import DataVolumeMetric
from repro.metrics.energy import EnergyMetric
from repro.metrics.surface_volume import SurfaceVolumeMetric
from repro.util.registry import Registry

__all__ = [
    "METRICS",
    "AcdMetric",
    "get_metric",
    "list_metrics",
    "metric_names",
]


class AcdMetric(CommunicationMetric):
    """The paper's ACD, exposed through the common metric protocol."""

    name = "acd"
    transpose_invariant = True

    def fold(self, histogram, topology) -> MetricValue:
        result = compute_acd(histogram, topology)
        return MetricValue(total=result.total_distance, count=result.count)


METRICS: Registry[Metric] = Registry("metric")
METRICS.register("acd", AcdMetric, aliases=("average communicated distance",))
METRICS.register("energy", EnergyMetric)
METRICS.register("data_volume", DataVolumeMetric, aliases=("bytes",))
METRICS.register(
    "surface_to_volume", SurfaceVolumeMetric, aliases=("surface volume",)
)


def get_metric(name: str) -> Metric:
    """Instantiate the metric registered under ``name`` (with defaults)."""
    return METRICS.create(name)


def list_metrics() -> tuple[str, ...]:
    """Canonical names of all registered metrics, in registration order."""
    return METRICS.names()


def metric_names() -> tuple[str, ...]:
    """Alias of :func:`list_metrics`, matching the other registries."""
    return METRICS.names()
