"""Metric protocol: pluggable objectives over the shared substrates.

The paper scores every curve/topology pairing through one objective —
the ACD.  Related work derives a family of sibling cost models from the
very same inputs: Reissmann et al. attach per-hop and per-message
*energy* terms to the communication pattern, Walker & Skjellum count
*bytes moved*, and Gadouleau & Weinzierl score the *partition quality*
of SFC chunkings.  This module defines the small protocol that lets all
of them plug into the experiment harness (studies, store, ``/recommend``
objectives) uniformly:

* :class:`MetricValue` — the ``(total, count)`` integer aggregate every
  evaluation produces.  Totals are exact integers so pooling across
  trials, processes and store round trips is bit-identical.
* :class:`CommunicationMetric` — evaluates a
  :class:`~repro.fmm.events.PairHistogram` against a topology (the ACD
  substrate: one gather over the distinct rank pairs).  A metric whose
  fold gives the same value on a histogram and on its transpose
  declares so, and only such a metric accepts a symmetric histogram
  (the stored half of ``U + Uᵀ``).
* :class:`PartitionMetric` — evaluates a contiguous SFC chunking of the
  full curve lattice, with no topology involved.

Concrete metrics register in :mod:`repro.metrics.registry`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

from repro.fmm.events import PairHistogram
from repro.topology.base import Topology

__all__ = ["MetricValue", "Metric", "CommunicationMetric", "PartitionMetric"]


@dataclass(frozen=True)
class MetricValue:
    """Integer aggregate of one metric evaluation.

    ``total`` is the metric's summed cost (hop-weighted distance, energy
    units, bytes, ...) and ``count`` the event weight it covers; the
    ``mean`` is cost per unit of communication.  Mirrors
    :class:`~repro.metrics.acd.ACDResult` so pooling semantics carry
    over unchanged.
    """

    total: int
    count: int

    @property
    def mean(self) -> float:
        """Cost per unit of event weight (0.0 for an empty evaluation)."""
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "MetricValue") -> "MetricValue":
        """Pool two evaluations of the same metric into one aggregate."""
        return MetricValue(self.total + other.total, self.count + other.count)

    def scaled(self, repetitions: int) -> "MetricValue":
        """The aggregate of ``repetitions`` identical evaluations."""
        return MetricValue(self.total * repetitions, self.count * repetitions)


class Metric(abc.ABC):
    """A registered objective; concrete kinds define the evaluate shape."""

    #: Registry name of the metric (e.g. ``"energy"``); set by subclasses.
    name: str = ""
    #: ``"communication"`` (histogram x topology) or ``"partition"``
    #: (SFC chunking quality); selects which study/service inputs apply.
    kind: str = ""


class CommunicationMetric(Metric):
    """A metric of a communication pattern evaluated on a network."""

    kind = "communication"

    #: Whether :meth:`fold` gives the same value on a histogram and on
    #: its transpose, and folds a symmetric histogram as its ordered
    #: form ``U + Uᵀ``.  A property of the cost model, declared by the
    #: class; metrics that do not declare it refuse symmetric histograms.
    transpose_invariant: ClassVar[bool] = False

    def evaluate(self, histogram: PairHistogram, topology: Topology) -> MetricValue:
        """Score one compacted event histogram on one concrete network.

        Raises :class:`ValueError` for a symmetric histogram unless the
        metric declares :attr:`transpose_invariant`.
        """
        if histogram.symmetric and not self.transpose_invariant:
            raise ValueError(
                f"metric {self.name or type(self).__name__!r} does not declare a "
                "transpose-invariant fold, so it cannot evaluate a symmetric "
                "histogram (the stored half of U + U^T)"
            )
        return self.fold(histogram, topology)

    @abc.abstractmethod
    def fold(self, histogram: PairHistogram, topology: Topology) -> MetricValue:
        """The metric's value on one histogram (called by :meth:`evaluate`).

        Implementations must stay in integer arithmetic (bit-identical
        across chunkings, tilings and store round trips) and must not
        depend on any state outside ``(histogram, topology)``.  A
        transpose-invariant fold must count a symmetric histogram's
        stored pairs twice.
        """


class PartitionMetric(Metric):
    """A metric of the contiguous chunking an SFC induces on its lattice."""

    kind = "partition"

    @abc.abstractmethod
    def evaluate(self, curve: str, order: int, num_processors: int) -> dict:
        """Score the ``p``-way contiguous chunking of the full curve.

        Returns a JSON-native mapping (ints and floats only) so results
        persist through the store unchanged.
        """
