"""The Average Communicated Distance (ACD) metric — Definition 1 of the paper.

    "Given a particular problem instance, the ACD is defined as the
    average distance for every pairwise communication made over the
    course of the entire application.  The communication distance
    between any two communicating processors is given by the length of
    the shortest path (measured in the number of hops) between the two
    processors along the network interconnect."

:func:`compute_acd` evaluates this for any
:class:`~repro.fmm.events.CommunicationEvents` against any
:class:`~repro.topology.Topology`, streaming over event chunks in
fixed-size blocks so the peak memory stays bounded by one block.  The model is
contention-unaware by construction (§IV step 6 note).

Both entry points also accept a pre-compacted
:class:`~repro.fmm.events.PairHistogram` in place of raw events.  A
histogram evaluation runs the topology's distance kernel over the
distinct rank pairs block by block, each block dotted in ``int64`` with its
weights — ``O(#pairs)`` time and bounded memory at any rank count — and,
because every sum stays in integer arithmetic, is bit-identical to
streaming over the events the histogram was compacted from.  A
symmetric histogram (the stored half ``U`` of ``U + Uᵀ``) is folded
once and its ``int64`` distance total doubled, which is exact because
every topology distance is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.topology.base import Topology

__all__ = ["ACDResult", "compute_acd", "acd_breakdown"]

#: Either form of an event multiset accepted by the ACD evaluators.
EventsLike = Union[CommunicationEvents, PairHistogram]

#: Rank pairs per distance-kernel call.  Evaluating in blocks
#: keeps the distance temporaries in cache and bounds the evaluation's
#: memory, whatever the number of pairs; the ``int64`` sums are exact,
#: so the result does not depend on the block size.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class ACDResult:
    """Aggregate of one ACD evaluation.

    Attributes
    ----------
    total_distance:
        Weighted sum of hop distances over all events (§IV's "output the
        sum"); with unit weights this is the plain hop-count sum.
    count:
        Total event weight (= number of events when unweighted).
    """

    total_distance: int
    count: int

    @property
    def acd(self) -> float:
        """The Average Communicated Distance (0.0 for an empty event set)."""
        return self.total_distance / self.count if self.count else 0.0

    def merged(self, other: "ACDResult") -> "ACDResult":
        """Pool two evaluations (same topology) into one aggregate."""
        return ACDResult(
            self.total_distance + other.total_distance, self.count + other.count
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ACDResult(acd={self.acd:.4f}, count={self.count})"


def _check_range(low: int, high: int, num_processors: int) -> None:
    """Reject a rank range reaching outside ``[0, num_processors)``."""
    if low < 0 or high >= num_processors:
        offender = high if high >= num_processors else low
        raise ValueError(
            f"events reference rank {offender} outside the "
            f"{num_processors}-processor rank space of the topology"
        )


def _check_ranks(src, dst, num_processors: int) -> None:
    """Reject ranks outside ``[0, num_processors)`` (cheap min/max scan)."""
    if not np.asarray(src).size:
        return
    low = min(int(np.min(src)), int(np.min(dst)))
    high = max(int(np.max(src)), int(np.max(dst)))
    _check_range(low, high, num_processors)


def _weighted_distance(src, dst, weights, topology: Topology) -> int:
    """``sum(weights * distance(src, dst))`` in exact ``int64``, block by block.

    ``weights=None`` counts every pair once.  Distances are evaluated in
    :data:`_BLOCK`-pair slices, so the kernel's temporaries stay
    cache-sized at any number of pairs.  The callers have checked every
    rank with :func:`_check_ranks`, so each block goes straight to the
    topology's validated kernel instead of :meth:`Topology.distance`,
    which would check its ranks again.
    """
    total = 0
    for lo in range(0, src.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        distances = topology._distance(src[block], dst[block]).astype(np.int64, copy=False)
        total += int(distances.sum() if weights is None else distances @ weights[block])
    return total


def _histogram_acd(histogram: PairHistogram, topology: Topology) -> ACDResult:
    """ACD of a compacted histogram: blocked distances + ``int64`` dot.

    A symmetric histogram's stored pairs are folded once and the total
    is doubled.  The histogram's rank range and total weight are cached
    on it, so evaluating one histogram on many networks scans its
    arrays for them once.
    """
    if histogram.num_processors > topology.num_processors:
        raise ValueError(
            f"histogram spans {histogram.num_processors} ranks but the "
            f"topology only has {topology.num_processors}"
        )
    _check_range(*histogram.rank_range, topology.num_processors)
    total = _weighted_distance(histogram.src, histogram.dst, histogram.weights, topology)
    if histogram.symmetric:
        total *= 2
    return ACDResult(total_distance=total, count=histogram.total_weight)


def compute_acd(events: EventsLike, topology: Topology) -> ACDResult:
    """Evaluate the ACD of an event multiset on a topology.

    Weighted events contribute ``weight * distance`` to the total and
    ``weight`` to the count, so the result is the average distance per
    unit of data volume; unweighted events behave as weight 1.

    ``events`` may be raw :class:`CommunicationEvents` (streamed chunk
    by chunk) or a :class:`PairHistogram` (distances of the distinct
    rank pairs dotted with their weights); the results are
    bit-identical.  A symmetric histogram counts as its ordered form
    ``U + Uᵀ``: the ``int64`` distance total over the stored pairs is
    doubled and the count is :attr:`PairHistogram.total_weight`, so the
    result equals that of the mirrored events.  Either form raises
    :class:`ValueError` when an event references a rank outside the
    topology.
    """
    if isinstance(events, PairHistogram):
        return _histogram_acd(events, topology)
    total = 0
    count = 0
    for src, dst, weights in events.iter_weighted_chunks():
        _check_ranks(src, dst, topology.num_processors)
        total += _weighted_distance(src, dst, weights, topology)
        count += int(src.size if weights is None else weights.sum())
    return ACDResult(total_distance=total, count=count)


def acd_breakdown(
    phases: Mapping[str, EventsLike], topology: Topology
) -> dict[str, ACDResult]:
    """Per-phase ACD plus a pooled ``"combined"`` entry.

    Used for the far-field model where interpolation, anterpolation and
    interaction-list traffic are reported separately and together (§IV
    step 10 sums over all three).  Each phase may be raw events or a
    :class:`PairHistogram`.  The phase name ``"combined"`` is reserved
    for that pooled entry; passing a phase with that name raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    overwriting it.
    """
    if "combined" in phases:
        raise ConfigurationError(
            'phase name "combined" is reserved for the pooled ACD entry; '
            "rename the phase before calling acd_breakdown"
        )
    out: dict[str, ACDResult] = {}
    combined = ACDResult(0, 0)
    for name, events in phases.items():
        result = compute_acd(events, topology)
        out[name] = result
        combined = combined.merged(result)
    out["combined"] = combined
    return out
