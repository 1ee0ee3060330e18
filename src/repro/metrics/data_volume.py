"""Data-movement cost model (Walker & Skjellum-style bytes moved).

Message-passing performance models in the MPI tradition charge a
message by the bytes it actually moves through the machine: the payload
crosses every link on its path, is copied out of the send buffer and
into the receive buffer at the endpoints, and a rank-local message
degenerates to a single memory copy.  With ``bytes_per_unit`` bytes per
unit of event weight this gives, over a pair histogram,

    V = bytes_per_unit * ( sum(w * d)          # link crossings
                           + 2 * sum(w | d>0)  # send + receive copies
                           + sum(w | d=0) )    # local memory copy

in exact integer bytes.  Because the histograms identify rank-local
traffic by ``src == dst`` (hop distance zero on every topology), the
local/remote split never consults the network; only the link-crossing
term does.
"""

from __future__ import annotations

from repro.fmm.events import PairHistogram
from repro.metrics.acd import compute_acd
from repro.metrics.base import CommunicationMetric, MetricValue
from repro.topology.base import Topology
from repro.util.validation import check_positive

__all__ = ["DataVolumeMetric", "DEFAULT_BYTES_PER_UNIT"]

#: Payload bytes represented by one unit of event weight (one FMM
#: interaction's worth of coefficients; overridable per instance).
DEFAULT_BYTES_PER_UNIT = 64


class DataVolumeMetric(CommunicationMetric):
    """Total bytes moved: per-hop payload plus endpoint buffer copies."""

    name = "data_volume"
    #: Link crossings and buffer copies depend on each pair's distance,
    #: weight and ``src == dst`` test only.
    transpose_invariant = True

    def __init__(self, bytes_per_unit: int = DEFAULT_BYTES_PER_UNIT):
        self.bytes_per_unit = check_positive(bytes_per_unit, "bytes_per_unit")

    def fold(self, histogram: PairHistogram, topology: Topology) -> MetricValue:
        acd = compute_acd(histogram, topology)
        local = (
            int(histogram.weights[histogram.src == histogram.dst].sum())
            if histogram.num_pairs
            else 0
        )
        if histogram.symmetric:
            local *= 2
        remote = acd.count - local
        return MetricValue(
            total=self.bytes_per_unit * (acd.total_distance + 2 * remote + local),
            count=acd.count,
        )
