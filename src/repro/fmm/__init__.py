"""Fast Multipole Method communication model (near field + far field)."""

from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.fmm.ffi import ffi_histograms, interpolation_events
from repro.fmm.model import FmmCommunicationModel, FmmReport
from repro.fmm.nfi import nfi_events
from repro.fmm.quadrant_tree import arity_tree_edges, quadrant_tree_events
from repro.fmm.volume import weighted_ffi_events

__all__ = [
    "CommunicationEvents",
    "PairHistogram",
    "nfi_events",
    "ffi_histograms",
    "interpolation_events",
    "FmmCommunicationModel",
    "FmmReport",
    "quadrant_tree_events",
    "arity_tree_edges",
    "weighted_ffi_events",
]
