"""Shared plumbing for communication-primitive event generators.

§VII of the paper argues the ACD metric generalises beyond the FMM: "the
ACD for most common types of parallel communication such as all-to-all
and broadcast can be computed in advance ... to allow algorithm
designers to select the appropriate SFCs for data separation and
processor ranking".  Each module in this package abstracts one classic
communication archetype into a :class:`~repro.fmm.events.CommunicationEvents`
multiset which :func:`repro.metrics.compute_acd` can evaluate on any
topology.

Primitives operate on a *participant list* — the ranks taking part, in
algorithmic order (e.g. the processors holding a quadrant's particles,
ordered by the processor-order SFC, as in the paper's far-field
log-tree).
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.util.sets import sorted_unique
from repro.util.validation import as_index_array

__all__ = ["as_participants"]


def as_participants(ranks) -> IntArray:
    """Validate and normalise a participant list (1D, non-negative, unique)."""
    arr = np.atleast_1d(as_index_array(ranks, "participants"))
    if arr.ndim != 1:
        raise ValueError("participants must be a 1D sequence of ranks")
    if arr.size and arr.min() < 0:
        raise ValueError("ranks must be non-negative")
    if sorted_unique(arr).size != arr.size:
        raise ValueError("participants must be distinct ranks")
    return arr
