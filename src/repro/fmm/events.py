"""Communication-event containers.

A :class:`CommunicationEvents` instance is a multiset of point-to-point
communications — ``(source rank, destination rank)`` pairs — produced by
a model (FMM near/far field, a collective primitive, ...).  Events are
stored as a list of array chunks so million-event models never pay for a
monolithic reallocation, and metric evaluation can stream chunk by
chunk.

Events may optionally carry integer *weights* (message sizes in
arbitrary volume units); a weighted event counts ``w`` times toward the
ACD, which turns the metric into "average distance per unit of data
moved" — the data-volume refinement §VIII lists as future work.
Unweighted chunks behave as weight 1 throughout.

:meth:`CommunicationEvents.compact` collapses the multiset into a
:class:`PairHistogram` — the aggregated weight of every distinct
``(src, dst)`` rank pair — with one sort of the flattened pair keys,
whatever the rank space.  The histogram determines every metric that
only looks at endpoints (the ACD in particular) and is bounded by
``p**2`` entries regardless of how many million events produced it,
which makes it the natural artifact to cache and share when the same
event stream is evaluated against many networks.

A symmetric relation — the FMM interaction lists, where ``a`` talks to
``b`` exactly when ``b`` talks to ``a`` — needs only half of it stored:
``compact(p, symmetric=True)`` turns one half ``E`` of the multiset into
the upper-triangular histogram ``U`` with ``U + Uᵀ`` equal to the
histogram of ``E + Eᵀ``.  Endpoint-only metrics whose fold is
transpose-invariant then count each stored pair twice instead of
mirroring it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._typing import IntArray
from repro.util.sets import run_starts
from repro.util.validation import as_index_array

__all__ = ["CommunicationEvents", "PairHistogram"]

#: Exclusive bound on the total weight ``compact`` accepts.  Weights are
#: summed in int64; the bound keeps every histogram weight and total
#: exactly representable as float64 too.
_EXACT_WEIGHT_LIMIT = 1 << 53

#: Events per temporary when ``compact`` orients symmetric keys.
_KEY_BLOCK = 1 << 16


@dataclass(frozen=True)
class PairHistogram:
    """Aggregated event weight per distinct ``(src, dst)`` rank pair.

    Entries are sorted by the flattened key ``src * p + dst`` and carry
    strictly positive integer weights, so two histograms built from the
    same multiset — in any chunk order — are bit-identical.  All ACD
    arithmetic on a histogram stays in integers, which keeps it exactly
    equivalent to streaming over the raw events.

    A ``symmetric`` histogram stores one half ``U`` of a symmetric
    multiset and stands for the ordered histogram ``U + Uᵀ``: every
    stored pair counts once as ``(src, dst)`` and once as
    ``(dst, src)``, and an ``src == dst`` entry counts twice.  It is
    never mirrored into full form; its consumers fold the stored pairs
    and double the result, which only a transpose-invariant fold may do
    (see :class:`~repro.metrics.base.CommunicationMetric`).
    :meth:`CommunicationEvents.compact` stores it upper-triangular
    (``src <= dst``): the one such ``U`` with that sum.

    Attributes
    ----------
    src, dst:
        The distinct communicating rank pairs (``int64``, equal length).
    weights:
        Total event weight per pair (``int64``, all ``> 0``).
    num_processors:
        The rank space ``p`` the pairs live in (flattening base).
    num_events:
        Number of ordered events the histogram stands for (twice the
        compacted events when ``symmetric``).
    symmetric:
        Whether the ordered histogram is ``U + Uᵀ`` of the stored ``U``.
    """

    src: IntArray
    dst: IntArray
    weights: IntArray
    num_processors: int
    num_events: int
    symmetric: bool = False

    @property
    def total_weight(self) -> int:
        """Ordered event weight (= ordered event count when unweighted).

        A symmetric histogram reports twice its stored weight.
        """
        stored = int(self.weights.sum()) if self.weights.size else 0
        return 2 * stored if self.symmetric else stored

    @property
    def num_pairs(self) -> int:
        """Number of distinct communicating rank pairs."""
        return int(self.src.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the three entry arrays."""
        return int(self.src.nbytes + self.dst.nbytes + self.weights.nbytes)

    def flat_keys(self) -> IntArray:
        """The flattened ``src * p + dst`` keys (row-major ``p x p`` index)."""
        return self.src * self.num_processors + self.dst

    def transposed(self) -> "PairHistogram":
        """The histogram of every event reversed: pairs swapped, re-sorted.

        Equal to compacting the reversed events, without sorting the
        events again: the distinct pairs are already aggregated, so only
        they are re-sorted by their swapped keys.
        """
        order = np.argsort(self.dst * self.num_processors + self.src)
        return PairHistogram(
            self.dst[order],
            self.src[order],
            self.weights[order],
            self.num_processors,
            self.num_events,
            self.symmetric,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = ", symmetric" if self.symmetric else ""
        return (
            f"PairHistogram(pairs={self.num_pairs}, events={self.num_events}, "
            f"p={self.num_processors}{kind})"
        )


class CommunicationEvents:
    """A multiset of point-to-point communications between ranks.

    Parameters
    ----------
    component:
        Optional label naming which phase of an algorithm produced these
        events (e.g. ``"interpolation"``).
    """

    def __init__(self, component: str = ""):
        self.component = component
        self._chunks: list[tuple[IntArray, IntArray, IntArray | None]] = []
        self._count = 0
        self._weight = 0

    # ------------------------------------------------------------------
    def add(self, src, dst, weights=None) -> None:
        """Append a chunk of events (equal-length rank arrays or scalars).

        ``weights`` optionally assigns a non-negative integer volume to
        each event; omitted weights count as 1.
        """
        s = np.atleast_1d(as_index_array(src, "src"))
        d = np.atleast_1d(as_index_array(dst, "dst"))
        if s.shape != d.shape or s.ndim != 1:
            raise ValueError(
                f"src and dst must be equal-length 1D arrays, got {s.shape} vs {d.shape}"
            )
        w: IntArray | None = None
        if weights is not None:
            w = np.atleast_1d(as_index_array(weights, "weights"))
            if w.shape != s.shape:
                raise ValueError(
                    f"weights must match src length, got {w.shape} vs {s.shape}"
                )
            if w.size and w.min() < 0:
                raise ValueError("weights must be non-negative")
        if s.size:
            self._chunks.append((s, d, w))
            self._count += int(s.size)
            self._weight += int(w.sum()) if w is not None else int(s.size)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def total_weight(self) -> int:
        """Sum of event weights (equals ``len(self)`` when unweighted)."""
        return self._weight

    def iter_chunks(self) -> Iterator[tuple[IntArray, IntArray]]:
        """Yield the stored ``(src, dst)`` chunks without copying."""
        for s, d, _ in self._chunks:
            yield s, d

    def iter_weighted_chunks(self) -> Iterator[tuple[IntArray, IntArray, IntArray | None]]:
        """Yield ``(src, dst, weights_or_None)`` chunks without copying."""
        yield from self._chunks

    def pairs(self) -> tuple[IntArray, IntArray]:
        """Concatenate all chunks into two flat arrays (copies)."""
        if not self._chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        src = np.concatenate([s for s, _, _ in self._chunks])
        dst = np.concatenate([d for _, d, _ in self._chunks])
        return src, dst

    def reversed(self) -> "CommunicationEvents":
        """A new container with every event's direction flipped.

        The anterpolation phase of the FMM is exactly the interpolation
        phase reversed (§IV step 7), so this is cheap by construction.
        """
        out = CommunicationEvents(component=self.component)
        for s, d, w in self._chunks:
            out.add(d, s, w)
        return out

    def compact(
        self, num_processors: int | None = None, *, symmetric: bool = False
    ) -> PairHistogram:
        """Collapse the multiset into a :class:`PairHistogram`.

        Parameters
        ----------
        num_processors:
            The rank space ``p``; defaults to ``max_rank() + 1``.  Every
            referenced rank must satisfy ``0 <= rank < p``; otherwise
            :class:`ValueError` names an out-of-range rank.
        symmetric:
            The events are one half ``E`` of a symmetric multiset
            ``E + Eᵀ``; the result is the symmetric histogram of
            ``E + Eᵀ``: each event is stored as ``(min, max)`` of its
            ranks and counts twice.

        The flattened ``src * p + dst`` keys of all chunks are sorted
        once; each run of equal keys is one pair, weighted by its run
        length (unweighted events) or by the int64 sum of its weights.
        The result is independent of chunk boundaries and chunk order
        and, for ``symmetric``, of each event's direction.

        Raises :class:`ValueError` when the total event weight — the
        doubled total for a symmetric histogram — reaches ``2**53``.
        """
        top = self.max_rank()
        low = min((int(min(s.min(), d.min())) for s, d, _ in self._chunks), default=0)
        p = top + 1 if num_processors is None else int(num_processors)
        if p < 1:
            p = 1
        if low < 0 or top >= p:
            raise ValueError(
                f"events reference rank {low if low < 0 else top} outside the "
                f"{p}-processor rank space"
            )
        copies = 2 if symmetric else 1
        empty = np.empty(0, dtype=np.int64)
        if not self._chunks:
            return PairHistogram(empty, empty.copy(), empty.copy(), p, 0, symmetric)
        keys = np.empty(self._count, dtype=np.int64)
        lo = 0
        for s, d, _ in self._chunks:
            part = keys[lo : lo + s.size]
            np.multiply(s, p, out=part)
            part += d
            if symmetric:
                # The (min, max) key is min(s*p + d, d*p + s) because p
                # exceeds every rank; blocks keep the temporary small.
                for b in range(0, s.size, _KEY_BLOCK):
                    block = slice(b, b + _KEY_BLOCK)
                    np.minimum(part[block], d[block] * p + s[block], out=part[block])
            lo += s.size
        if all(w is None for _, _, w in self._chunks):
            keys.sort()
            starts = run_starts(keys)
            agg = np.diff(starts, append=keys.size)
        else:
            if copies * self._weight >= _EXACT_WEIGHT_LIMIT:
                raise ValueError(
                    f"total event weight {copies * self._weight} reaches 2**53; compact "
                    "keeps weights exact in float64, which holds only below 2**53"
                )
            weights = np.concatenate(
                [w if w is not None else np.ones(s.size, np.int64) for s, _, w in self._chunks]
            )
            order = np.argsort(keys)
            keys, weights = keys[order], weights[order]
            starts = run_starts(keys)
            agg = np.add.reduceat(weights, starts)
            keep = agg > 0  # zero-weight events contribute no histogram mass
            starts, agg = starts[keep], agg[keep]
        src, dst = np.divmod(keys[starts], p)
        return PairHistogram(src, dst, agg, p, copies * self._count, symmetric)

    def max_rank(self) -> int:
        """Largest rank referenced by any event (-1 when empty)."""
        best = -1
        for s, d, _ in self._chunks:
            best = max(best, int(s.max()), int(d.max()))
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" component={self.component!r}" if self.component else ""
        return f"CommunicationEvents(n={self._count}{label})"
