"""Abstract interface for processor-network topologies.

A topology hosts ``p`` processors identified by ranks ``0..p-1`` and
answers one question for the ACD metric (§I, Definition 1 of the paper):
*how many hops does the shortest path between two ranks take along the
network interconnect?*  The answer must be computable for millions of
rank pairs at once, so :meth:`Topology.distance` is a vectorised kernel.

Direct networks (bus, ring, mesh, torus, hypercube) additionally expose
their physical link set, which the contention extension
(:mod:`repro.contention`) consumes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro._typing import IntArray
from repro.util.validation import check_in_range, check_positive

__all__ = ["Topology", "DirectTopology"]


class Topology(abc.ABC):
    """A network of ``num_processors`` processors with a hop metric."""

    #: Registry name of the topology (e.g. ``"torus"``); set by subclasses.
    name: str = ""

    def __init__(self, num_processors: int):
        self._p = check_positive(num_processors, "num_processors")

    @property
    def num_processors(self) -> int:
        """Number of processors ``p`` hosted by the network."""
        return self._p

    @property
    @abc.abstractmethod
    def diameter(self) -> int:
        """Maximum hop distance between any two ranks."""

    @abc.abstractmethod
    def _distance(self, a: IntArray, b: IntArray) -> IntArray:
        """Vectorised kernel: hop distances for validated rank arrays.

        The ranks may be ``int32`` or ``int64``; the result may be either
        width, and callers that sum distances widen it to ``int64``.
        """

    def distance(self, a, b) -> IntArray:
        """Shortest-path hop distance between ranks ``a`` and ``b``.

        Accepts scalars or broadcastable integer arrays of ranks in
        ``[0, num_processors)``; returns ``int64`` hop counts.  The
        distance is a metric: zero iff ``a == b``, symmetric, and obeys
        the triangle inequality (property-tested per topology).
        """
        scalar = np.isscalar(a) and np.isscalar(b)
        aa = check_in_range(a, 0, self._p, "rank a")
        bb = check_in_range(b, 0, self._p, "rank b")
        aa, bb = np.broadcast_arrays(aa, bb)
        # Kernels may compute in int32 (the grid layouts' coordinate tables).
        out = self._distance(aa, bb).astype(np.int64, copy=False)
        return int(out[()]) if scalar and out.ndim == 0 else out

    def mean_pairwise_distance(self, rng=None, samples: int = 100_000) -> float:
        """Monte-Carlo estimate of the mean hop distance over random pairs.

        Useful as a topology-level baseline when interpreting ACD values:
        an SFC assignment is only interesting if it beats random placement.
        """
        from repro.util.rng import as_generator

        gen = as_generator(rng)
        a = gen.integers(0, self._p, size=samples)
        b = gen.integers(0, self._p, size=samples)
        return float(self.distance(a, b).mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_processors={self._p})"


class DirectTopology(Topology):
    """A topology whose processors are directly wired to each other.

    Exposes the physical link set; indirect networks (the quadtree, whose
    interior nodes are switches) do not inherit from this class.
    """

    @abc.abstractmethod
    def links(self) -> IntArray:
        """Return the physical links as an ``(L, 2)`` array of rank pairs.

        Each undirected link appears exactly once with ``u < v``.
        """

    @property
    def num_links(self) -> int:
        """Number of physical links in the network."""
        return int(self.links().shape[0])
