"""Shared per-topology memoisation of routing and lookup tables.

Trial-averaged experiments evaluate the same network over and over —
``run_case`` draws fresh particles per trial but the topology (and hence
every routed path) is identical across trials.  This module provides a
process-wide, thread-safe, size-capped LRU cache of arbitrary named
per-topology arrays (rank grids, switch-id tables, curve index
grids...), memoised through the generic :meth:`TopologyCache.table`
hook, so the batch router in :mod:`repro.contention.routing` and the
ANNS pipeline in :mod:`repro.metrics.anns` stop rebuilding them per
call.

Cache keys are derived from the *parameters* of a topology (class, size,
processor curve, hop convention, ...), not object identity, so two
equal-parameter instances share entries.

The default cache holds :data:`DEFAULT_MAX_ENTRIES` tables; least
recently used entries are evicted beyond that.  Call
:func:`set_topology_cache` to swap in a differently-sized cache.

Every hit, miss and eviction is also reported to :mod:`repro.obs`
(``topo_cache.table_*`` counters) so recorded runs can prove their reuse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro import obs
from repro.topology.base import Topology

__all__ = [
    "TopologyCache",
    "topology_cache_key",
    "get_topology_cache",
    "set_topology_cache",
    "DEFAULT_MAX_ENTRIES",
]

#: Resident tables of the process-wide cache before LRU eviction.
DEFAULT_MAX_ENTRIES = 32


def topology_cache_key(topology: Topology) -> tuple:
    """A hashable key identifying a topology by its parameters.

    Includes everything that determines the hop metric and the routed
    paths: concrete class, processor count, the processor-order SFC (for
    grid-embedded networks), the hypercube label layout and the tree hop
    convention.  Two instances built with the same parameters map to the
    same key.
    """
    parts: list[Hashable] = [type(topology).__name__, topology.num_processors]
    layout = getattr(topology, "layout", None)
    if layout is not None:
        parts.append(getattr(layout, "curve_name", None))
    parts.append(getattr(topology, "layout_name", None))  # hypercube embedding
    parts.append(getattr(topology, "hop_convention", None))  # tree charging
    return tuple(parts)


class TopologyCache:
    """Thread-safe LRU cache of per-topology tables.

    Parameters
    ----------
    max_entries:
        Resident tables before LRU eviction.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._lock = threading.RLock()
        self._tables: OrderedDict = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def table(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Memoise ``builder()`` under ``key`` (LRU, thread-safe).

        Used by the batch router for per-topology link tables and by the
        ANNS pipeline for curve index grids; any hashable key works.
        """
        with self._lock:
            if key in self._tables:
                self._tables.move_to_end(key)
                self._hits += 1
                obs.count("topo_cache.table_hits")
                return self._tables[key]
            self._misses += 1
            obs.count("topo_cache.table_misses")
            value = builder()
            self._tables[key] = value
            while len(self._tables) > self.max_entries:
                self._tables.popitem(last=False)
                self._evictions += 1
                obs.count("topo_cache.table_evictions")
            return value

    def topology_table(
        self, topology: Topology, name: str, builder: Callable[[], object]
    ) -> object:
        """:meth:`table` keyed by ``(name, topology parameters)``."""
        return self.table((name, topology_cache_key(topology)), builder)

    def clear(self) -> None:
        """Drop every cached entry and reset the statistics."""
        with self._lock:
            self._tables.clear()
            self._hits = self._misses = self._evictions = 0

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/residency counters (for tests and diagnostics)."""
        with self._lock:
            return {
                "table_hits": self._hits,
                "table_misses": self._misses,
                "table_evictions": self._evictions,
                "tables": len(self._tables),
            }


_default_cache = TopologyCache()
_default_lock = threading.Lock()


def get_topology_cache() -> TopologyCache:
    """The process-wide shared cache instance."""
    return _default_cache


def set_topology_cache(cache: TopologyCache) -> TopologyCache:
    """Replace the process-wide cache; returns the previous instance."""
    global _default_cache
    if not isinstance(cache, TopologyCache):
        raise TypeError(f"expected a TopologyCache, got {type(cache).__name__}")
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
