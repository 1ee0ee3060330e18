"""Tests for the shared per-topology memoisation layer."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.topology import (
    TopologyCache,
    get_topology_cache,
    make_topology,
    set_topology_cache,
    topology_cache_key,
)


class TestCacheKey:
    def test_equal_parameters_share_a_key(self):
        a = make_topology("torus", 64, processor_curve="hilbert")
        b = make_topology("torus", 64, processor_curve="hilbert")
        assert a is not b
        assert topology_cache_key(a) == topology_cache_key(b)

    @pytest.mark.parametrize(
        "other",
        [
            ("torus", 64, "rowmajor"),  # different layout curve
            ("torus", 256, "hilbert"),  # different size
            ("mesh", 64, "hilbert"),  # different class
        ],
    )
    def test_different_parameters_differ(self, other):
        base = make_topology("torus", 64, processor_curve="hilbert")
        name, p, curve = other
        assert topology_cache_key(base) != topology_cache_key(
            make_topology(name, p, processor_curve=curve)
        )

    def test_hop_convention_distinguishes_trees(self):
        from repro.topology import QuadtreeTopology

        up = QuadtreeTopology(64, hop_convention="updown")
        lv = QuadtreeTopology(64, hop_convention="levels")
        assert topology_cache_key(up) != topology_cache_key(lv)


class TestLruAndTables:
    def test_lru_eviction(self):
        cache = TopologyCache(max_entries=2)
        for p in (16, 32, 64):
            cache.topology_table(make_topology("ring", p), "demo", lambda: p)
        assert cache.stats["tables"] == 2
        assert cache.stats["table_evictions"] == 1
        # the oldest (16) was evicted, so rebuilding it is a miss
        misses = cache.stats["table_misses"]
        cache.topology_table(make_topology("ring", 16), "demo", lambda: 16)
        assert cache.stats["table_misses"] == misses + 1

    def test_table_memoises_builder(self):
        cache = TopologyCache()
        calls = []
        for _ in range(3):
            value = cache.table("k", lambda: calls.append(1) or "built")
        assert value == "built" and len(calls) == 1

    def test_topology_table_keys_by_parameters(self):
        cache = TopologyCache()
        a = make_topology("mesh", 16)
        b = make_topology("mesh", 16)
        t1 = cache.topology_table(a, "demo", lambda: object())
        t2 = cache.topology_table(b, "demo", lambda: object())
        assert t1 is t2

    def test_clear_resets_everything(self):
        cache = TopologyCache()
        cache.table("x", lambda: 1)
        cache.table("x", lambda: 1)
        cache.clear()
        assert cache.stats == {
            "table_hits": 0,
            "table_misses": 0,
            "table_evictions": 0,
            "tables": 0,
        }

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            TopologyCache(max_entries=0)

    def test_table_counters_reach_the_recorder(self):
        from repro import obs

        cache = TopologyCache(max_entries=1)
        with obs.recording() as rec:
            cache.table("a", lambda: 1)
            cache.table("a", lambda: 1)
            cache.table("b", lambda: 2)
        assert rec.counters["topo_cache.table_hits"] == 1
        assert rec.counters["topo_cache.table_misses"] == 2
        assert rec.counters["topo_cache.table_evictions"] == 1


class TestThreadSafety:
    def test_concurrent_mixed_access(self):
        cache = TopologyCache(max_entries=2)  # fewer slots than topologies: evictions race
        topos = [make_topology("ring", p) for p in (16, 32, 64, 128)]
        errors = []

        def worker(i):
            try:
                rng = np.random.default_rng(i)
                for _ in range(50):
                    topo = topos[int(rng.integers(len(topos)))]
                    p = topo.num_processors
                    assert cache.topology_table(topo, "t", lambda: p) == p
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors


class TestGlobalCache:
    def test_swap_and_restore(self):
        original = get_topology_cache()
        replacement = TopologyCache(max_entries=2)
        try:
            assert set_topology_cache(replacement) is original
            assert get_topology_cache() is replacement
        finally:
            set_topology_cache(original)

    def test_rejects_non_cache(self):
        with pytest.raises(TypeError):
            set_topology_cache(object())
