"""Unit and property-based tests for the cache simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch import ATOM_D510, XEON_E5645
from repro.uarch.cache import CacheConfig, CacheHierarchy, SetAssociativeCache
from repro.uarch.profile import CodeFootprint, CodeRegion, DataFootprint
from repro.uarch.tlb import LINES_PER_PAGE, Tlb, TlbConfig
from repro.uarch.trace import generate_data_trace, generate_fetch_trace


def make_cache(size_kb=4, ways=4):
    return SetAssociativeCache(
        CacheConfig("test", size_kb * 1024, ways=ways)
    )


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig("L1", 32 * 1024, ways=4)
        assert config.num_sets == 128

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, ways=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 0, ways=1)


class TestSetAssociativeCache:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(0) is False
        assert cache.misses == 1

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(7)
        assert cache.access(7) is True
        assert cache.hits == 1

    def test_lru_eviction_order(self):
        # Direct-mapped-per-set behaviour with 2 ways: third distinct tag
        # in a set evicts the least recently used.
        cache = SetAssociativeCache(CacheConfig("t", 2 * 64, ways=2))
        # One set only: lines 0, 1, 2 share it.
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 1 is now LRU
        cache.access(2)      # evicts 1
        assert cache.access(0) is True
        assert cache.access(1) is False

    def test_run_counts_misses(self):
        cache = make_cache()
        misses = cache.run([1, 2, 3, 1, 2, 3])
        assert misses == 3

    def test_flush_clears_contents(self):
        cache = make_cache()
        cache.access(5)
        cache.flush()
        assert cache.access(5) is False

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access(5)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.access(5) is True

    def test_working_set_within_capacity_always_hits_after_warmup(self):
        cache = make_cache(size_kb=4, ways=4)  # 64 lines
        lines = list(range(32))
        cache.run(lines)
        cache.reset_stats()
        cache.run(lines * 4)
        assert cache.misses == 0

    @given(st.lists(st.integers(min_value=0, max_value=4096),
                    min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_lru_inclusion_property(self, trace):
        """A strictly larger same-associativity-scaled LRU cache never
        misses more on the same trace (stack-inclusion property)."""
        small = SetAssociativeCache(CacheConfig("s", 64 * 64, ways=64))
        large = SetAssociativeCache(CacheConfig("l", 256 * 64, ways=256))
        small_misses = small.run(trace)
        large_misses = large.run(trace)
        assert large_misses <= small_misses

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_accounting_invariants(self, trace):
        cache = make_cache()
        cache.run(trace)
        assert cache.hits + cache.misses == len(trace)
        assert cache.misses >= len(set(trace)) - cache.config.num_sets * cache.config.ways or True
        assert 0.0 <= cache.miss_ratio <= 1.0
        # Distinct lines lower-bound misses via compulsory misses.
        assert cache.misses >= min(
            len(set(trace)),
            1,
        )


class TestCacheHierarchy:
    def make_hierarchy(self):
        return CacheHierarchy(
            l1i=CacheConfig("L1I", 4 * 1024, 4),
            l1d=CacheConfig("L1D", 4 * 1024, 4),
            l2=CacheConfig("L2", 16 * 1024, 8),
            l3=CacheConfig("L3", 64 * 1024, 8),
        )

    def test_miss_propagates_down(self):
        hierarchy = self.make_hierarchy()
        hierarchy.fetch(100)
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].misses == 1
        assert stats["L2"].misses == 1
        assert stats["L3"].misses == 1
        assert hierarchy.offcore_accesses == 1
        assert hierarchy.fetch_fills["mem"] == 1

    def test_l2_hit_stops_propagation(self):
        hierarchy = self.make_hierarchy()
        hierarchy.fetch(100)
        # Evict from tiny L1I by touching many lines mapping everywhere,
        # then re-fetch: L2 should serve it.
        for line in range(1000, 1200):
            hierarchy.fetch(line)
        before = hierarchy.l3.accesses
        hierarchy.fetch(100)
        stats = {s.name: s for s in hierarchy.stats()}
        assert hierarchy.fetch_fills["l2"] >= 1 or hierarchy.fetch_fills["l3"] >= 1
        assert stats["L2"].accesses > 0
        assert hierarchy.l3.accesses >= before

    def test_data_and_fetch_tracked_separately(self):
        hierarchy = self.make_hierarchy()
        hierarchy.fetch(1)
        hierarchy.load_store(2)
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].accesses == 1
        assert stats["L1D"].accesses == 1
        assert stats["L2"].accesses == 2

    def test_mpki(self):
        hierarchy = self.make_hierarchy()
        hierarchy.fetch(1)
        stats = {s.name: s for s in hierarchy.stats()}
        assert stats["L1I"].mpki(1000.0) == 1.0

    def test_mpki_requires_positive_instructions(self):
        hierarchy = self.make_hierarchy()
        hierarchy.fetch(1)
        with pytest.raises(ValueError):
            hierarchy.stats()[0].mpki(0)

    def test_reset_stats(self):
        hierarchy = self.make_hierarchy()
        hierarchy.fetch(1)
        hierarchy.reset_stats()
        assert hierarchy.fetch_fills == {"l2": 0, "l3": 0, "mem": 0}
        assert all(s.accesses == 0 for s in hierarchy.stats())

    def test_no_l3_configuration(self):
        hierarchy = CacheHierarchy(
            l1i=CacheConfig("L1I", 4 * 1024, 4),
            l1d=CacheConfig("L1D", 4 * 1024, 4),
            l2=CacheConfig("L2", 16 * 1024, 8),
            l3=None,
        )
        hierarchy.load_store(5)
        assert hierarchy.data_fills["mem"] == 1
        assert len(hierarchy.stats()) == 3


def scalar_walk(hierarchy, itlb, dtlb, fetch, data, fetch_warm, data_warm,
                llc_prewarm):
    """The per-reference replay that :meth:`CacheHierarchy.walk` and
    :meth:`Tlb.walk` must equal; returns the measured TLB misses."""
    if hierarchy.l3 is not None:
        for line in llc_prewarm.tolist():
            hierarchy.l3.access(line)
        hierarchy.l3.reset_stats()
    fetch, data = fetch.tolist(), data.tolist()
    for line in fetch[:fetch_warm]:
        hierarchy.fetch(line)
        itlb.access(line // LINES_PER_PAGE)
    for line in data[:data_warm]:
        hierarchy.load_store(line)
        dtlb.access(line // LINES_PER_PAGE)
    hierarchy.reset_stats()
    itlb_warm, dtlb_warm = itlb.misses, dtlb.misses
    for line in fetch[fetch_warm:]:
        hierarchy.fetch(line)
        itlb.access(line // LINES_PER_PAGE)
    for line in data[data_warm:]:
        hierarchy.load_store(line)
        dtlb.access(line // LINES_PER_PAGE)
    return itlb.misses - itlb_warm, dtlb.misses - dtlb_warm


def snapshot(hierarchy, itlb, dtlb, measured_tlb_misses):
    return (
        [(s.name, s.accesses, s.misses) for s in hierarchy.stats()],
        dict(hierarchy.fetch_fills),
        dict(hierarchy.data_fills),
        hierarchy.offcore_accesses,
        (itlb.accesses, itlb.misses, dtlb.accesses, dtlb.misses),
        measured_tlb_misses,
    )


def repeated_trace(rng, length, universe, base):
    """Random lines with long back-to-back runs of one line and
    sequential bursts, so that pages repeat for hundreds of refs."""
    lines = rng.integers(0, universe, size=length)
    lines = np.repeat(lines, rng.integers(1, 40, size=length))[:length]
    lines = lines + np.arange(length) % int(rng.integers(1, 9))
    return (base + lines).astype(np.int64)


class TestStructureWalk:
    """The per-structure walk equals the scalar replay exactly (``==``)."""

    def check(self, make, fetch, data, fetch_warm, data_warm, llc_prewarm):
        walked = make()
        hierarchy, itlb, dtlb = walked
        hierarchy.walk(fetch, data, fetch_warm, data_warm, llc_prewarm)
        measured = (itlb.walk(fetch // LINES_PER_PAGE, fetch_warm),
                    dtlb.walk(data // LINES_PER_PAGE, data_warm))
        oracle = make()
        expected = scalar_walk(*oracle, fetch, data, fetch_warm, data_warm,
                               llc_prewarm)
        assert snapshot(*walked, measured) == snapshot(*oracle, expected)

    @staticmethod
    def warm_lengths(n):
        return (0, n // 3, n)

    @pytest.mark.parametrize("with_l3", [True, False])
    def test_tiny_geometries_force_evictions(self, with_l3):
        def make():
            hierarchy = CacheHierarchy(
                l1i=CacheConfig("L1I", 256, 2),
                l1d=CacheConfig("L1D", 512, 4),
                l2=CacheConfig("L2", 1024, 4),
                l3=CacheConfig("L3", 2048, 4) if with_l3 else None,
            )
            return (hierarchy, Tlb(TlbConfig("ITLB", entries=4, ways=2)),
                    Tlb(TlbConfig("DTLB", entries=8, ways=8)))

        rng = np.random.default_rng(11)
        for universe in (3, 40, 400, 5000):
            fetch = repeated_trace(rng, 1500, universe, 0)
            data = repeated_trace(rng, 1200, universe, 1 << 24)
            # Pre-warm lines that the traces reuse, and some they don't.
            llc_prewarm = np.concatenate([
                data[::7], fetch[:50], np.arange(1 << 20, (1 << 20) + 64),
            ])
            for fetch_warm in self.warm_lengths(len(fetch)):
                for data_warm in self.warm_lengths(len(data)):
                    self.check(make, fetch, data, fetch_warm, data_warm,
                               llc_prewarm)

    @pytest.mark.parametrize("platform", [XEON_E5645, ATOM_D510],
                             ids=lambda p: p.name)
    def test_platform_geometries(self, platform):
        def make():
            return (platform.make_hierarchy(), platform.make_itlb(),
                    platform.make_dtlb())

        code = CodeFootprint([
            CodeRegion("hot", 16 * 1024, weight=0.7, sequentiality=6),
            CodeRegion("rest", 512 * 1024, weight=0.3, sequentiality=4),
        ])
        data_model = DataFootprint(
            stream_bytes=2 * 1024 * 1024, state_bytes=1024 * 1024,
            state_fraction=0.3, hot_bytes=16 * 1024, hot_fraction=0.6,
        )
        fetch = generate_fetch_trace(code, 6000, seed=5)
        data = generate_data_trace(data_model, 5000, seed=6)
        llc_prewarm = np.concatenate([fetch[1000:3000], data[::3]])
        for fetch_warm, data_warm in ((0, 0), (4000, 1500), (6000, 5000)):
            self.check(make, fetch, data, fetch_warm, data_warm, llc_prewarm)

    def test_empty_traces(self):
        def make():
            return (XEON_E5645.make_hierarchy(), XEON_E5645.make_itlb(),
                    XEON_E5645.make_dtlb())

        empty = np.zeros(0, dtype=np.int64)
        self.check(make, empty, np.array([7, 7, 8]), 0, 1, empty)

    def test_walk_needs_fresh_structures(self):
        hierarchy = XEON_E5645.make_hierarchy()
        hierarchy.fetch(3)
        hierarchy.reset_stats()
        with pytest.raises(ValueError):
            hierarchy.walk(np.array([1]), np.array([2]))
        tlb = XEON_E5645.make_itlb()
        tlb.access(1)
        with pytest.raises(ValueError):
            tlb.walk(np.array([1]))

