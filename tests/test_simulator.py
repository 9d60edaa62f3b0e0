"""Tests for the MARSSx86-style cache sweep simulator."""

import numpy as np
import pytest

from repro.uarch.cache import CacheConfig, SetAssociativeCache
from repro.uarch.profile import CodeFootprint, CodeRegion, DataFootprint
from repro.uarch.simulator import (
    DEFAULT_SIZES_KB,
    CacheSweepSimulator,
    SweepResult,
    lru_hits,
    reuse_links,
    stable_order,
)


def footprint(total_kb=128):
    return CodeFootprint(
        [
            CodeRegion("hot", 16 * 1024, weight=0.7, sequentiality=6),
            CodeRegion("rest", (total_kb - 16) * 1024, weight=0.3, sequentiality=4),
        ]
    )


def data_model():
    return DataFootprint(
        stream_bytes=2 * 1024 * 1024,
        state_bytes=256 * 1024,
        state_fraction=0.1,
        hot_bytes=16 * 1024,
        hot_fraction=0.8,
    )


class TestSweep:
    def test_default_sizes_match_paper(self):
        assert DEFAULT_SIZES_KB == (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

    def test_instruction_curve_monotone_nonincreasing(self):
        simulator = CacheSweepSimulator(trace_refs=8000)
        curve = simulator.instruction_curve("t", footprint())
        for small, large in zip(curve.miss_ratios, curve.miss_ratios[1:]):
            assert large <= small + 1e-9

    def test_small_footprint_flattens_early(self):
        simulator = CacheSweepSimulator(trace_refs=8000)
        small = simulator.instruction_curve("small", footprint(64))
        large = simulator.instruction_curve("large", footprint(1024))
        assert small.at(128) < 0.02
        assert large.at(128) > small.at(128)
        # The larger footprint needs far more capacity to flatten.
        assert (large.knee_kb() or 10_000) > (small.knee_kb() or 0)

    def test_data_curve_runs(self):
        simulator = CacheSweepSimulator(trace_refs=6000)
        curve = simulator.data_curve("d", data_model())
        assert len(curve.miss_ratios) == len(DEFAULT_SIZES_KB)
        assert all(0.0 <= r <= 1.0 for r in curve.miss_ratios)

    def test_unified_curve_share_validation(self):
        simulator = CacheSweepSimulator(trace_refs=4000)
        with pytest.raises(ValueError):
            simulator.unified_curve("u", footprint(), data_model(), fetch_share=0.0)

    def test_at_unknown_size_raises(self):
        curve = SweepResult("x", [16, 32], [0.5, 0.4])
        with pytest.raises(KeyError):
            curve.at(64)

    def test_weighted_curve(self):
        a = SweepResult("a", [16, 32], [0.4, 0.2])
        b = SweepResult("b", [16, 32], [0.2, 0.0])
        merged = CacheSweepSimulator.weighted_curve("m", [(a, 3.0), (b, 1.0)])
        assert merged.miss_ratios[0] == pytest.approx(0.35)

    def test_weighted_curve_grid_mismatch(self):
        a = SweepResult("a", [16, 32], [0.4, 0.2])
        b = SweepResult("b", [16, 64], [0.2, 0.0])
        with pytest.raises(ValueError):
            CacheSweepSimulator.weighted_curve("m", [(a, 1.0), (b, 1.0)])

    def test_average_curves(self):
        a = SweepResult("a", [16], [0.4])
        b = SweepResult("b", [16], [0.2])
        merged = CacheSweepSimulator.average_curves("avg", [a, b])
        assert merged.miss_ratios[0] == pytest.approx(0.3)

    def test_knee_none_when_never_flat(self):
        curve = SweepResult("x", [16, 32], [0.5, 0.4])
        assert curve.knee_kb(threshold=0.01) is None


def scalar_sweep(trace, sizes_kb, ways):
    """The oracle: one scalar LRU cache per size, warmed on the first half."""
    half = len(trace) // 2
    ratios = []
    for size_kb in sizes_kb:
        cache = SetAssociativeCache(CacheConfig("L1", size_kb * 1024, ways=ways))
        cache.run(trace[:half].tolist())
        cache.reset_stats()
        cache.run(trace[half:].tolist())
        ratios.append(cache.miss_ratio)
    return ratios


def random_trace(rng, length):
    """Heavy repeats over a tiny-to-moderate universe, far from zero."""
    universe = int(rng.choice([1, 2, 5, 17, 64, 300, 2000]))
    lines = rng.integers(0, universe, size=length)
    if rng.random() < 0.5:  # runs of back-to-back repeats
        lines = np.repeat(lines, rng.integers(1, 4, size=length))[:length]
    if rng.random() < 0.5:  # sequential bursts, like instruction fetch
        lines = lines + np.arange(length) % int(rng.integers(1, 9))
    base = int(rng.choice([0, 1 << 24, 3 << 40]))
    return (base + lines).astype(np.int64)


#: Sizes (KB) whose set counts are not powers of two: 48, 80, 96 and
#: 160 sets at every associativity below.
ODD_SETS_KB = {1: (3, 5, 6, 10), 2: (6, 10, 12, 20), 3: (9, 15, 18, 30),
               8: (24, 40, 48, 80), 16: (48, 80, 96, 160)}


class TestStackDistanceKernel:
    """``_sweep`` must equal the scalar LRU replay exactly (``==``)."""

    @pytest.mark.parametrize("ways", [1, 2, 3, 8, 16])
    def test_matches_scalar_cache_on_random_traces(self, ways):
        rng = np.random.default_rng(ways)
        # Every size whose byte count divides into ways x 64-byte lines.
        valid = [kb for kb in range(1, 33) if (kb * 16) % ways == 0]
        valid += list(ODD_SETS_KB[ways])
        for case in range(30):
            length = int(rng.integers(2, 3000))
            trace = random_trace(rng, length)
            if case % 3 == 0:  # ascending multiples: the inclusion filter
                start = int(rng.choice(valid))
                sizes = [start * 2 ** k for k in range(4)]
            else:  # unsorted, with repeats: inclusion must not be assumed
                sizes = [int(kb) for kb in rng.choice(valid, size=5)]
            simulator = CacheSweepSimulator(sizes_kb=sizes, ways=ways)
            result = simulator._sweep("t", trace)
            assert result.miss_ratios == scalar_sweep(trace, sizes, ways), (
                ways, sizes, length)

    def test_odd_set_counts_in_one_sweep(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 2500)
        for ways, sizes in ODD_SETS_KB.items():
            sizes = list(sizes) + list(sizes[::-1])
            simulator = CacheSweepSimulator(sizes_kb=sizes, ways=ways)
            assert simulator._sweep("t", trace).miss_ratios == scalar_sweep(
                trace, sizes, ways)

    def test_shortest_traces(self):
        simulator = CacheSweepSimulator(sizes_kb=[1, 2], ways=2)
        for trace in ([5, 5], [5, 6], [5, 6, 5], [0, 1 << 24, 0, 1 << 24]):
            trace = np.array(trace, dtype=np.int64)
            assert simulator._sweep("t", trace).miss_ratios == scalar_sweep(
                trace, [1, 2], 2)

    def test_wide_set_count_takes_the_multi_digit_sort(self):
        # 5000 KB direct-mapped is 80000 sets: set keys span more than
        # 16 bits, so the radix sort needs a second digit.
        sets = 5000 * 1024 // 64
        assert sets > 1 << 16
        rng = np.random.default_rng(3)
        trace = (rng.integers(0, 4, size=4000) * sets
                 + sets - 1 - rng.integers(0, 30, size=4000)).astype(np.int64)
        prev, nxt = reuse_links(trace)
        refs = np.flatnonzero(prev >= 0)
        hits = lru_hits(trace, prev, nxt, sets, 1, refs)
        cache = SetAssociativeCache(CacheConfig("L1", 5000 * 1024, ways=1))
        expected = [cache.access(line) for line in trace.tolist()]
        assert hits.tolist() == [expected[i] for i in refs]
        simulator = CacheSweepSimulator(sizes_kb=[5000], ways=1)
        assert simulator._sweep("t", trace).miss_ratios == scalar_sweep(
            trace, [5000], 1)

    def test_stable_order_matches_numpy(self):
        rng = np.random.default_rng(5)
        for span in (1, 7, 1 << 16, 1 << 17, 1 << 40):
            keys = rng.integers(0, span, size=1000) + int(rng.integers(0, 99))
            assert (stable_order(keys)
                    == np.argsort(keys, kind="stable")).all()
        assert stable_order(np.zeros(0, dtype=np.int64)).size == 0

    def test_reuse_links(self):
        prev, nxt = reuse_links(np.array([4, 9, 4, 4, 9, 2]))
        assert prev.tolist() == [-1, -1, 0, 2, 1, -1]
        assert nxt.tolist() == [2, 4, 3, 6, 6, 6]
