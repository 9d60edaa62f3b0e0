"""MARSSx86-style cache capacity sweeps (§5.4, Figures 6-9).

The paper's locality study fixes an Atom-like single-core configuration
(8-way L1 with 64-byte lines, shared 8-way L2) and sweeps the L1 size
from 16 KB to 8192 KB, recording the miss ratio at every size.  The same
study is reproduced here over the synthetic instruction/data streams of
:mod:`repro.uarch.trace`.

Each size's miss ratio is what a :class:`repro.uarch.cache.
SetAssociativeCache` of that geometry reports when it is warmed on the
first half of the trace and measured on the second, but no cache is
replayed.  A numpy kernel decides every measured reference at once from
LRU stack distances (Mattson et al. 1970):

- Under LRU, a reference to a line hits in an S-set, A-way cache
  exactly when fewer than A distinct lines of its set were touched
  since the line's previous use.  A first use always misses.
- :func:`reuse_links` finds every reference's previous and next use of
  the same line, once per trace.  Per size, :func:`lru_hits` sorts the
  references stably by set, then scans back from each reference towards
  its previous use, counting the lines whose next use lies beyond it,
  and stops at A.  The sorts are LSD radix passes over 16-bit digits
  (:func:`stable_order`).
- Inclusion (Hill & Smith 1989): with equal associativity and
  bit-selection indexing, when a size's set count is a multiple of the
  previous size's, all the lines of one of its sets map to a single
  set of the smaller cache.  A reference then sees no more distinct
  same-set lines since its previous use than it did there, so a hit at
  the smaller size is a hit here, and only the previous size's misses
  are re-tested.  A size whose set count is not such a multiple (in an
  unsorted or irregular size list) re-tests every reuse.

The kernel's counts are integers equal to the scalar cache's, so the
ratios are bit-identical; the scalar cache stays the oracle that the
tests compare against, and the perf-counter pipeline still uses it.

Workloads may be simulated in *segments* (the paper samples Hadoop
executions at Map 0-1%, Map 50-51%, Map 99-100%, Reduce 0-1% and
Reduce 99-100% and takes the weighted mean); pass several profiles with
weights to :meth:`CacheSweepSimulator.weighted_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.uarch.cache import CacheConfig
from repro.uarch.profile import CodeFootprint, DataFootprint
from repro.uarch.trace import generate_data_trace, generate_fetch_trace

#: The paper's sweep points, in KB (Figures 6-9 x-axis).
DEFAULT_SIZES_KB: Tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Bound on the (references x offsets) block one scan step reads, so the
#: kernel's scratch memory stays a few MB whatever the trace length.
_SCAN_CELLS = 1 << 17


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys, made fast.

    numpy radix-sorts 16-bit keys but falls back to timsort for wider
    ones, so the keys are sorted one 16-bit digit at a time, least
    significant first (LSD radix sort): one pass for keys that span
    fewer than 2**16 values, two for a 25-bit line-address span.
    """
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    rest = keys.astype(np.int64) - int(keys.min())
    order = np.argsort(rest.astype(np.uint16), kind="stable")
    rest >>= 16
    while rest.any():
        order = order[np.argsort(rest[order].astype(np.uint16), kind="stable")]
        rest >>= 16
    return order


def reuse_links(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Previous and next use of each reference's line.

    Returns two int32 arrays: ``prev[i]`` is the index of the last
    earlier reference to ``lines[i]`` (-1 for a first use), ``nxt[i]``
    the index of the next later one (``len(lines)`` for a last use).
    """
    n = len(lines)
    order = stable_order(lines).astype(np.int32)
    earlier, later = order[:-1], order[1:]
    same = lines[earlier] == lines[later]
    prev = np.full(n, -1, dtype=np.int32)
    nxt = np.full(n, n, dtype=np.int32)
    prev[later[same]] = earlier[same]
    nxt[earlier[same]] = later[same]
    return prev, nxt


def lru_hits(
    lines: np.ndarray,
    prev: np.ndarray,
    nxt: np.ndarray,
    num_sets: int,
    ways: int,
    refs: np.ndarray,
) -> np.ndarray:
    """Which of ``refs`` hit in an LRU cache that starts empty.

    The cache has ``num_sets`` sets of ``ways`` ways and sees all of
    ``lines`` in order; ``prev``/``nxt`` come from :func:`reuse_links`,
    and every index in ``refs`` must have a previous use.

    Reference ``i`` hits exactly when fewer than ``ways`` distinct lines
    of its set were touched between ``prev[i]`` and ``i``: its LRU
    stack distance within the set (Mattson et al. 1970).  A stable sort
    by set lays each set's references out in time order, so those
    touches are the entries ranked between the two uses.  An entry is
    its line's last touch before ``i`` exactly when its next use lies
    beyond ``i``, so counting such entries counts distinct lines.  The
    scan walks back from ``i`` in blocks of doubling width and stops at
    the first ``ways`` of them.
    """
    if not len(refs):
        return np.zeros(0, dtype=bool)
    n = len(lines)
    order = stable_order(lines % num_sets)
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    next_by_rank = nxt[order]

    top = rank[refs]
    floor = rank[prev[refs]]
    hit = top - floor <= ways  # fewer than ``ways`` entries in between
    live = np.flatnonzero(~hit)
    top, floor, when = top[live], floor[live], refs[live]
    seen = np.zeros(len(live), dtype=np.int32)
    step = 2 * ways
    while len(live):
        width = max(1, min(_SCAN_CELLS // len(live), step))
        step *= 2
        below = top[:, None] - np.arange(1, width + 1, dtype=np.int32)
        # Clamp to the previous use, whose next use is ``i`` itself and
        # so never counts: offsets past the window add nothing.
        np.maximum(below, floor[:, None], out=below)
        seen += np.count_nonzero(next_by_rank[below] > when[:, None], axis=1)
        full = seen >= ways
        done = full | (top - width <= floor + 1)
        hit[live[done & ~full]] = True
        keep = ~done
        live, top, floor, when, seen = (
            live[keep], top[keep] - width, floor[keep], when[keep], seen[keep]
        )
    return hit


@dataclass
class SweepResult:
    """Miss-ratio-versus-capacity curve for one workload."""

    name: str
    sizes_kb: List[int]
    miss_ratios: List[float]

    def at(self, size_kb: int) -> float:
        """Miss ratio at a specific swept size."""
        try:
            return self.miss_ratios[self.sizes_kb.index(size_kb)]
        except ValueError:
            raise KeyError(f"size {size_kb} KB was not swept") from None

    def knee_kb(self, threshold: Optional[float] = None) -> Optional[int]:
        """Smallest swept size where the curve has flattened.

        This estimates the workload *footprint* the way the paper reads
        Figures 6-9 ("the footprint of PARSEC is about 128 KB ... that of
        big data Hadoop workloads is about 1024 KB").  With ``threshold``
        given, returns the first size whose miss ratio drops below it;
        otherwise uses a relative criterion — within 10% (plus a small
        absolute epsilon) of the curve's floor, which is robust to the
        residual compulsory misses of finite sampled traces.  Returns
        None when the curve never flattens.
        """
        if threshold is None:
            floor = min(self.miss_ratios)
            threshold = 1.10 * floor + 0.002
            for size, ratio in zip(self.sizes_kb, self.miss_ratios):
                if ratio <= threshold:
                    return size
            return None
        for size, ratio in zip(self.sizes_kb, self.miss_ratios):
            if ratio < threshold:
                return size
        return None


class CacheSweepSimulator:
    """Sweeps a single cache level's capacity over a synthetic trace."""

    def __init__(
        self,
        sizes_kb: Sequence[int] = DEFAULT_SIZES_KB,
        ways: int = 8,
        trace_refs: int = 60_000,
        seed: int = 2024,
    ):
        if not sizes_kb:
            raise ValueError("need at least one sweep size")
        self.sizes_kb = list(sizes_kb)
        self.ways = ways
        self.trace_refs = trace_refs
        self.seed = seed

    def _sweep(self, name: str, trace: np.ndarray) -> SweepResult:
        """Miss ratio of the second half of ``trace`` at every size.

        The cache starts empty and the first half warms it.  Per size,
        only the measured references whose line was used before can
        hit; :func:`lru_hits` decides each of them exactly.  When the
        size's set count is a multiple of the previous size's, a hit
        there is a hit here (inclusion), so only its misses are tested.
        """
        half = len(trace) // 2
        measured = len(trace) - half
        prev, nxt = reuse_links(trace)
        reused = np.flatnonzero(prev[half:] >= 0).astype(np.int32) + half
        cold = measured - len(reused)
        ratios = []
        last_sets, missed = 0, reused
        for size_kb in self.sizes_kb:
            sets = CacheConfig(
                f"L1@{size_kb}KB", size_kb * 1024, ways=self.ways
            ).num_sets
            tested = missed if last_sets and sets % last_sets == 0 else reused
            missed = tested[~lru_hits(trace, prev, nxt, sets, self.ways, tested)]
            misses = cold + len(missed)
            ratios.append(misses / measured if measured else 0.0)
            last_sets = sets
        return SweepResult(name=name, sizes_kb=list(self.sizes_kb), miss_ratios=ratios)

    def instruction_curve(
        self, name: str, footprint: CodeFootprint
    ) -> SweepResult:
        """Instruction-cache miss ratio versus capacity (Figures 6, 9)."""
        trace = generate_fetch_trace(
            footprint, 2 * self.trace_refs, seed=self.seed
        )
        return self._sweep(name, trace)

    def data_curve(self, name: str, data: DataFootprint) -> SweepResult:
        """Data-cache miss ratio versus capacity (Figure 7)."""
        trace = generate_data_trace(
            data, 2 * self.trace_refs, seed=self.seed + 1
        )
        return self._sweep(name, trace)

    def unified_curve(
        self,
        name: str,
        footprint: CodeFootprint,
        data: DataFootprint,
        fetch_share: float = 0.6,
    ) -> SweepResult:
        """Unified (instruction + data) miss ratio versus capacity (Figure 8).

        ``fetch_share`` is the fraction of references that are instruction
        fetches; the two streams are interleaved deterministically.
        """
        if not 0.0 < fetch_share < 1.0:
            raise ValueError("fetch_share must be in (0, 1)")
        total = 2 * self.trace_refs
        n_fetch = int(total * fetch_share)
        n_data = total - n_fetch
        fetch = generate_fetch_trace(footprint, n_fetch, seed=self.seed)
        data_trace = generate_data_trace(data, n_data, seed=self.seed + 1)
        rng = np.random.default_rng(self.seed + 2)
        merged = np.empty(total, dtype=np.int64)
        is_fetch = np.zeros(total, dtype=bool)
        is_fetch[rng.choice(total, size=n_fetch, replace=False)] = True
        merged[is_fetch] = fetch
        merged[~is_fetch] = data_trace
        return self._sweep(name, merged)

    @staticmethod
    def weighted_curve(
        name: str, parts: Sequence[Tuple[SweepResult, float]]
    ) -> SweepResult:
        """Weighted mean of segment curves (the paper's five-segment rule)."""
        if not parts:
            raise ValueError("need at least one segment")
        sizes = parts[0][0].sizes_kb
        for result, _ in parts:
            if result.sizes_kb != sizes:
                raise ValueError("segment sweeps use different size grids")
        total_weight = sum(weight for _, weight in parts)
        if total_weight <= 0:
            raise ValueError("total weight must be positive")
        ratios = [
            sum(result.miss_ratios[i] * weight for result, weight in parts)
            / total_weight
            for i in range(len(sizes))
        ]
        return SweepResult(name=name, sizes_kb=list(sizes), miss_ratios=ratios)

    @staticmethod
    def average_curves(name: str, curves: Sequence[SweepResult]) -> SweepResult:
        """Unweighted mean across workloads (the figures plot suite means)."""
        return CacheSweepSimulator.weighted_curve(
            name, [(curve, 1.0) for curve in curves]
        )
