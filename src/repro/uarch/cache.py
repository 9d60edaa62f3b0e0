"""Set-associative cache simulation.

Two exact LRU models over cache-line addresses:

- :class:`SetAssociativeCache` replays one reference at a time.  It is
  the scalar oracle: the tests hold every faster path to its counts.
- A numpy stack-distance kernel (:func:`lru_hits`, :func:`lru_misses`)
  decides every reference of a trace at once.  The capacity sweeps of
  Figures 6-9 (:mod:`repro.uarch.simulator`) and the perf-counter walk
  of :meth:`CacheHierarchy.walk` (L1I/L1D/L2/L3 MPKI of Figure 4) run
  on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.uarch.profile import LINE_BYTES

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


def lru_misses(lines: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Which of ``lines`` miss in an empty LRU cache of ``config``.

    A first use misses; every reuse is decided by :func:`lru_hits`.
    """
    prev, nxt = reuse_links(lines)
    reused = np.flatnonzero(prev >= 0)
    hit = lru_hits(lines, prev, nxt, config.num_sets, config.ways, reused)
    miss = np.ones(len(lines), dtype=bool)
    miss[reused[hit]] = False
    return miss


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        name: Level label ("L1I", "L2", ...).
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Cache line size.
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


class SetAssociativeCache:
    """An LRU set-associative cache over cache-line addresses.

    Addresses passed to :meth:`access` are *line numbers* (byte address
    divided by the line size); the caller is responsible for that
    conversion so that traces can be generated directly in line space.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._ways = config.ways
        # Per-set list of tags; index 0 is LRU, the last element is MRU.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0 when no accesses occurred)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def fresh(self) -> bool:
        """True while the cache is empty and has counted nothing."""
        return not self.accesses and not any(self._sets)

    def access(self, line: int) -> bool:
        """Reference a line; returns True on hit.

        Misses allocate the line (write-allocate, fetch-on-miss) and evict
        the LRU way when the set is full.
        """
        index = line % self._num_sets
        tag = line // self._num_sets
        ways = self._sets[index]
        if tag in ways:
            # Move to MRU position.
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self._ways:
            ways.pop(0)
        ways.append(tag)
        return False

    def run(self, lines: Iterable[int]) -> int:
        """Access a whole trace; returns the number of misses it caused."""
        before = self.misses
        access = self.access
        for line in lines:
            access(line)
        return self.misses - before

    def reset_stats(self) -> None:
        """Zero hit/miss counters without flushing cache contents."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Empty the cache and zero the counters."""
        self._sets = [[] for _ in range(self._num_sets)]
        self.reset_stats()


@dataclass
class LevelStats:
    """Access/miss statistics for one level of a hierarchy."""

    name: str
    accesses: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: float) -> float:
        """Misses per kilo-instruction for a run of ``instructions``."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.misses / instructions


class CacheHierarchy:
    """L1I + L1D backed by a unified L2 and a shared L3.

    Inclusive counting model: every L1 miss is an L2 access; every L2 miss
    is an L3 access; L3 misses go off-core.  This matches how the paper's
    MPKI metrics are computed from PMU events.
    """

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        l3: Optional[CacheConfig] = None,
    ):
        self.l1i = SetAssociativeCache(l1i)
        self.l1d = SetAssociativeCache(l1d)
        self.l2 = SetAssociativeCache(l2)
        self.l3 = SetAssociativeCache(l3) if l3 is not None else None
        self.offcore_accesses = 0
        # Per-source refill accounting: where instruction-side and
        # data-side L1 misses were ultimately served from.  Keys are
        # ("l2" | "l3" | "mem"); the pipeline model weights each by its
        # latency.
        self.fetch_fills = {"l2": 0, "l3": 0, "mem": 0}
        self.data_fills = {"l2": 0, "l3": 0, "mem": 0}

    def fetch(self, line: int) -> None:
        """Instruction fetch of one cache line."""
        if not self.l1i.access(line):
            self._fill_from_l2(line, self.fetch_fills)

    def load_store(self, line: int) -> None:
        """Data reference of one cache line."""
        if not self.l1d.access(line):
            self._fill_from_l2(line, self.data_fills)

    def _fill_from_l2(self, line: int, fills: dict) -> None:
        if self.l2.access(line):
            fills["l2"] += 1
            return
        if self.l3 is None:
            fills["mem"] += 1
            self.offcore_accesses += 1
            return
        if self.l3.access(line):
            fills["l3"] += 1
        else:
            fills["mem"] += 1
            self.offcore_accesses += 1

    def walk(
        self,
        fetch: np.ndarray,
        data: np.ndarray,
        fetch_warm: int = 0,
        data_warm: int = 0,
        llc_prewarm: Optional[np.ndarray] = None,
    ) -> None:
        """Count a whole run on this fresh hierarchy, one pass per level.

        The counters end exactly as the scalar replay leaves them:
        every ``llc_prewarm`` line accessed in the L3 (ignored without
        one), :meth:`fetch` over ``fetch[:fetch_warm]`` and
        :meth:`load_store` over ``data[:data_warm]``,
        :meth:`reset_stats`, then the rest of ``fetch`` and of ``data``.

        Each level is one :func:`lru_misses` pass over the lines that
        reach it: L1I over ``fetch``, L1D over ``data``, L2 over the L1
        misses in the replay's order (warm fetch, warm data, measured
        fetch, measured data), L3 over the pre-warm lines and then the
        L2 misses.  Only the counters are kept, not the levels'
        contents, so the hierarchy takes no further references.
        """
        levels = (self.l1i, self.l1d, self.l2, self.l3)
        if not all(c.fresh for c in levels if c is not None):
            raise ValueError("walk needs a fresh hierarchy")
        fetch = np.asarray(fetch, dtype=np.int64)
        data = np.asarray(data, dtype=np.int64)
        fetch_miss = lru_misses(fetch, self.l1i.config)
        data_miss = lru_misses(data, self.l1d.config)
        _count(self.l1i, fetch_miss[fetch_warm:])
        _count(self.l1d, data_miss[data_warm:])

        # The L1 misses in L2 order, each with its side (fetch or data).
        parts = [
            (fetch[:fetch_warm][fetch_miss[:fetch_warm]], True),
            (data[:data_warm][data_miss[:data_warm]], False),
            (fetch[fetch_warm:][fetch_miss[fetch_warm:]], True),
            (data[data_warm:][data_miss[data_warm:]], False),
        ]
        l2_lines = np.concatenate([lines for lines, _ in parts])
        is_fetch = np.repeat(
            [side for _, side in parts], [len(lines) for lines, _ in parts]
        )
        warm = len(parts[0][0]) + len(parts[1][0])
        l2_miss = lru_misses(l2_lines, self.l2.config)
        _count(self.l2, l2_miss[warm:])

        # Where each L1 miss was served from: 0 = L2, 1 = L3, 2 = memory.
        source = 2 * l2_miss.astype(np.int64)
        if self.l3 is not None:
            prewarm = np.asarray(
                llc_prewarm if llc_prewarm is not None else [], dtype=np.int64
            )
            l3_lines = np.concatenate([prewarm, l2_lines[l2_miss]])
            l3_miss = lru_misses(l3_lines, self.l3.config)
            l3_miss = l3_miss[len(prewarm):]
            _count(self.l3, l3_miss[np.count_nonzero(l2_miss[:warm]):])
            source[l2_miss] = 1 + l3_miss
        source, is_fetch = source[warm:], is_fetch[warm:]
        for fills, side in ((self.fetch_fills, is_fetch),
                            (self.data_fills, ~is_fetch)):
            l2, l3, mem = np.bincount(source[side], minlength=3).tolist()
            fills.update(l2=l2, l3=l3, mem=mem)
        self.offcore_accesses = self.fetch_fills["mem"] + self.data_fills["mem"]

    def stats(self) -> List[LevelStats]:
        """Per-level statistics, L1I first."""
        levels = [
            LevelStats("L1I", self.l1i.accesses, self.l1i.misses),
            LevelStats("L1D", self.l1d.accesses, self.l1d.misses),
            LevelStats("L2", self.l2.accesses, self.l2.misses),
        ]
        if self.l3 is not None:
            levels.append(LevelStats("L3", self.l3.accesses, self.l3.misses))
        return levels

    def reset_stats(self) -> None:
        """Zero every level's counters (cache contents are preserved)."""
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            if cache is not None:
                cache.reset_stats()
        self.offcore_accesses = 0
        self.fetch_fills = {"l2": 0, "l3": 0, "mem": 0}
        self.data_fills = {"l2": 0, "l3": 0, "mem": 0}


def _count(cache: SetAssociativeCache, missed: np.ndarray) -> None:
    """Set ``cache``'s counters to one access per entry of the miss
    mask ``missed``."""
    cache.misses = int(np.count_nonzero(missed))
    cache.hits = len(missed) - cache.misses

