"""A set-associative cache with true-LRU replacement.

Each set is an ``OrderedDict`` in LRU order (least recent first) that
maps a resident line to one bool, ``pending``: the line was prefetched
and no demand access has touched it yet. That flag is all the simulator
needs to account prefetch usefulness: a demand hit on a pending line is
a covered miss, and a pending line that is evicted was a wasted fetch
(the bandwidth cost the paper blames for the latency penalty of
aggressive prefetching). Lines carry no per-line objects: the bools are
shared singletons, so an install allocates nothing the garbage collector
has to track, and copying a set (the lockstep engine's copy-in and
export) is one ``OrderedDict.copy``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.memsys.config import CacheConfig


class SetAssociativeCache:
    """A classic set-associative LRU cache over line addresses."""

    __slots__ = ("config", "_sets", "_set_mask", "_line_shift", "_size",
                 "hits", "misses", "prefetch_hits", "wasted_prefetches")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            # Non-power-of-two set counts use modulo indexing instead.
            self._set_mask = None
        else:
            self._set_mask = num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        #: set index -> OrderedDict of line -> pending, in LRU order.
        self._sets: Dict[int, OrderedDict] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0
        self.wasted_prefetches = 0

    def _index(self, line: int) -> int:
        tag = line >> self._line_shift
        if self._set_mask is not None:
            return tag & self._set_mask
        return tag % self.config.num_sets

    def lookup(self, line: int, demand: bool = True) -> bool:
        """Probe for ``line``; updates LRU and hit/miss counters.

        Args:
            line: Line-aligned address.
            demand: True for demand accesses (counted, clears the line's
                pending flag); False for probes by the prefetch path
                (not counted as hits/misses).
        """
        cache_set = self._sets.get(self._index(line))
        if cache_set is not None and line in cache_set:
            cache_set.move_to_end(line)
            if demand:
                self.hits += 1
                if cache_set[line]:
                    self.prefetch_hits += 1
                    cache_set[line] = False
            return True
        if demand:
            self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without touching LRU state or counters."""
        cache_set = self._sets.get(self._index(line))
        return cache_set is not None and line in cache_set

    def install(self, line: int, prefetched: bool = False) -> Optional[int]:
        """Insert ``line``; returns the evicted victim's line, if any.

        Installing a line that is already present refreshes its LRU
        position; a demand install also clears its pending flag (without
        counting a prefetch hit), a prefetch install leaves it as is.
        """
        index = self._index(line)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        if line in cache_set:
            cache_set.move_to_end(line)
            if not prefetched:
                cache_set[line] = False
            return None
        victim: Optional[int] = None
        if len(cache_set) >= self.config.associativity:
            victim, pending = cache_set.popitem(last=False)
            self._size -= 1
            if pending:
                self.wasted_prefetches += 1
        cache_set[line] = prefetched
        self._size += 1
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns whether it was present."""
        cache_set = self._sets.get(self._index(line))
        if cache_set is not None and line in cache_set:
            del cache_set[line]
            self._size -= 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (counters are preserved)."""
        self._sets.clear()
        self._size = 0

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident.

        Maintained incrementally (installs, evictions, invalidations, and
        flushes adjust a counter) because telemetry sampling paths read it
        per epoch; the old O(num_sets) sum walked every set.
        """
        return self._size

    @property
    def accesses(self) -> int:
        """Total demand lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Demand misses / demand lookups (0 when idle)."""
        total = self.accesses
        return self.misses / total if total else 0.0
