"""Two-level cache hierarchy with off-chip miss classification.

The hierarchy is the substrate every prefetcher is evaluated on: it turns
the raw access stream into L1 hits, L2 hits and off-chip misses (the
prediction target of TMS/SMS/STeMS), and reports L1 evictions so spatial
generations can be terminated.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.common.config import SystemConfig
from repro.memsys.cache import Cache


class ServiceLevel(enum.Enum):
    """Where a demand access was serviced."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"
    SVB = "svb"  # assigned by the driver, never by the hierarchy itself


#: ``Hierarchy.access`` result: (service level, block evicted from the L1
#: or None, first demand touch of an L1-installed prefetch)
AccessResult = Tuple[ServiceLevel, Optional[int], bool]

_L1 = ServiceLevel.L1
_L2 = ServiceLevel.L2
_MEMORY = ServiceLevel.MEMORY

#: preallocated results of the accesses that evict nothing
_L1_HIT: AccessResult = (_L1, None, False)
_L1_PREFETCH_HIT: AccessResult = (_L1, None, True)
_L2_FILL: AccessResult = (_L2, None, False)
_MEMORY_FILL: AccessResult = (_MEMORY, None, False)


class Hierarchy:
    """Inclusive-of-nothing two-level hierarchy (L1d + unified L2).

    The model is non-inclusive/non-exclusive like most real hierarchies:
    fills go into both levels, and L1 evictions do not back-invalidate L2.
    An L1-installed prefetch that leaves the L1 unreferenced is counted in
    ``l1.unused_prefetch_evictions`` (an overprediction).

    ``l1`` and ``l2`` are :class:`~repro.memsys.cache.Cache` objects, but
    each method below indexes both caches' sets itself, so one demand
    access is one call. The methods do exactly what the equivalent
    ``Cache`` calls would (``demand_lookup``, then ``probe_fill`` and
    ``fill`` on a miss), in the same LRU order.
    """

    __slots__ = ("config", "l1", "l2", "_l1_sets", "_l1_count", "_l1_assoc",
                 "_l2_sets", "_l2_count", "_l2_assoc")

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self._l1_sets = self.l1._sets
        self._l1_count = config.l1.num_sets
        self._l1_assoc = config.l1.associativity
        self._l2_sets = self.l2._sets
        self._l2_count = config.l2.num_sets
        self._l2_assoc = config.l2.associativity

    def access(self, block: int) -> AccessResult:
        """Demand access to ``block``; fills on miss; classifies the level.

        Returns ``(level, evicted, prefetch_hit)``: where the access was
        serviced, the block the fill evicted from the L1 (or None), and
        whether this was the first demand touch of a prefetched block.
        """
        ways = self._l1_sets[block % self._l1_count]
        if block in ways:
            prefetched = ways.pop(block)
            ways[block] = False  # demand reference clears the flag
            return _L1_PREFETCH_HIT if prefetched else _L1_HIT
        l2_ways = self._l2_sets[block % self._l2_count]
        if block in l2_ways:
            del l2_ways[block]
            result = _L2_FILL
        else:
            if len(l2_ways) >= self._l2_assoc:
                del l2_ways[next(iter(l2_ways))]
            result = _MEMORY_FILL
        l2_ways[block] = False
        if len(ways) < self._l1_assoc:
            ways[block] = False
            return result
        victim = next(iter(ways))
        if ways.pop(victim):
            self.l1.unused_prefetch_evictions += 1
        ways[block] = False
        return result[0], victim, False

    def fill_from_svb(self, block: int) -> Optional[int]:
        """Move a consumed SVB block into the hierarchy (L1 + L2); returns
        the block evicted from the L1, or None."""
        l2_ways = self._l2_sets[block % self._l2_count]
        if block in l2_ways:
            del l2_ways[block]
        elif len(l2_ways) >= self._l2_assoc:
            del l2_ways[next(iter(l2_ways))]
        l2_ways[block] = False
        ways = self._l1_sets[block % self._l1_count]
        victim = None
        if block in ways:
            del ways[block]
        elif len(ways) >= self._l1_assoc:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.l1.unused_prefetch_evictions += 1
        ways[block] = False
        return victim

    def install_prefetch(self, block: int) -> Optional[int]:
        """Install an L1-targeted prefetch (the standalone-SMS design);
        returns the block evicted from the L1, or None.

        The fetched data passes through L2 as on a real fill; the
        prefetched flag lives in L1 only, so the unused-eviction
        overprediction accounting stays unambiguous.
        """
        l2_ways = self._l2_sets[block % self._l2_count]
        if block in l2_ways:
            del l2_ways[block]
        elif len(l2_ways) >= self._l2_assoc:
            del l2_ways[next(iter(l2_ways))]
        l2_ways[block] = False
        ways = self._l1_sets[block % self._l1_count]
        if block in ways:
            ways[block] = ways.pop(block)  # a resident block keeps its flag
            return None
        victim = None
        if len(ways) >= self._l1_assoc:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.l1.unused_prefetch_evictions += 1
        ways[block] = True
        return victim

    def present(self, block: int) -> Optional[ServiceLevel]:
        """Which level currently holds ``block`` (no state change)."""
        if block in self._l1_sets[block % self._l1_count]:
            return _L1
        if block in self._l2_sets[block % self._l2_count]:
            return _L2
        return None
