"""Set-associative cache model operating on block numbers.

The cache is purely functional state (no timing): lookups report hit/miss
and fills report the evicted block, which the hierarchy forwards to
prefetchers — SMS/STeMS terminate a spatial generation when one of the
generation's blocks leaves the L1 (§2.4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.common.config import CacheConfig


class Cache:
    """LRU set-associative cache keyed by block number.

    Each resident block carries a ``prefetched`` flag so that prefetchers
    installing straight into the cache (SMS) can account useless fetches:
    ``unused_prefetch_evictions`` counts the prefetched blocks evicted
    without ever being demand-referenced.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        # one OrderedDict per set: block -> prefetched flag
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self.unused_prefetch_evictions = 0

    def _set_index(self, block: int) -> int:
        return block % self._num_sets

    # the hot methods index the set inline (``block % self._num_sets``)
    # instead of calling ``_set_index`` — the method-call overhead is
    # measurable at one-to-several calls per simulated access

    def __contains__(self, block: int) -> bool:
        return block in self._sets[block % self._num_sets]

    def lookup(self, block: int, touch: bool = True) -> bool:
        """Probe for ``block``. A hit clears its prefetched flag."""
        return self.demand_lookup(block, touch)[0]

    def demand_lookup(self, block: int, touch: bool = True) -> "Tuple[bool, bool]":
        """Probe for ``block``; returns (hit, first_touch_of_prefetched_block).

        The second flag is True exactly once per prefetched block: on the
        first demand reference after a prefetch install. L1-install
        prefetchers (SMS) count that event as a covered miss.
        """
        ways = self._sets[block % self._num_sets]
        if block not in ways:
            return False, False
        was_prefetched = ways[block]
        ways[block] = False  # demand reference: no longer a useless prefetch
        if touch:
            ways.move_to_end(block)
        return True, was_prefetched

    def probe_fill(self, block: int) -> bool:
        """Demand probe that fills on miss; returns whether it hit.

        One set index for the lookup + fill pair the hierarchy's L2 sees
        on every L1 miss (the L2 victim is never reported — only L1
        evictions terminate spatial generations). Equivalent to
        ``lookup(block) or (fill(block) and False)`` with the demand
        flag-clear semantics of :meth:`demand_lookup`.
        """
        ways = self._sets[block % self._num_sets]
        if block in ways:
            ways[block] = False  # demand reference clears the flag
            ways.move_to_end(block)
            return True
        if len(ways) >= self._assoc:
            ways.popitem(last=False)
        ways[block] = False
        return False

    def fill(self, block: int, prefetched: bool = False) -> Optional[int]:
        """Install ``block``; returns the evicted block, or None."""
        ways = self._sets[block % self._num_sets]
        if block in ways:
            ways.move_to_end(block)
            if not prefetched:
                ways[block] = False
            return None
        if len(ways) >= self._assoc:
            victim, victim_unused = ways.popitem(last=False)
            ways[block] = prefetched
            if victim_unused:
                self.unused_prefetch_evictions += 1
            return victim
        ways[block] = prefetched
        return None

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if resident; returns whether it was present."""
        ways = self._sets[block % self._num_sets]
        return ways.pop(block, None) is not None

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (test/diagnostic helper)."""
        out: List[int] = []
        for ways in self._sets:
            out.extend(ways.keys())
        return out

    def unused_prefetch_count(self) -> int:
        """Resident prefetched blocks never demand-referenced (end-of-run)."""
        return sum(1 for ways in self._sets for flag in ways.values() if flag)

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)
