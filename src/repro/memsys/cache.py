"""Set-associative cache model operating on block numbers.

The cache is purely functional state (no timing): lookups report hit/miss
and fills report the evicted block, which the hierarchy forwards to
prefetchers — SMS/STeMS terminate a spatial generation when one of the
generation's blocks leaves the L1 (§2.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheConfig


class Cache:
    """LRU set-associative cache keyed by block number.

    Each set is a plain ``dict`` in LRU order (least recently used
    first): a touch pops the block and inserts it again, an eviction
    pops the first key. :class:`~repro.memsys.hierarchy.Hierarchy`
    indexes the same dicts itself; this class is its reference.

    Each resident block carries a ``prefetched`` flag so that prefetchers
    installing straight into the cache (SMS) can account useless fetches:
    ``unused_prefetch_evictions`` counts the prefetched blocks evicted
    without ever being demand-referenced.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        # one dict per set: block -> prefetched flag
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(self._num_sets)
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
        # demand reference: no longer a useless prefetch
        was_prefetched = ways.pop(block) if touch else ways[block]
        ways[block] = False
        return True, was_prefetched

    def probe_fill(self, block: int) -> bool:
        """Demand probe that fills on miss; returns whether it hit.

        One set index for the lookup + fill pair (the L2 victim is never
        reported — only L1 evictions terminate spatial generations).
        Equivalent to ``lookup(block) or (fill(block) and False)`` with
        the demand flag-clear semantics of :meth:`demand_lookup`.
        """
        ways = self._sets[block % self._num_sets]
        if block in ways:
            del ways[block]
            ways[block] = False  # demand reference clears the flag
            return True
        if len(ways) >= self._assoc:
            del ways[next(iter(ways))]
        ways[block] = False
        return False

    def fill(self, block: int, prefetched: bool = False) -> Optional[int]:
        """Install ``block``; returns the evicted block, or None."""
        ways = self._sets[block % self._num_sets]
        if block in ways:
            flag = ways.pop(block)
            ways[block] = flag if prefetched else False
            return None
        if len(ways) >= self._assoc:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.unused_prefetch_evictions += 1
            ways[block] = prefetched
            return victim
        ways[block] = prefetched
        return None

    def unused_prefetch_count(self) -> int:
        """Resident prefetched blocks never demand-referenced (end-of-run)."""
        return sum(1 for ways in self._sets for flag in ways.values() if flag)

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)
