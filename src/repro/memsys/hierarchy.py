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

#: preallocated L1-hit results — one per access on the hot walk, and an
#: L1 hit never evicts
_L1_HIT: AccessResult = (ServiceLevel.L1, None, False)
_L1_PREFETCH_HIT: AccessResult = (ServiceLevel.L1, None, True)


class Hierarchy:
    """Inclusive-of-nothing two-level hierarchy (L1d + unified L2).

    The model is non-inclusive/non-exclusive like most real hierarchies:
    fills go into both levels, and L1 evictions do not back-invalidate L2.
    An L1-installed prefetch that leaves the L1 unreferenced is counted in
    ``l1.unused_prefetch_evictions`` (an overprediction).
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)

    def access(self, block: int) -> AccessResult:
        """Demand access to ``block``; fills on miss; classifies the level.

        Returns ``(level, evicted, prefetch_hit)``: where the access was
        serviced, the block the fill evicted from the L1 (or None), and
        whether this was the first demand touch of a prefetched block.
        """
        hit, prefetch_hit = self.l1.demand_lookup(block)
        if hit:
            return _L1_PREFETCH_HIT if prefetch_hit else _L1_HIT
        if self.l2.probe_fill(block):
            return ServiceLevel.L2, self.l1.fill(block), False
        return ServiceLevel.MEMORY, self.l1.fill(block), False

    def fill_from_svb(self, block: int) -> Optional[int]:
        """Move a consumed SVB block into the hierarchy (L1 + L2); returns
        the block evicted from the L1, or None."""
        self.l2.fill(block)
        return self.l1.fill(block)

    def install_prefetch(self, block: int) -> Optional[int]:
        """Install an L1-targeted prefetch (the standalone-SMS design);
        returns the block evicted from the L1, or None.

        The fetched data passes through L2 as on a real fill; the
        prefetched flag lives in L1 only, so the unused-eviction
        overprediction accounting stays unambiguous.
        """
        self.l2.fill(block)
        return self.l1.fill(block, True)

    def present(self, block: int) -> Optional[ServiceLevel]:
        """Which level currently holds ``block`` (no state change)."""
        if block in self.l1:
            return ServiceLevel.L1
        if block in self.l2:
            return ServiceLevel.L2
        return None
