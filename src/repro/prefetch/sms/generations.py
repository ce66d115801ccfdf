"""Active generation table (AGT): tracks live spatial generations.

A spatial generation (§2.4) starts with the first — *trigger* — access to
an inactive region and ends when one of the region's accessed blocks is
evicted or invalidated from the L1, or when the AGT entry itself is
displaced. The AGT accumulates the order of first-touches; SMS reduces the
order to a pattern, while STeMS keeps the full sequence together with each
element's *delta* (global off-chip misses skipped since the previous
element of this region, Fig. 3).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.common.addresses import AddressMap

#: spatial prediction index: (trigger PC, trigger offset-in-region), §2.4
SpatialIndex = Tuple[int, int]


@dataclass(slots=True)
class SequenceElement:
    """One first-touch in a generation (trigger excluded)."""

    offset: int
    #: off-chip misses between the previous element of this region's
    #: sequence (the trigger for the first element) and this one
    delta: int
    #: whether the first touch was serviced off chip
    offchip: bool


@dataclass(slots=True)
class GenerationRecord:
    """State of one active spatial generation."""

    region: int
    trigger_pc: int
    trigger_offset: int
    #: ``(trigger_pc, trigger_offset)``, the spatial prediction index
    index: SpatialIndex
    #: first-touch sequence, in order, excluding the trigger
    elements: List[SequenceElement] = field(default_factory=list)
    touched: Set[int] = field(default_factory=set)
    #: global miss count at the most recent element (or trigger)
    last_miss_count: int = 0

    def accessed_offsets(self) -> Set[int]:
        """All offsets touched this generation, including the trigger."""
        return set(self.touched)


class ActiveGenerationTable:
    """Fixed-capacity table of active generations with LRU displacement
    (an ``OrderedDict``, oldest region first, stepped inline: every SMS,
    STeMS, hybrid and analysis walk observes each access)."""

    def __init__(
        self,
        entries: int,
        address_map: AddressMap,
        on_generation_end: Optional[Callable[[GenerationRecord], None]] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError(f"capacity must be positive, got {entries}")
        self.capacity = entries
        self.address_map = address_map
        # per-access geometry, hoisted: ``observe`` runs once per L1
        # access for SMS/STeMS, so the region/offset split must be two
        # integer ops on locals rather than two method calls
        self._region_shift = address_map.region_block_bits
        self._offset_mask = address_map.blocks_per_region - 1
        self._on_end = on_generation_end
        self._table: "OrderedDict[int, GenerationRecord]" = OrderedDict()
        self.generations_started = 0
        self.generations_ended = 0

    def _end(self, record: GenerationRecord) -> None:
        self.generations_ended += 1
        if self._on_end is not None:
            self._on_end(record)

    def is_active(self, region: int) -> bool:
        return region in self._table

    def get(self, region: int) -> Optional[GenerationRecord]:
        return self._table.get(region)

    def observe(
        self, pc: int, block: int, offchip: bool, global_miss_count: int = 0
    ) -> Tuple[bool, GenerationRecord]:
        """Record one L1 access; returns ``(is_trigger, record)``, where
        ``record`` is the generation the access belongs to.

        ``global_miss_count`` is the number of off-chip read events seen
        *before* this access. Deltas count misses strictly between
        consecutive elements of a region's sequence (Fig. 3), so an
        off-chip element advances ``last_miss_count`` one past its own
        position while a cache-hit element does not.
        """
        region = block >> self._region_shift
        offset = block & self._offset_mask
        table = self._table
        record = table.get(region)
        if record is None:
            if len(table) >= self.capacity:
                self._end(table.popitem(last=False)[1])
            record = GenerationRecord(
                region, pc, offset, (pc, offset), [], {offset},
                global_miss_count + 1 if offchip else global_miss_count,
            )
            table[region] = record
            self.generations_started += 1
            return True, record
        table.move_to_end(region)
        touched = record.touched
        if offset not in touched:
            touched.add(offset)
            delta = global_miss_count - record.last_miss_count
            record.elements.append(
                SequenceElement(offset, delta if delta > 0 else 0, offchip)
            )
            record.last_miss_count = (
                global_miss_count + 1 if offchip else global_miss_count
            )
        return False, record

    def on_l1_eviction(self, block: int) -> None:
        """End the generation owning ``block`` if it touched that block."""
        region = block >> self._region_shift
        record = self._table.get(region)
        if record is None:
            return
        if (block & self._offset_mask) in record.touched:
            del self._table[region]
            self._end(record)

    def flush(self) -> None:
        """End every active generation, oldest first (end-of-run
        training)."""
        table = self._table
        while table:
            self._end(table.popitem(last=False)[1])
