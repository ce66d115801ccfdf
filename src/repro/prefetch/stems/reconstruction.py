"""Reconstruction: interleaving temporal and spatial predictions (§4.2).

Given a window of RMOB entries, the reconstructor rebuilds the total
predicted miss order in a fixed-size slot buffer (256 entries):

1. the first entry's address is placed at slot 0;
2. each subsequent RMOB entry is placed ``delta + 1`` slots after the
   previous RMOB entry's slot;
3. every RMOB entry triggers a PST lookup with (entry PC, entry offset);
   each predicted spatial element is placed ``delta + 1`` slots after the
   previous element of that region's sequence (the trigger for the first);
4. a collision searches up to ``placement_window`` (2) slots forward then
   backward; unplaceable addresses are dropped (the paper reports 99%
   placed, 92% in their original slot).

The slot-ordered, de-duplicated block list is the stream's predicted
sequence. Figure 5's worked example is reproduced verbatim in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.addresses import AddressMap
from repro.prefetch.sms.generations import SpatialIndex
from repro.prefetch.stems.pst import PatternSequenceTable


@dataclass
class ReconstructionResult:
    """Outcome of one reconstruction episode."""

    #: predicted blocks in reconstructed (slot) order
    blocks: List[int] = field(default_factory=list)
    placed_original: int = 0
    placed_adjacent: int = 0
    dropped: int = 0
    #: regions whose spatial sequence was expanded: region -> index used
    regions: Dict[int, SpatialIndex] = field(default_factory=dict)


class Reconstructor:
    """Stateless reconstruction engine over a PST and an address map."""

    def __init__(
        self,
        pst: PatternSequenceTable,
        address_map: AddressMap,
        buffer_size: int = 256,
        placement_window: int = 2,
    ) -> None:
        self.pst = pst
        self.address_map = address_map
        self.buffer_size = buffer_size
        self.placement_window = placement_window

    def reconstruct(
        self,
        entries: Sequence[Tuple[int, int, int]],
        include_first: bool = True,
        on_region: Optional[Callable[[int, SpatialIndex], None]] = None,
    ) -> ReconstructionResult:
        """Rebuild the predicted total miss order for ``entries``, RMOB
        ``(block, pc, delta)`` entries (or
        :class:`~repro.prefetch.tms.cmob.MissEntry` values).

        ``include_first=False`` omits the first entry's own block from the
        output (used when that block is the demand miss that started the
        stream — the processor already has it).
        """
        result = ReconstructionResult()
        slots: List[Optional[int]] = [None] * self.buffer_size
        amap = self.address_map

        # phase 1: temporal skeleton — place the RMOB entries themselves
        entry_slots: List[Optional[int]] = []
        cursor = -1
        for i, (block, _, delta) in enumerate(entries):
            cursor = cursor + delta + 1 if i else 0
            placed = self._place(slots, cursor, block, result)
            entry_slots.append(placed)

        # phase 2: spatial expansion — interleave each entry's sequence
        for (entry_block, pc, _), anchor in zip(entries, entry_slots):
            if anchor is None:
                continue
            region = amap.region_of_block(entry_block)
            index = (pc, amap.offset_in_region(entry_block))
            sequence = self.pst.predict(index)
            if not sequence:
                continue
            result.regions[region] = index
            if on_region is not None:
                on_region(region, index)
            position = anchor
            for offset, delta in sequence:
                position = position + delta + 1
                if position >= self.buffer_size:
                    result.dropped += 1
                    continue
                block = amap.block_in_region(region, offset)
                self._place(slots, position, block, result)

        # phase 3: emit in slot order, de-duplicated
        skip_block = entries[0][0] if (entries and not include_first) else None
        seen = set()
        for block in slots:
            if block is None or block in seen:
                continue
            seen.add(block)
            if skip_block is not None and block == skip_block:
                skip_block = None  # only skip its first occurrence
                continue
            result.blocks.append(block)
        return result

    def _place(
        self,
        slots: List[Optional[int]],
        position: int,
        block: int,
        result: ReconstructionResult,
    ) -> Optional[int]:
        """Place ``block`` at ``position``, searching +/-window on conflict."""
        if position < 0 or position >= self.buffer_size:
            result.dropped += 1
            return None
        if slots[position] is None:
            slots[position] = block
            result.placed_original += 1
            return position
        if slots[position] == block:
            result.placed_original += 1
            return position
        for offset in range(1, self.placement_window + 1):
            for candidate in (position + offset, position - offset):
                if 0 <= candidate < self.buffer_size and slots[candidate] is None:
                    slots[candidate] = block
                    result.placed_adjacent += 1
                    return candidate
        result.dropped += 1
        return None
