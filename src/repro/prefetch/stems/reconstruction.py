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
    """Stateless reconstruction engine over a PST and an address map;
    :meth:`reconstruct` (every stream setup and refill) runs inline."""

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
        #: collision probe order within the window: +1, -1, +2, -2, ...
        self._probes = [s for d in range(1, placement_window + 1) for s in (d, -d)]

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
        size = self.buffer_size
        probes = self._probes
        shift = self.address_map.region_block_bits
        mask = self.address_map.blocks_per_region - 1
        predict = self.pst.predict
        slots: List[Optional[int]] = [None] * size
        original = adjacent = dropped = 0
        regions: Dict[int, SpatialIndex] = {}

        # phase 1: temporal skeleton — place the RMOB entries themselves
        # (a block takes its slot, else the first free probe, else drops)
        anchors: List[Optional[int]] = []
        position = 0
        for i, (block, _, delta) in enumerate(entries):
            if i:
                position += delta + 1
            anchor = None
            if 0 <= position < size:
                if slots[position] is None or slots[position] == block:
                    anchor = position
                    original += 1
                else:
                    for step in probes:
                        if 0 <= position + step < size \
                                and slots[position + step] is None:
                            anchor = position + step
                            adjacent += 1
                            break
            if anchor is None:
                dropped += 1
            else:
                slots[anchor] = block
            anchors.append(anchor)

        # phase 2: spatial expansion — interleave each entry's sequence
        for (entry_block, pc, _), anchor in zip(entries, anchors):
            if anchor is None:
                continue
            region = entry_block >> shift
            index = (pc, entry_block & mask)
            sequence = predict(index)
            if not sequence:
                continue
            regions[region] = index
            if on_region is not None:
                on_region(region, index)
            base = region << shift
            position = anchor
            for offset, delta in sequence:
                position += delta + 1
                if not 0 <= position < size:
                    dropped += 1
                    continue
                block = base | offset
                if slots[position] is None or slots[position] == block:
                    slots[position] = block
                    original += 1
                    continue
                for step in probes:
                    if 0 <= position + step < size \
                            and slots[position + step] is None:
                        slots[position + step] = block
                        adjacent += 1
                        break
                else:
                    dropped += 1

        # phase 3: emit in slot order, de-duplicated
        order = dict.fromkeys(slots)
        order.pop(None, None)
        if entries and not include_first:
            order.pop(entries[0][0], None)
        return ReconstructionResult(list(order), original, adjacent,
                                    dropped, regions)
