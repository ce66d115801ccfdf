"""Pattern sequence table (PST): ordered spatial patterns with deltas.

STeMS's PST differs from the SMS PHT in that each entry stores a
*sequence*: for every block of the region a 2-bit saturating counter, the
block's position in the observed first-touch order, and its reconstruction
delta (global misses skipped since the previous element, §3.1/§4.3 —
40 bytes per entry: 32 blocks x (2-bit counter + 8-bit delta)). Blocks
whose counters reach the threshold are predicted, in stored order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.common.config import STeMSConfig
from repro.common.lru import LRUTable
from repro.prefetch.sms.generations import SequenceElement, SpatialIndex


@dataclass
class _BlockState:
    counter: int
    delta: int
    position: int


class PatternSequenceTable:
    """LRU-bounded table: spatial index -> per-block sequence state."""

    def __init__(self, config: STeMSConfig, blocks_per_region: int) -> None:
        self.config = config
        self.blocks_per_region = blocks_per_region
        self._table: LRUTable[SpatialIndex, Dict[int, _BlockState]] = LRUTable(
            config.pst_entries
        )
        self.trainings = 0

    def __contains__(self, index: SpatialIndex) -> bool:
        return index in self._table

    def __len__(self) -> int:
        return len(self._table)

    def train(self, index: SpatialIndex, elements: Sequence[SequenceElement]) -> None:
        """Fold one completed generation's sequence into the table.

        Observed blocks strengthen their counter and refresh (delta,
        position) to the most recent observation; unobserved blocks weaken
        and eventually drop out — the hysteresis that lets STeMS learn the
        stable part of each pattern (§4.3).
        """
        self.trainings += 1
        observed = [
            e for e in elements if 0 <= e.offset < self.blocks_per_region
        ]
        entry = self._table.get(index)
        if entry is None:
            entry = {}
            init = self.config.predict_threshold  # optimistic: predict once-seen
            for position, element in enumerate(observed):
                if element.offset in entry:
                    continue
                entry[element.offset] = _BlockState(
                    counter=init, delta=element.delta, position=position
                )
            self._table.put(index, entry)
            return
        seen: Set[int] = set()
        for position, element in enumerate(observed):
            if element.offset in seen:
                continue
            seen.add(element.offset)
            state = entry.get(element.offset)
            if state is None:
                # joining an established pattern: start below threshold so
                # page-private (unstable) blocks never reach prediction
                entry[element.offset] = _BlockState(
                    counter=self.config.predict_threshold - 1,
                    delta=element.delta,
                    position=position,
                )
            else:
                state.counter = min(state.counter + 1, self.config.counter_max)
                state.delta = element.delta
                state.position = position
        for offset in list(entry):
            if offset not in seen:
                entry[offset].counter -= 1
                if entry[offset].counter <= 0:
                    del entry[offset]

    def predict(self, index: SpatialIndex) -> List[Tuple[int, int]]:
        """Predicted sequence for ``index`` as ``(offset, delta)`` pairs,
        in stored order."""
        entry = self._table.get(index)
        if entry is None:
            return []
        threshold = self.config.predict_threshold
        chosen = [
            (state.position, offset, state.delta)
            for offset, state in entry.items()
            if state.counter >= threshold
        ]
        chosen.sort()
        return [(o, d) for _, o, d in chosen]

    def predict_offsets(self, index: SpatialIndex) -> Set[int]:
        """Predicted offsets only (used for the RMOB filtering decision).

        Runs once per off-chip read event, so it skips :meth:`predict`'s
        ordering and pair construction — the set of offsets meeting the
        threshold is the same either way.
        """
        entry = self._table.get(index)
        if entry is None:
            return set()
        threshold = self.config.predict_threshold
        return {
            offset for offset, state in entry.items()
            if state.counter >= threshold
        }
