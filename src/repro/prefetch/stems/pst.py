"""Pattern sequence table (PST): ordered spatial patterns with deltas.

STeMS's PST differs from the SMS PHT in that each entry stores a
*sequence*: for every block of the region a 2-bit saturating counter, the
block's position in the observed first-touch order, and its reconstruction
delta (global misses skipped since the previous element, §3.1/§4.3 —
40 bytes per entry: 32 blocks x (2-bit counter + 8-bit delta)). Blocks
whose counters reach the threshold are predicted, in stored order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.common.config import STeMSConfig
from repro.prefetch.sms.generations import SequenceElement, SpatialIndex

#: one index's prediction: ``(offset, delta)`` pairs in stored order, and
#: their offsets
_Prediction = Tuple[List[Tuple[int, int]], FrozenSet[int]]

_NO_OFFSETS: FrozenSet[int] = frozenset()


@dataclass
class _BlockState:
    counter: int
    delta: int
    position: int


class PatternSequenceTable:
    """LRU-bounded table: spatial index -> per-block sequence state (its
    own ``OrderedDict``, LRU steps inline: :meth:`predict` is hot)."""

    def __init__(self, config: STeMSConfig, blocks_per_region: int) -> None:
        if config.pst_entries <= 0:
            raise ValueError(f"capacity must be positive, got {config.pst_entries}")
        self.config = config
        self.blocks_per_region = blocks_per_region
        self._table: OrderedDict[SpatialIndex, Dict[int, _BlockState]] = OrderedDict()
        #: each index's prediction, until retrained or evicted
        self._predicted: Dict[SpatialIndex, _Prediction] = {}
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
        self._predicted.pop(index, None)
        observed = [
            e for e in elements if 0 <= e.offset < self.blocks_per_region
        ]
        table = self._table
        entry = table.get(index)
        if entry is None:
            entry = {}
            init = self.config.predict_threshold  # optimistic: predict once-seen
            for position, element in enumerate(observed):
                if element.offset in entry:
                    continue
                entry[element.offset] = _BlockState(
                    counter=init, delta=element.delta, position=position
                )
            if len(table) >= self.config.pst_entries:
                self._predicted.pop(table.popitem(last=False)[0], None)
            table[index] = entry
            return
        table.move_to_end(index)
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
        in stored order; a hit refreshes the entry's recency. The list is
        built once and shared by every call until ``index`` is retrained
        or evicted, so callers must not modify it.
        """
        predicted = self._predicted.get(index)  # set only while resident
        if predicted is None:
            predicted = self._build(index)
            if predicted is None:
                return []
        self._table.move_to_end(index)
        return predicted[0]

    def predict_offsets(self, index: SpatialIndex) -> FrozenSet[int]:
        """The offsets :meth:`predict` returns, as a set (the RMOB
        filtering decision, once per off-chip read event); shares
        :meth:`predict`'s memo and refreshes recency the same way.
        """
        predicted = self._predicted.get(index)
        if predicted is None:
            predicted = self._build(index)
            if predicted is None:
                return _NO_OFFSETS
        self._table.move_to_end(index)
        return predicted[1]

    def _build(self, index: SpatialIndex) -> Optional[_Prediction]:
        """Memoize ``index``'s prediction; None when it is not resident."""
        entry = self._table.get(index)
        if entry is None:
            return None
        threshold = self.config.predict_threshold
        chosen = sorted(
            (state.position, offset, state.delta)
            for offset, state in entry.items() if state.counter >= threshold
        )
        pairs = [(o, d) for _, o, d in chosen]
        predicted = self._predicted[index] = (pairs, frozenset(o for o, _ in pairs))
        return predicted
