"""Pattern history table (PHT) for SMS.

Indexed by (trigger PC, trigger offset). Two storage formats:

* **bit vectors** — the original SMS design: the last observed footprint
  replaces the stored pattern;
* **2-bit saturating counters** per block — the upgrade introduced in
  §4.3 of the STeMS paper: stable blocks stay predicted while unstable
  blocks train down, roughly halving overpredictions at equal coverage.

New patterns initialize at the prediction threshold so that a layout
learned once predicts immediately (SMS's fast-training property, §2.4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Set

from repro.common.config import SMSConfig
from repro.prefetch.sms.generations import SpatialIndex


class PatternHistoryTable:
    """LRU-bounded spatial pattern store (an ``OrderedDict``, least
    recently used first, LRU steps inline)."""

    def __init__(self, config: SMSConfig, blocks_per_region: int) -> None:
        if config.pht_entries <= 0:
            raise ValueError(f"capacity must be positive, got {config.pht_entries}")
        self.config = config
        self.blocks_per_region = blocks_per_region
        # index -> per-offset counter (counter mode) or 0/1 flags (bit mode)
        self._table: OrderedDict[SpatialIndex, Dict[int, int]] = OrderedDict()
        self.trainings = 0

    def __contains__(self, index: SpatialIndex) -> bool:
        return index in self._table

    def __len__(self) -> int:
        return len(self._table)

    def train(self, index: SpatialIndex, accessed_offsets: Set[int]) -> None:
        """Fold one completed generation's footprint into the table."""
        self.trainings += 1
        offsets = {o for o in accessed_offsets if 0 <= o < self.blocks_per_region}
        table = self._table
        entry = table.get(index)
        if entry is not None:
            table.move_to_end(index)
        elif len(table) >= self.config.pht_entries:
            table.popitem(last=False)
        if not self.config.use_counters:
            table[index] = {o: 1 for o in offsets}
            return
        if entry is None:
            # optimistic initialization for a brand-new index: a layout
            # learned once predicts immediately (fast training, §2.4)
            table[index] = {o: self.config.predict_threshold for o in offsets}
            return
        for offset in offsets:
            # offsets joining an established pattern start below threshold:
            # unstable (page-private) blocks then never reach prediction
            current = entry.get(offset, self.config.predict_threshold - 2)
            entry[offset] = min(current + 1, self.config.counter_max)
        for offset in list(entry):
            if offset not in offsets:
                entry[offset] -= 1
                if entry[offset] <= 0:
                    del entry[offset]

    def predict(self, index: SpatialIndex) -> List[int]:
        """Offsets predicted for ``index`` (unordered; SMS has no order)."""
        table = self._table
        entry = table.get(index)
        if entry is None:
            return []
        table.move_to_end(index)
        if not self.config.use_counters:
            return sorted(entry)
        threshold = self.config.predict_threshold
        return sorted(o for o, c in entry.items() if c >= threshold)
