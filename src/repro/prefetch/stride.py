"""PC-indexed stride prefetcher — the Table 1 baseline.

A 32-entry table tracks, per load PC, the last block accessed and the last
observed stride; two consecutive identical strides confirm the pattern and
prefetch ``degree`` blocks ahead. The table additionally caps the number of
distinct strides it tracks (Table 1: "max 16 distinct strides").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.config import StrideConfig
from repro.common.lru import LRUTable
from repro.common.stats import StatGroup
from repro.prefetch.base import TARGET_L1, AccessEvent, Prefetcher


@dataclass
class _StrideEntry:
    last_block: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """Classic per-PC stride detector with confidence hysteresis."""

    install_target = TARGET_L1
    name = "stride"

    def __init__(self, config: StrideConfig = StrideConfig()) -> None:
        super().__init__()
        self.config = config
        self._table: LRUTable[int, _StrideEntry] = LRUTable(
            config.table_entries, on_evict=self._on_evict
        )
        #: live non-zero stride -> number of table entries holding it, so
        #: the distinct-stride cap is checked without scanning the table
        self._stride_counts: Dict[int, int] = {}
        self.stats = StatGroup("stride")

    def on_access(self, event: AccessEvent) -> None:
        pc, block = event.access.pc, event.block
        entry = self._table.get(pc)
        if entry is None:
            self._table.put(pc, _StrideEntry(last_block=block))
            return
        stride = block - entry.last_block
        entry.last_block = block
        if stride == 0:
            return
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 8)
        else:
            if not self._stride_allowed(stride):
                entry.confidence = 0
                return
            counts = self._stride_counts
            counts[stride] = counts.get(stride, 0) + 1
            if entry.stride:
                self._release(entry.stride)
            entry.stride = stride
            entry.confidence = 1
        if entry.confidence >= self.config.confidence_threshold:
            self.stats.add("predictions")
            for step in range(1, self.config.degree + 1):
                target_block = block + entry.stride * step
                if target_block >= 0:
                    self._request(target_block, target=TARGET_L1)

    def _stride_allowed(self, stride: int) -> bool:
        """Enforce the distinct-stride cap across the table."""
        counts = self._stride_counts
        return stride in counts or len(counts) < self.config.max_distinct_strides

    def _on_evict(self, pc: int, entry: _StrideEntry) -> None:
        if entry.stride:
            self._release(entry.stride)

    def _release(self, stride: int) -> None:
        """One fewer table entry holds ``stride``."""
        counts = self._stride_counts
        if counts[stride] == 1:
            del counts[stride]
        else:
            counts[stride] -= 1
