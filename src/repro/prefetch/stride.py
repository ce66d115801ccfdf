"""PC-indexed stride prefetcher — the Table 1 baseline.

A 32-entry table tracks, per load PC, the last block accessed and the last
observed stride; two consecutive identical strides confirm the pattern and
prefetch ``degree`` blocks ahead. The table additionally caps the number of
distinct strides it tracks (Table 1: "max 16 distinct strides").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.common.config import StrideConfig
from repro.prefetch.base import TARGET_L1, AccessEvent, Prefetcher


@dataclass
class _StrideEntry:
    last_block: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """Classic per-PC stride detector with confidence hysteresis."""

    name = "stride"

    def __init__(self, config: StrideConfig = StrideConfig()) -> None:
        if config.table_entries <= 0:
            raise ValueError(
                f"capacity must be positive, got {config.table_entries}"
            )
        super().__init__()
        self.config = config
        #: PC -> entry, least recently used first
        self._table: OrderedDict[int, _StrideEntry] = OrderedDict()
        #: live non-zero stride -> number of table entries holding it, so
        #: the distinct-stride cap is checked without scanning the table
        self._stride_counts: Dict[int, int] = {}

    def on_access(self, event: AccessEvent) -> None:
        pc, block = event.access.pc, event.block
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.config.table_entries:
                # the displaced entry no longer holds its stride
                evicted = table.popitem(last=False)[1]
                if evicted.stride:
                    self._release(evicted.stride)
            table[pc] = _StrideEntry(last_block=block)
            return
        table.move_to_end(pc)
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
            self.stats["predictions"] += 1
            for step in range(1, self.config.degree + 1):
                target_block = block + entry.stride * step
                if target_block >= 0:
                    self._request(target_block, target=TARGET_L1)

    def _stride_allowed(self, stride: int) -> bool:
        """Enforce the distinct-stride cap across the table."""
        counts = self._stride_counts
        return stride in counts or len(counts) < self.config.max_distinct_strides

    def _release(self, stride: int) -> None:
        """One fewer table entry holds ``stride``."""
        counts = self._stride_counts
        if counts[stride] == 1:
            del counts[stride]
        else:
            counts[stride] -= 1
