"""Global History Buffer prefetcher (Nesbit & Smith, HPCA 2004 — [17]).

One of the temporal address-correlating predictors the paper builds on
(§1). The GHB keeps the recent global miss history in a circular buffer;
an index table maps a localization key to the most recent history entry
with that key, and entries with the same key are chained. We implement
the classic **G/AC** organization (globally indexed, address-correlating):
on a miss, follow the chain to the previous occurrence of the address and
prefetch the ``degree`` misses that followed it.

Compared with TMS, the GHB is an *on-chip* structure: its history is two
orders of magnitude smaller (hundreds of entries vs. hundreds of
thousands), so it can only exploit short-range temporal correlation —
which is exactly why the TMS/STeMS line of work moved the history off
chip. The contrast is visible in the Fig. 9-style comparison: GHB
coverage collapses on working sets that outrun its history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.prefetch.base import TARGET_SVB, AccessEvent, Prefetcher


@dataclass(frozen=True)
class GHBConfig:
    """Classic on-chip GHB sizing (256-entry history, 256-entry index)."""

    history_entries: int = 256
    index_entries: int = 256
    degree: int = 4


class _HistoryEntry:
    __slots__ = ("block", "link")

    def __init__(self, block: int, link: Optional[int]) -> None:
        self.block = block
        #: absolute position of the previous entry with the same key
        self.link = link


class GHBPrefetcher(Prefetcher):
    """G/AC global history buffer prefetcher."""

    name = "ghb"

    def __init__(self, config: GHBConfig = GHBConfig()) -> None:
        super().__init__()
        self.config = config
        self._ring: List[Optional[_HistoryEntry]] = [None] * config.history_entries
        self._head = 0  # absolute position of next append
        self._index: Dict[int, int] = {}  # block -> most recent position

    def _valid(self, position: Optional[int]) -> bool:
        return (
            position is not None
            and 0 <= position < self._head
            and position > self._head - self.config.history_entries - 1
        )

    def on_access(self, event: AccessEvent) -> None:
        if event.access.is_write or not event.offchip:
            return
        block = event.block
        previous = self._index.get(block)
        if not self._valid(previous):
            previous = None

        # predict: replay the misses that followed the previous occurrence
        if previous is not None and not event.covered:
            self.stats["chain_hits"] += 1
            for position in range(previous + 1, previous + 1 + self.config.degree):
                if not self._valid(position):
                    break
                entry = self._ring[position % self.config.history_entries]
                if entry is None:
                    break
                self.stats["prefetches"] += 1
                self._request(entry.block, target=TARGET_SVB)

        # train: append to the history, linking same-address entries
        slot = self._head % self.config.history_entries
        overwritten = self._ring[slot]
        if overwritten is not None:
            stale = self._index.get(overwritten.block)
            if stale is not None and not self._valid(stale):
                del self._index[overwritten.block]
        self._ring[slot] = _HistoryEntry(block, previous)
        if len(self._index) >= self.config.index_entries and block not in self._index:
            # bounded index table: drop an arbitrary (oldest-ish) mapping
            self._index.pop(next(iter(self._index)))
        self._index[block] = self._head
        self._head += 1
