"""Markov prefetcher (Joseph & Grunwald, ISCA 1997 — [13]).

The original address-correlating prefetcher the temporal-streaming line
descends from (§1). A bounded table maps each miss address to the
addresses that most recently followed it (its Markov successors, with
per-successor hit counts); on a miss, the top ``fanout`` successors are
prefetched.

Unlike TMS/STeMS it has no notion of *streams*: every miss predicts one
step ahead, so it cannot amortize lookup cost over long sequences nor run
ahead of a pointer chase — the limitation §2.1 attributes to pre-TMS
correlation prefetchers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.lru import LRUTable
from repro.common.stats import StatGroup
from repro.prefetch.base import TARGET_SVB, AccessEvent, Prefetcher


@dataclass(frozen=True)
class MarkovConfig:
    """1-Mbit-class correlation table: 4K entries, 4 successors each."""

    table_entries: int = 4096
    successors: int = 4
    fanout: int = 2


class MarkovPrefetcher(Prefetcher):
    """First-order Markov (pair-correlation) prefetcher."""

    name = "markov"

    def __init__(self, config: MarkovConfig = MarkovConfig()) -> None:
        super().__init__()
        self.config = config
        #: miss address -> {successor block: count}, LRU bounded
        self._table: LRUTable[int, Dict[int, int]] = LRUTable(config.table_entries)
        self._previous_miss: Optional[int] = None
        self.stats = StatGroup("markov")

    def on_access(self, event: AccessEvent) -> None:
        if event.access.is_write or not event.offchip:
            return
        block = event.block

        # predict the most likely successors of this miss
        entry = self._table.get(block)
        if entry and not event.covered:
            ranked = sorted(entry.items(), key=lambda kv: -kv[1])
            for successor, _count in ranked[: self.config.fanout]:
                self.stats.add("prefetches")
                self._request(successor, target=TARGET_SVB)

        # train the (previous miss -> this miss) transition
        if self._previous_miss is not None and self._previous_miss != block:
            transitions = self._table.get(self._previous_miss)
            if transitions is None:
                transitions = {}
                self._table.put(self._previous_miss, transitions)
            transitions[block] = transitions.get(block, 0) + 1
            if len(transitions) > self.config.successors:
                weakest = min(transitions, key=transitions.__getitem__)
                del transitions[weakest]
        self._previous_miss = block
