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

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

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
        if config.table_entries <= 0:
            raise ValueError(
                f"capacity must be positive, got {config.table_entries}"
            )
        super().__init__()
        self.config = config
        #: miss address -> {successor block: count}, least recently used
        #: first
        self._table: OrderedDict[int, Dict[int, int]] = OrderedDict()
        self._previous_miss: Optional[int] = None

    def on_access(self, event: AccessEvent) -> None:
        if event.access.is_write or not event.offchip:
            return
        block = event.block

        # predict the most likely successors of this miss
        table = self._table
        entry = table.get(block)
        if entry is not None:
            table.move_to_end(block)
        if entry and not event.covered:
            ranked = sorted(entry.items(), key=lambda kv: -kv[1])
            for successor, _count in ranked[: self.config.fanout]:
                self.stats["prefetches"] += 1
                self._request(successor, target=TARGET_SVB)

        # train the (previous miss -> this miss) transition
        previous = self._previous_miss
        if previous is not None and previous != block:
            transitions = table.get(previous)
            if transitions is None:
                if len(table) >= self.config.table_entries:
                    table.popitem(last=False)
                transitions = table[previous] = {}
            else:
                table.move_to_end(previous)
            transitions[block] = transitions.get(block, 0) + 1
            if len(transitions) > self.config.successors:
                weakest = min(transitions, key=transitions.__getitem__)
                del transitions[weakest]
        self._previous_miss = block
