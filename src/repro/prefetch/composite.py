"""Composite prefetcher: two engines side by side.

The naive hybrid (:mod:`repro.prefetch.hybrid`) pairs TMS with SMS this
way: every event reaches both engines and their requests merge. The
Table-1 stride engine that the Fig. 10 system adds to every predictor is
not paired here; a walk carrying it reads a shared
:class:`~repro.sim.driver.StrideStream` instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.prefetch.base import AccessEvent, Prefetcher, Request


class CompositePrefetcher(Prefetcher):
    """Two engines, ``first`` and ``second``, as one predictor.

    Every hook reaches ``first`` then ``second``, and their requests come
    back in that order; an engine that ignores a hook inherits the base
    no-op.
    """

    def __init__(self, first: Prefetcher, second: Prefetcher) -> None:
        self._pair(first, second)

    def _pair(self, first: Prefetcher, second: Prefetcher) -> None:
        # also the entry of subclasses that build their engines first
        super().__init__()
        self.first = first
        self.second = second

    @property
    def name(self) -> str:
        return f"{self.first.name}+{self.second.name}"

    def on_access(self, event: AccessEvent) -> None:
        self.first.on_access(event)
        self.second.on_access(event)

    def on_l1_eviction(self, block: int) -> None:
        self.first.on_l1_eviction(block)
        self.second.on_l1_eviction(block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        self.first.on_svb_discard(block, stream_id)
        self.second.on_svb_discard(block, stream_id)

    def pop_requests(self) -> Sequence[Request]:
        # every request names its target, so both lists pass through
        # unchanged, the first engine's first
        first = self.first.pop_requests()
        second = self.second.pop_requests()
        if not first:
            return second
        if not second:
            return first
        return [*first, *second]

    def finish(self) -> None:
        self.first.finish()
        self.second.finish()
