"""Composite prefetcher: two engines side by side.

The paper's baseline system includes a stride prefetcher (Table 1), and
the TMS/SMS/STeMS configurations add their predictor on top of it. This
wrapper forwards every event to both engines and merges their requests,
which is what the Fig. 10 performance comparison requires. The naive
hybrid (:mod:`repro.prefetch.hybrid`) pairs TMS with SMS the same way.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.config import StrideConfig
from repro.prefetch.base import AccessEvent, Prefetcher, Request
from repro.prefetch.stride import StridePrefetcher


class CompositePrefetcher(Prefetcher):
    """Stride engine + one main predictor, as in the paper's system model.

    Every hook reaches ``first`` then ``second``, and their requests come
    back in that order; an engine that ignores a hook inherits the base
    no-op.
    """

    def __init__(
        self,
        main: Prefetcher,
        stride_config: StrideConfig = StrideConfig(),
    ) -> None:
        self._pair(StridePrefetcher(stride_config), main)
        self.name = f"stride+{main.name}"

    def _pair(self, first: Prefetcher, second: Prefetcher) -> None:
        super().__init__()
        self.first = first
        self.second = second

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
