"""Composite prefetcher: the Table-1 stride engine plus one predictor.

The paper's baseline system includes a stride prefetcher (Table 1), and
the TMS/SMS/STeMS configurations add their predictor on top of it. This
wrapper forwards every event to both engines and merges their requests,
which is what the Fig. 10 performance comparison requires.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.config import StrideConfig
from repro.prefetch.base import AccessEvent, Prefetcher, Request
from repro.prefetch.stride import StridePrefetcher


class CompositePrefetcher(Prefetcher):
    """Stride engine + one main predictor, as in the paper's system model."""

    def __init__(
        self,
        main: Prefetcher,
        stride_config: StrideConfig = StrideConfig(),
    ) -> None:
        super().__init__()
        self.main = main
        self.stride = StridePrefetcher(stride_config)
        self.install_target = main.install_target
        self.name = f"stride+{main.name}"

    def on_access(self, event: AccessEvent) -> None:
        self.stride.on_access(event)
        self.main.on_access(event)

    def on_l1_eviction(self, block: int) -> None:
        self.main.on_l1_eviction(block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        self.main.on_svb_discard(block, stream_id)

    def pop_requests(self) -> Sequence[Request]:
        # stride requests name their L1 target; the main engine's default
        # target is this wrapper's ``install_target``, so both lists pass
        # through unchanged, stride requests first
        stride = self.stride.pop_requests()
        main = self.main.pop_requests()
        if not stride:
            return main
        if not main:
            return stride
        return [*stride, *main]

    def finish(self) -> None:
        if hasattr(self.main, "finish"):
            self.main.finish()
