"""Naive hybrid: TMS and SMS side by side, no coordination (§3.1, §5.5).

The paper evaluates this design and finds that although its coverage
approaches the joint opportunity, the two predictors interfere and
generate roughly 2-3x the overpredictions of STeMS — the motivation for
unified reconstruction. Each constituent trains and predicts exactly as
standalone; TMS requests target the SVB, SMS requests target the L1.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig, TMSConfig
from repro.prefetch.base import TARGET_SVB, AccessEvent, Prefetcher, Request
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher


class NaiveHybridPrefetcher(Prefetcher):
    """Uncoordinated TMS + SMS combination."""

    install_target = TARGET_SVB
    name = "hybrid"

    def __init__(
        self,
        tms_config: TMSConfig = TMSConfig(),
        sms_config: SMSConfig = SMSConfig(),
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ) -> None:
        super().__init__()
        self.tms = TMSPrefetcher(tms_config)
        self.sms = SMSPrefetcher(sms_config, address_map)

    def on_access(self, event: AccessEvent) -> None:
        self.tms.on_access(event)
        self.sms.on_access(event)

    def on_l1_eviction(self, block: int) -> None:
        self.sms.on_l1_eviction(block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        self.tms.on_svb_discard(block, stream_id)

    def pop_requests(self) -> Sequence[Request]:
        # both constituents name their targets (TMS the SVB, SMS the L1),
        # so their requests pass through unchanged, TMS's first
        tms = self.tms.pop_requests()
        sms = self.sms.pop_requests()
        if not tms:
            return sms
        if not sms:
            return tms
        return [*tms, *sms]

    def finish(self) -> None:
        self.sms.finish()
