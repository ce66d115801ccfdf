"""Naive hybrid: TMS and SMS side by side, no coordination (§3.1, §5.5).

The paper evaluates this design and finds that although its coverage
approaches the joint opportunity, the two predictors interfere and
generate roughly 2-3x the overpredictions of STeMS — the motivation for
unified reconstruction. Each constituent trains and predicts exactly as
standalone; TMS requests target the SVB, SMS requests target the L1.
"""

from __future__ import annotations

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig, TMSConfig
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher


class NaiveHybridPrefetcher(CompositePrefetcher):
    """Uncoordinated TMS + SMS combination (TMS's requests first)."""

    name = "hybrid"

    def __init__(
        self,
        tms_config: TMSConfig = TMSConfig(),
        sms_config: SMSConfig = SMSConfig(),
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ) -> None:
        self.tms = TMSPrefetcher(tms_config)
        self.sms = SMSPrefetcher(sms_config, address_map)
        self._pair(self.tms, self.sms)
