"""Spatial Memory Streaming prefetcher (SMS, [21]).

On the trigger access to an inactive region, SMS looks up the PHT with
(trigger PC, trigger offset) and fetches every predicted block of the new
region straight into the L1 (its original design). Training happens at
generation end via the AGT.
"""

from __future__ import annotations

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig
from repro.common.stats import StatGroup
from repro.prefetch.base import TARGET_L1, AccessEvent, Prefetcher
from repro.prefetch.sms.generations import ActiveGenerationTable, GenerationRecord
from repro.prefetch.sms.pht import PatternHistoryTable


class SMSPrefetcher(Prefetcher):
    """SMS: spatial footprint prediction at spatial-generation granularity."""

    name = "sms"

    def __init__(
        self,
        config: SMSConfig = SMSConfig(),
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ) -> None:
        super().__init__()
        self.config = config
        self.address_map = address_map
        self.pht = PatternHistoryTable(config, address_map.blocks_per_region)
        self.agt = ActiveGenerationTable(
            config.agt_entries, address_map, on_generation_end=self._train
        )
        self.stats = StatGroup("sms")

    def _train(self, record: GenerationRecord) -> None:
        self.pht.train(record.index, record.accessed_offsets())

    def on_access(self, event: AccessEvent) -> None:
        """Observe every L1 access; predict on triggers."""
        is_trigger, record = self.agt.observe(
            event.access.pc, event.block, event.offchip
        )
        if not is_trigger:
            return
        predicted = self.pht.predict(record.index)
        if not predicted:
            return
        self.stats.add("trigger_predictions")
        for offset in predicted:
            if offset == record.trigger_offset:
                continue
            self.stats.add("blocks_predicted")
            self._request(
                self.address_map.block_in_region(record.region, offset),
                target=TARGET_L1,
            )

    def on_l1_eviction(self, block: int) -> None:
        self.agt.on_l1_eviction(block)

    def finish(self) -> None:
        """End-of-run: train from all still-active generations."""
        self.agt.flush()
