"""The STeMS prefetcher: unified spatio-temporal streaming (§4).

Training (§4.1):

* the AGT/PST train on all L1 accesses as in SMS, but keep the full
  first-touch *sequence* with per-element deltas;
* every off-chip read event is either appended to the RMOB (spatial
  triggers and spatially-unpredicted misses, with PC and delta) or
  counted as *skipped* (spatially predicted misses), which is what the
  recorded deltas measure.

Streaming (§4.2):

* an unpredicted off-chip miss looks up the RMOB; a hit starts a stream
  whose addresses come from *reconstruction* — the interleaving of the
  RMOB skeleton with each entry's PST sequence;
* consumption (SVB hits) extends the stream toward the lookahead; when a
  queue runs low, reconstruction resumes from the stream's RMOB cursor;
* a new spatial generation whose index was not produced by reconstruction
  starts a *spatial-only* stream (deltas ignored) — the mechanism that
  covers compulsory-miss regions such as DSS scans.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Set

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import STeMSConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import TARGET_SVB, AccessEvent, Prefetcher
from repro.prefetch.sms.generations import (
    ActiveGenerationTable,
    GenerationRecord,
    SpatialIndex,
)
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.stems.reconstruction import Reconstructor
from repro.prefetch.streamqueue import StreamQueue, StreamQueueSet
from repro.prefetch.tms.cmob import CircularMissBuffer


@dataclass
class _STeMSCursor:
    """Continuation state of one reconstructed stream."""

    position: int  # next RMOB absolute position to reconstruct from
    issued: Set[int] = field(default_factory=set)  # blocks already streamed


class STeMSPrefetcher(Prefetcher):
    """Spatio-Temporal Memory Streaming."""

    name = "stems"

    #: bound on the per-stream de-duplication set
    MAX_ISSUED_TRACKED = 8192
    #: regions remembered from reconstruction (LRU beyond this)
    RECONSTRUCTED_REGIONS = 4096

    def __init__(
        self,
        config: STeMSConfig = STeMSConfig(),
        address_map: AddressMap = DEFAULT_ADDRESS_MAP,
    ) -> None:
        super().__init__()
        self.config = config
        self.address_map = address_map
        self.pst = PatternSequenceTable(config, address_map.blocks_per_region)
        self.agt = ActiveGenerationTable(
            config.agt_entries, address_map, on_generation_end=self._train
        )
        self.rmob = CircularMissBuffer(config.rmob_entries)
        self.reconstructor = Reconstructor(
            self.pst,
            address_map,
            buffer_size=config.reconstruction_entries,
            placement_window=config.placement_window,
        )
        self.queues = StreamQueueSet(
            config.stream_queues, config.lookahead, config.initial_fetch
        )
        #: regions predicted by reconstruction -> index used (for the
        #: spatial-only stream decision, §4.2), least recently set first
        self._reconstructed: OrderedDict[int, SpatialIndex] = OrderedDict()
        self._miss_count = 0  # off-chip read events observed so far
        self._skipped = 0  # misses omitted from the RMOB since last append
        # hot-loop binding: ``on_access`` runs once per simulated access
        self._offset_mask = address_map.blocks_per_region - 1

    # -- training ----------------------------------------------------------------

    def _train(self, record: GenerationRecord) -> None:
        self.pst.train(record.index, record.elements)

    # -- event handling ----------------------------------------------------------

    def on_access(self, event: AccessEvent) -> None:
        block, pc = event.block, event.access.pc
        is_read = not event.access.is_write
        offchip_event = event.offchip and is_read

        # 1. streamed-block consumption: confirm + extend the stream
        if event.covered and event.stream_id >= 0:
            self._extend_stream(event.stream_id)

        # 2. unpredicted off-chip miss: re-sync an overtaken stream when the
        # block is already in one's pending window; otherwise locate the
        # address in the RMOB and start a reconstructed stream
        if is_read and event.level == ServiceLevel.MEMORY and not event.covered:
            pending = self.queues.find_pending(block)
            if pending is not None:
                self.stats["stream_resyncs"] += 1
                for pf_block in self.queues.resync(pending.stream_id, block):
                    self._request(
                        pf_block, stream_id=pending.stream_id, target=TARGET_SVB
                    )
            else:
                position = self.rmob.find(block)
                if position is not None:
                    self._allocate_reconstructed_stream(position)

        # 3. spatial training: AGT observes every access
        is_trigger, record = self.agt.observe(
            pc, block, offchip_event, self._miss_count
        )

        # 4. spatial-only stream on unpredicted generation begins
        if is_trigger and offchip_event:
            self._maybe_spatial_only_stream(record)

        # 5. temporal training: RMOB append or skip
        if offchip_event:
            spatially_predicted = False
            if not is_trigger:
                offset = block & self._offset_mask
                spatially_predicted = offset in self.pst.predict_offsets(record.index)
            if is_trigger or not spatially_predicted:
                self.rmob.append(block, pc=pc, delta=self._skipped)
                self._skipped = 0
                self.stats["rmob_appends"] += 1
            else:
                self._skipped += 1
                self.stats["rmob_filtered"] += 1
            self._miss_count += 1

    def on_l1_eviction(self, block: int) -> None:
        self.agt.on_l1_eviction(block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        queue = self.queues.get(stream_id)
        if queue is not None:
            queue.inflight = max(0, queue.inflight - 1)

    def finish(self) -> None:
        """End-of-run: train from all still-active generations."""
        self.agt.flush()

    # -- streaming ---------------------------------------------------------------

    def _extend_stream(self, stream_id: int) -> None:
        queue = self.queues.get(stream_id)
        if queue is None:
            return
        for block in self.queues.on_consumed(stream_id):
            self._request(block, stream_id=stream_id, target=TARGET_SVB)
        self.queues.retire_if_exhausted(stream_id)

    def _allocate_reconstructed_stream(self, position: int) -> None:
        """Start a stream by reconstructing from RMOB ``position``.

        The located entry itself participates (its spatial sequence is
        predicted) but its own block — the demand miss — is excluded.
        """
        entries = self.rmob.read_from(position, self.config.reconstruction_batch)
        if not entries:
            return
        result = self.reconstructor.reconstruct(
            entries, include_first=False, on_region=self._register_region
        )
        self._note_placement(result)
        if not result.blocks:
            return  # nothing predicted: do not waste a stream queue
        cursor = _STeMSCursor(position=position + len(entries))
        cursor.issued.update(result.blocks)
        queue, initial = self.queues.allocate(
            result.blocks, refill=self._refill, cursor=cursor
        )
        self.stats["reconstructed_streams"] += 1
        for block in initial:
            self._request(block, stream_id=queue.stream_id, target=TARGET_SVB)

    def _refill(self, queue: StreamQueue) -> List[int]:
        """Resume reconstruction for a stream whose queue ran low (§4.2)."""
        cursor: _STeMSCursor = queue.cursor
        entries = self.rmob.read_from(cursor.position, self.config.reconstruction_batch)
        if not entries:
            return []
        result = self.reconstructor.reconstruct(
            entries, include_first=True, on_region=self._register_region
        )
        self._note_placement(result)
        cursor.position += len(entries)
        fresh = [b for b in result.blocks if b not in cursor.issued]
        if len(cursor.issued) < self.MAX_ISSUED_TRACKED:
            cursor.issued.update(fresh)
        return fresh

    def _maybe_spatial_only_stream(self, record: GenerationRecord) -> None:
        """§4.2: begin a spatial-only stream when the observed trigger index
        differs from (or was absent in) the reconstructed prediction."""
        predicted_index = self._reconstructed.get(record.region)
        if predicted_index == record.index:
            return
        sequence = self.pst.predict(record.index)
        if not sequence:
            return
        blocks = [
            self.address_map.block_in_region(record.region, offset)
            for offset, _ in sequence
            if offset != record.trigger_offset
        ]
        if not blocks:
            return
        self.stats["spatial_only_streams"] += 1
        queue, initial = self.queues.allocate(blocks)
        for block in initial:
            self._request(block, stream_id=queue.stream_id, target=TARGET_SVB)

    def _register_region(self, region: int, index: SpatialIndex) -> None:
        regions = self._reconstructed
        if region in regions:
            regions.move_to_end(region)
        elif len(regions) >= self.RECONSTRUCTED_REGIONS:
            regions.popitem(last=False)
        regions[region] = index

    def _note_placement(self, result) -> None:
        self.stats["recon_placed_original"] += result.placed_original
        self.stats["recon_placed_adjacent"] += result.placed_adjacent
        self.stats["recon_dropped"] += result.dropped
