"""Temporal Memory Streaming prefetcher (TMS, [26]).

TMS appends every off-chip read event to the CMOB. An *unpredicted*
off-chip miss looks up its address' most recent occurrence and begins
streaming the subsequent recorded addresses into the SVB; consumption
extends the stream, keeping ``lookahead`` blocks in flight (§2.2, §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import TMSConfig
from repro.prefetch.base import TARGET_SVB, AccessEvent, Prefetcher
from repro.prefetch.streamqueue import StreamQueue, StreamQueueSet
from repro.prefetch.tms.cmob import CircularMissBuffer


@dataclass
class _TMSCursor:
    """Continuation state of one TMS stream: next CMOB position to read."""

    position: int


class TMSPrefetcher(Prefetcher):
    """TMS: replay of the recorded global off-chip miss sequence."""

    name = "tms"

    #: CMOB entries pulled per refill
    REFILL_BATCH = 16

    def __init__(self, config: TMSConfig = TMSConfig()) -> None:
        super().__init__()
        self.config = config
        self.cmob = CircularMissBuffer(config.cmob_entries)
        self.queues = StreamQueueSet(
            config.stream_queues, config.lookahead, config.initial_fetch
        )

    def on_access(self, event: AccessEvent) -> None:
        if event.access.is_write:
            return
        # 1. streamed-block consumption: confirm and extend the stream
        if event.covered and event.stream_id >= 0:
            for block in self.queues.on_consumed(event.stream_id):
                self._request(block, stream_id=event.stream_id, target=TARGET_SVB)
            self.queues.retire_if_exhausted(event.stream_id)
        if not event.offchip:
            return
        # 2. unpredicted off-chip miss: re-sync an overtaken stream if this
        # block is already in one's pending window, else locate and start
        # a new stream
        if not event.covered:
            pending = self.queues.find_pending(event.block)
            if pending is not None:
                self.stats["stream_resyncs"] += 1
                for block in self.queues.resync(pending.stream_id, event.block):
                    self._request(
                        block, stream_id=pending.stream_id, target=TARGET_SVB
                    )
            else:
                position = self.cmob.find(event.block)
                if position is not None:
                    self._allocate_stream(position + 1)
        # 3. training: append this off-chip event to the global sequence
        self.cmob.append(event.block)

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        queue = self.queues.get(stream_id)
        if queue is not None:
            queue.inflight = max(0, queue.inflight - 1)

    def _allocate_stream(self, start_position: int) -> None:
        self.stats["streams_allocated"] += 1
        queue, initial = self.queues.allocate(
            [], refill=self._refill, cursor=_TMSCursor(start_position)
        )
        for block in initial:
            self._request(block, stream_id=queue.stream_id, target=TARGET_SVB)

    def _refill(self, queue: StreamQueue) -> "list[int]":
        cursor: _TMSCursor = queue.cursor
        entries = self.cmob.read_from(cursor.position, self.REFILL_BATCH)
        cursor.position += len(entries)
        return [block for block, _, _ in entries]
