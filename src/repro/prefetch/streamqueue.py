"""Stream queues with demand-driven throttling, shared by TMS and STeMS.

A stream queue holds the not-yet-fetched tail of one predicted miss
sequence. Streaming follows §4.2/§4.3 of the paper:

* a newly allocated stream fetches only ``initial_fetch`` block(s);
* consuming a streamed block (an SVB hit) confirms the stream and extends
  it so that up to ``lookahead`` blocks are in flight;
* when a queue runs low it asks its ``refill`` callback for more addresses
  (TMS reads more CMOB entries; STeMS resumes reconstruction);
* a fixed number of queues (8) is shared, with LRU victim selection keyed
  by stream activity (allocations, fetches and hits).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional

#: refill callback: given the stream's opaque cursor state, return more
#: upcoming block addresses (empty list ends the stream).
RefillFn = Callable[["StreamQueue"], List[int]]


class StreamQueue:
    """One predicted stream: pending addresses plus in-flight accounting."""

    def __init__(
        self,
        stream_id: int,
        addresses: Iterable[int],
        refill: Optional[RefillFn] = None,
        cursor: object = None,
    ) -> None:
        self.stream_id = stream_id
        self.pending: Deque[int] = deque(addresses)
        self._pending_set = set(self.pending)
        self.refill = refill
        #: opaque per-stream continuation state owned by the prefetcher
        self.cursor = cursor
        self.inflight = 0
        self.hits = 0
        self.fetched = 0
        self.exhausted = refill is None and not self.pending

    def pending_position(self, block: int, window: int) -> Optional[int]:
        """Position of ``block`` within the first ``window`` pending
        entries, or None. Bounding the search matters: a block can recur
        deep in a predicted sequence, and skipping to a *later* occurrence
        would discard valid stream content."""
        if block not in self._pending_set:
            return None
        for position, pending_block in enumerate(self.pending):
            if position >= window:
                return None
            if pending_block == block:
                return position
        return None

    def next_blocks(self, count: int) -> List[int]:
        """Take up to ``count`` upcoming addresses, refilling as needed."""
        out: List[int] = []
        while len(out) < count:
            if not self.pending:
                if self.refill is None or self.exhausted:
                    break
                more = self.refill(self)
                if not more:
                    self.exhausted = True
                    break
                self.pending.extend(more)
                self._pending_set.update(more)
            block = self.pending.popleft()
            self._pending_set.discard(block)
            out.append(block)
        self.fetched += len(out)
        self.inflight += len(out)
        return out

    def advance_past(self, block: int, window: Optional[int] = None) -> int:
        """Skip the queue forward past ``block`` (demand caught up with the
        not-yet-fetched part of the stream); returns entries skipped."""
        limit = window if window is not None else len(self.pending)
        if self.pending_position(block, limit) is None:
            return 0
        skipped = 0
        while self.pending:
            head = self.pending.popleft()
            self._pending_set.discard(head)
            skipped += 1
            if head == block:
                break
        return skipped


class StreamQueueSet:
    """Fixed set of stream queues with LRU victim selection."""

    def __init__(self, num_queues: int, lookahead: int, initial_fetch: int = 1) -> None:
        if num_queues <= 0:
            raise ValueError(f"num_queues must be positive, got {num_queues}")
        self.num_queues = num_queues
        self.lookahead = lookahead
        self.initial_fetch = initial_fetch
        self._queues: Dict[int, StreamQueue] = {}
        self._activity: List[int] = []  # stream ids, most recent last
        self._next_id = 0
        self.allocated = 0
        self.killed = 0

    def __len__(self) -> int:
        return len(self._queues)

    def get(self, stream_id: int) -> Optional[StreamQueue]:
        return self._queues.get(stream_id)

    def allocate(
        self,
        addresses: Iterable[int],
        refill: Optional[RefillFn] = None,
        cursor: object = None,
    ) -> "tuple[StreamQueue, List[int]]":
        """Create a stream (evicting the LRU one if full); returns the new
        queue and the initial block(s) to fetch."""
        stream_id = self._next_id
        self._next_id += 1
        if len(self._queues) >= self.num_queues:
            victim = self._activity.pop(0)
            del self._queues[victim]
            self.killed += 1
        queue = StreamQueue(stream_id, addresses, refill, cursor)
        self._queues[stream_id] = queue
        self._activity.append(stream_id)
        self.allocated += 1
        return queue, queue.next_blocks(self.initial_fetch)

    def on_consumed(self, stream_id: int) -> List[int]:
        """A streamed block was used: extend the stream toward lookahead."""
        queue = self._queues.get(stream_id)
        if queue is None:
            return []
        queue.hits += 1
        queue.inflight = max(0, queue.inflight - 1)
        self._touch(stream_id)
        want = self.lookahead - queue.inflight
        if want <= 0:
            return []
        return queue.next_blocks(want)

    #: pending-window depth eligible for demand re-sync. Kept tight: a
    #: healthy stream only ever trails demand by a few blocks, and blocks
    #: recurring deeper in a predicted sequence are different occurrences.
    RESYNC_WINDOW = 4

    def find_pending(self, block: int) -> Optional[StreamQueue]:
        """The active *healthy* stream about to predict ``block``.

        Saturated streams (in-flight at/over the lookahead) are excluded:
        demand overtaking a stream whose fetches are not being consumed
        means the stream is off track, and a fresh re-located stream beats
        extending it.
        """
        for queue in self._queues.values():
            if block not in queue._pending_set:  # the common case first
                continue
            if queue.inflight >= self.lookahead:
                continue
            if queue.pending_position(block, self.RESYNC_WINDOW) is not None:
                return queue
        return None

    def resync(self, stream_id: int, block: int) -> List[int]:
        """Demand overtook a stream: skip it past ``block`` and extend it
        toward the lookahead instead of allocating a competing stream."""
        queue = self._queues.get(stream_id)
        if queue is None:
            return []
        queue.advance_past(block, self.RESYNC_WINDOW)
        queue.hits += 1
        self._touch(stream_id)
        want = self.lookahead - queue.inflight
        if want <= 0:
            return []
        return queue.next_blocks(want)

    def _touch(self, stream_id: int) -> None:
        try:
            self._activity.remove(stream_id)
        except ValueError:
            return
        self._activity.append(stream_id)

    def retire_if_exhausted(self, stream_id: int) -> bool:
        """Drop a stream whose pending queue and in-flight set are empty."""
        queue = self._queues.get(stream_id)
        if queue is None:
            return False
        if queue.exhausted and not queue.pending and queue.inflight == 0:
            del self._queues[stream_id]
            try:
                self._activity.remove(stream_id)
            except ValueError:
                pass
            return True
        return False
