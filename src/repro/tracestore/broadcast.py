"""Shared-memory broadcast: one trace walk feeds every worker.

With ``--jobs N``, workers replay the trace store independently — N
jobs over one trace key cost N replay walks (file IO, layout and index
validation, CRC sweep, chunk decode) even though every walk reads the
same bytes. This module turns the walk into a **broadcast**: a reader
process walks the key once and tees each raw chunk payload to every
consumer over a ``multiprocessing.shared_memory`` ring buffer. The
chunked codec (:mod:`repro.tracestore.codec`) is already the wire
format — per-chunk byte spans and CRCs frame exactly what a slot
carries — and consumers decode with the same
:func:`repro.kernels.decode.decode_chunk` a file replay uses, so the
access sequence is bit-identical by construction.

The ring is slot-per-chunk and **semaphore-paced per consumer**: the
producer acquires one ``free`` token from *every* consumer before
overwriting a slot and releases one ``avail`` token to each after
writing it, so the slowest consumer exerts backpressure and a slot is
never overwritten while anyone still needs it. Each consumer re-verifies
the chunk CRC against the slot header before decoding — shared memory is
trusted no more than the disk is.

Failure is survivable in both directions. A dead consumer is detached
(the producer stops pacing on it); a dead or erring reader aborts the
ring and every consumer **degrades to an independent replay** from its
cursor position — same records, same results, one fallback counter. The
engine (:mod:`repro.engine.engine`) orchestrates readers and consumers
per trace key and folds the accounting into ``EngineStats``.
"""

from __future__ import annotations

import os
import struct
import zlib
from time import perf_counter
from typing import Callable, Iterator, List, Optional

from repro.kernels import CHUNK_RECORDS
from repro.kernels.decode import RECORD_SIZE, decode_chunk
from repro.kernels.prepass import AccessChunk, chunk_accesses
from repro.telemetry import process_registry, telemetry_enabled
from repro.tracestore.codec import (
    FOOTER_SIZE,
    read_access_chunks,
    read_entry_info,
)

#: environment override for the engine's broadcast mode
ENV_VAR = "REPRO_BROADCAST"

MODE_AUTO = "auto"
MODE_ON = "on"
MODE_OFF = "off"
MODES = (MODE_AUTO, MODE_ON, MODE_OFF)

#: slots per ring: enough to keep the reader ahead of decode jitter
#: without ballooning the segment (8 slots ≈ 0.9 MiB of payload)
RING_SLOTS = 8

#: per-slot payload capacity: one full stored chunk
SLOT_PAYLOAD = CHUNK_RECORDS * RECORD_SIZE

#: slot kinds (the ``kind`` field of the slot header)
KIND_DATA = 0
KIND_DONE = 1
KIND_ABORT = 2

#: first_record u64, payload bytes u32, crc32 u32, kind u32
SLOT_HEADER = struct.Struct("<QIII")
SLOT_SIZE = SLOT_HEADER.size + SLOT_PAYLOAD

#: producer/consumer poll granularity while blocked on a semaphore —
#: bounds how long a peer death goes unnoticed
_POLL_SECONDS = 0.2


def resolve_broadcast(mode: Optional[str] = None) -> str:
    """Resolve an optional broadcast request to a concrete mode.

    Precedence: explicit argument, then the ``REPRO_BROADCAST``
    environment variable, then ``auto``.

    Raises:
        ValueError: on an unknown mode (argument or environment).
    """
    if mode is None:
        mode = os.environ.get(ENV_VAR, "").strip() or None
    if mode is None:
        return MODE_AUTO
    mode = mode.lower()
    if mode not in MODES:
        raise ValueError(
            f"unknown broadcast mode {mode!r}; choose from {'/'.join(MODES)}"
        )
    return mode


def broadcast_supported() -> bool:
    """True when the platform can back a ring with shared memory."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - always present on CPython 3.8+
        return False
    return True


def _attach(name: str):
    """Attach an existing segment without adopting unlink responsibility.

    The parent creates and unlinks every segment; a child attaching via
    name must not let its ``resource_tracker`` also claim it (CPython
    < 3.13 registers on attach, producing double-unlink warnings at
    child exit). Registration is *suppressed* during the attach rather
    than undone after it: under the fork start method children share
    the parent's tracker daemon, so an unregister from a child would
    strip the parent's own registration and the parent's later unlink
    would log a spurious ``KeyError`` in the tracker.
    """
    from multiprocessing import shared_memory

    original = None
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = (
            lambda target, rtype: None if rtype == "shared_memory"
            else original(target, rtype)
        )
    except Exception:  # pragma: no cover - tracker layout varies
        original = None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        if original is not None:
            from multiprocessing import resource_tracker

            resource_tracker.register = original


class ChunkRing:
    """One single-producer, N-consumer broadcast ring (parent-side owner).

    Creates the shared segment and the per-consumer semaphore pairs;
    hands out picklable :class:`RingProducer` / :class:`RingConsumer`
    endpoints to pass into child processes. The parent must call
    :meth:`close` (idempotent) when the wave is over — it is the only
    party that unlinks the segment.
    """

    def __init__(self, consumers: int, slots: int = RING_SLOTS,
                 slot_payload: int = SLOT_PAYLOAD) -> None:
        if consumers < 1:
            raise ValueError(f"need at least one consumer, got {consumers}")
        if slots < 2:
            raise ValueError(f"need at least two slots, got {slots}")
        import multiprocessing
        from multiprocessing import shared_memory

        self.consumers = consumers
        self.slots = slots
        self.slot_payload = slot_payload
        self.slot_size = SLOT_HEADER.size + slot_payload
        self._segment = shared_memory.SharedMemory(
            create=True, size=self.slots * self.slot_size
        )
        self.name = self._segment.name
        self.abort_event = multiprocessing.Event()
        self.detach_events = [multiprocessing.Event()
                              for _ in range(consumers)]
        self.free = [multiprocessing.Semaphore(slots)
                     for _ in range(consumers)]
        self.avail = [multiprocessing.Semaphore(0) for _ in range(consumers)]
        self._closed = False

    def producer(self) -> "RingProducer":
        return RingProducer(
            self.name, self.slots, self.slot_payload,
            self.abort_event, self.detach_events, self.free, self.avail,
        )

    def consumer(self, index: int) -> "RingConsumer":
        return RingConsumer(
            self.name, self.slots, self.slot_payload, index,
            self.abort_event, self.free[index], self.avail[index],
        )

    def abort(self) -> None:
        """Mark the stream dead (reader crashed): consumers degrade."""
        self.abort_event.set()

    def detach(self, index: int) -> None:
        """Stop pacing on a dead consumer so the producer never blocks
        on tokens it will never get back."""
        self.detach_events[index].set()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - double close race
            pass


class RingProducer:
    """Reader-side endpoint: write chunks, then a DONE/ABORT sentinel.

    Picklable (attaches to the segment lazily on first send), so it can
    cross a ``multiprocessing.Process`` boundary under any start method.
    """

    def __init__(self, name, slots, slot_payload, abort_event,
                 detach_events, free, avail) -> None:
        self._name = name
        self._slots = slots
        self._slot_payload = slot_payload
        self._slot_size = SLOT_HEADER.size + slot_payload
        self._abort = abort_event
        self._detached = detach_events
        self._free = free
        self._avail = avail
        self._segment = None
        self._seq = 0
        self.chunks_sent = 0
        self.bytes_sent = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_segment"] = None
        return state

    def _buffer(self):
        if self._segment is None:
            self._segment = _attach(self._name)
        return self._segment.buf

    def _active(self) -> List[int]:
        return [c for c in range(len(self._free))
                if not self._detached[c].is_set()]

    def _reserve(self) -> List[int]:
        """Acquire one free token from every live consumer (blocking,
        poll-checking detach/abort). Returns the consumers reserved."""
        reserved = []
        for index in range(len(self._free)):
            if self._detached[index].is_set():
                continue
            while True:
                if self._free[index].acquire(timeout=_POLL_SECONDS):
                    reserved.append(index)
                    break
                if self._detached[index].is_set() or self._abort.is_set():
                    break
        return reserved

    def _write_slot(self, first_record: int, payload: bytes, crc: int,
                    kind: int) -> bool:
        if len(payload) > self._slot_payload:
            raise ValueError(
                f"chunk of {len(payload)} bytes exceeds the "
                f"{self._slot_payload}-byte slot"
            )
        reserved = self._reserve()
        if not reserved and kind == KIND_DATA:
            return False  # everyone is gone: stop walking
        base = (self._seq % self._slots) * self._slot_size
        buffer = self._buffer()
        SLOT_HEADER.pack_into(
            buffer, base, first_record, len(payload), crc, kind
        )
        if payload:
            buffer[base + SLOT_HEADER.size:
                   base + SLOT_HEADER.size + len(payload)] = payload
        self._seq += 1
        for index in reserved:
            self._avail[index].release()
        return True

    def send(self, first_record: int, payload: bytes, crc: int) -> bool:
        """Broadcast one chunk. Returns False when no consumer remains
        (the reader should stop walking)."""
        if not self._write_slot(first_record, payload, crc, KIND_DATA):
            return False
        self.chunks_sent += 1
        self.bytes_sent += len(payload)
        return True

    def finish(self, record_count: int) -> None:
        """End-of-stream sentinel carrying the total record count."""
        self._write_slot(record_count, b"", 0, KIND_DONE)

    def fail(self) -> None:
        """Handled-error sentinel: consumers switch to fallback replay."""
        self._abort.set()
        self._write_slot(0, b"", 0, KIND_ABORT)

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None


class RingConsumer:
    """Consumer-side endpoint: blocking ``next_item`` over the ring."""

    def __init__(self, name, slots, slot_payload, index, abort_event,
                 free, avail) -> None:
        self._name = name
        self._slots = slots
        self._slot_size = SLOT_HEADER.size + slot_payload
        self.index = index
        self._abort = abort_event
        self._free = free
        self._avail = avail
        self._segment = None
        self._seq = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_segment"] = None
        return state

    def _buffer(self):
        if self._segment is None:
            self._segment = _attach(self._name)
        return self._segment.buf

    def next_item(self) -> "tuple[int, int, bytes, int]":
        """The next slot as ``(kind, first_record, payload, crc)``.

        Blocks until the producer publishes the consumer's next slot;
        returns a synthetic ABORT item when the abort event fires while
        waiting (reader death) — the caller degrades to replay.
        """
        while not self._avail.acquire(timeout=_POLL_SECONDS):
            if self._abort.is_set():
                return KIND_ABORT, 0, b"", 0
        base = (self._seq % self._slots) * self._slot_size
        buffer = self._buffer()
        first_record, n_bytes, crc, kind = SLOT_HEADER.unpack_from(
            buffer, base
        )
        payload = bytes(
            buffer[base + SLOT_HEADER.size: base + SLOT_HEADER.size + n_bytes]
        )
        self._seq += 1
        self._free.release()
        return kind, first_record, payload, crc

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None


class ChunkCursor:
    """A consumer's windowed view of one broadcast stream.

    Iterates :class:`AccessChunk` runs decoded straight from the shared
    buffer (CRC re-verified per slot, no file IO, no index decode). On
    an abort sentinel, a CRC mismatch, or a dead reader, the cursor
    **degrades seamlessly**: ``fallback(next_record)`` supplies the rest
    of the stream as an independent replay from exactly the first
    record this consumer has not yet seen — the simulation state never
    notices, so results stay bit-identical.
    """

    def __init__(
        self,
        ring: RingConsumer,
        fallback: Callable[[int], Iterator[AccessChunk]],
    ) -> None:
        self._ring = ring
        self._fallback = fallback
        self.next_record = 0
        self.chunks_shared = 0
        self.bytes_shared = 0
        self.degraded = False
        self.complete = False

    def iter_chunks(self) -> Iterator[AccessChunk]:
        # with telemetry on, account time spent blocked on the ring
        # (producer-bound waits) separately from decode/walk time — the
        # counter rides home in the consumer's telemetry envelope
        registry = process_registry() if telemetry_enabled() else None
        while True:
            if registry is None:
                kind, first_record, payload, crc = self._ring.next_item()
            else:
                waited = perf_counter()
                kind, first_record, payload, crc = self._ring.next_item()
                registry.inc(
                    "broadcast.ring_wait_seconds", perf_counter() - waited
                )
            if kind == KIND_DONE:
                if first_record != self.next_record:
                    break  # short stream (torn writer): top up from file
                self.complete = True
                return
            if kind == KIND_ABORT:
                break
            if first_record != self.next_record or zlib.crc32(payload) != crc:
                break  # torn/corrupt slot: distrust the stream entirely
            chunk = decode_chunk(first_record, payload)
            self.next_record = first_record + len(chunk)
            self.chunks_shared += 1
            self.bytes_shared += len(payload)
            yield chunk
        self.degraded = True
        for chunk in self._fallback(self.next_record):
            self.next_record = chunk.start_index + len(chunk)
            yield chunk
        self.complete = True

    def accounting(self) -> "dict[str, int]":
        return {
            "broadcast_chunks": self.chunks_shared,
            "bytes_shared": self.bytes_shared,
            "broadcast_fallbacks": 1 if self.degraded else 0,
        }


def replay_fallback(
    store_dir: str, key: "tuple[str, int, int]"
) -> Callable[[int], Iterator[AccessChunk]]:
    """The cursor's independent-replay escape hatch for one trace key.

    Replays the stored entry from ``next_record`` when a valid entry
    exists; when the reader died before publishing one (cold-key
    broadcast), regenerates the workload and skips the records already
    consumed — both paths are deterministic, so the tail is exactly the
    stream the reader would have delivered.
    """
    from repro.tracestore.store import TraceStore
    from repro.workloads.registry import stream_workload

    def fallback(next_record: int) -> Iterator[AccessChunk]:
        store = TraceStore(store_dir)
        if store.has(key):
            path = store.path_for(key)
            count = 0
            for chunk in read_access_chunks(path, next_record):
                count += len(chunk)
                yield chunk
            store.stats.hits += 1
            store.stats.bytes_replayed += count * RECORD_SIZE + FOOTER_SIZE
        else:
            store.stats.misses += 1
            store.stats.generated += 1
            source = stream_workload(*key)
            tail = (a for a in source if a.index >= next_record)
            yield from chunk_accesses(tail)
        fallback.stats = store.stats.as_dict()

    fallback.stats = {}
    return fallback


def run_reader(producer: RingProducer, store_dir: str,
               key: "tuple[str, int, int]", status_queue) -> None:
    """Reader-process entry: walk ``key`` once, broadcasting every chunk.

    Warm key: stream the stored chunks (each verified against its
    indexed CRC *before* it is broadcast, so a corrupt chunk aborts the
    stream rather than reaching a consumer). Cold key: record the trace
    during the walk, teeing each flushed chunk into the ring — a cold
    N-job sweep still costs exactly one generation pass.

    Reports ``("ok"|"error", detail, store_stats)`` on ``status_queue``;
    any failure aborts the ring so consumers degrade to replay.
    """
    from repro.tracestore.store import TraceStore

    store = TraceStore(store_dir)
    try:
        if store.has(key):
            _stream_stored(producer, store, key)
        else:
            _stream_recording(producer, store, key)
    except BaseException as error:  # noqa: BLE001 - report-and-abort
        producer.fail()
        status_queue.put(("error", f"{type(error).__name__}: {error}",
                          store.stats.as_dict()))
        return
    finally:
        producer.close()
    status_queue.put(("ok", None, store.stats.as_dict()))


def _stream_stored(producer: RingProducer, store, key) -> None:
    from repro.engine.faultinject import maybe_kill_reader

    path = store.path_for(key)
    info = read_entry_info(path)
    store.stats.hits += 1
    with path.open("rb") as handle:
        for position, entry in enumerate(info.chunks):
            handle.seek(info.payload_start + entry.byte_offset)
            want = info.chunk_bytes(position)
            payload = handle.read(want)
            if len(payload) != want or zlib.crc32(payload) != entry.crc:
                from repro.tracestore.codec import TraceFormatError

                raise TraceFormatError(
                    f"{path}: chunk CRC mismatch at record "
                    f"{entry.record_index}"
                )
            if not producer.send(entry.record_index, payload, entry.crc):
                return  # every consumer is gone
            maybe_kill_reader()
    store.stats.bytes_replayed += info.payload_bytes + FOOTER_SIZE
    producer.finish(info.record_count)


def _stream_recording(producer: RingProducer, store, key) -> None:
    from repro.engine.faultinject import maybe_kill_reader

    count = 0

    def on_chunk(first_record: int, payload: bytes, crc: int) -> None:
        nonlocal count
        producer.send(first_record, payload, crc)
        count = first_record + len(payload) // RECORD_SIZE
        maybe_kill_reader()

    store.record(key, on_chunk=on_chunk)
    producer.finish(count)
