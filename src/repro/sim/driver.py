"""Trace-driven coverage simulation (the Fig. 9 methodology).

The driver walks a trace through the cache hierarchy with one prefetcher
attached, maintaining the SVB for stream-based prefetchers and L1-install
semantics for SMS, and classifies every read access:

* **covered** — serviced by a prefetched block (present in the SVB at
  request time, or first touch of an L1-installed prefetch);
* **uncovered** — an off-chip miss the prefetcher did not hide;
* **overprediction** — a prefetched block discarded without ever being
  demand-referenced (SVB eviction/drain or unused L1 eviction).

Prefetch requests for blocks already on chip (L1, L2 or SVB) are dropped
without cost: they would not generate an off-chip fetch.

The driver is the single walk of the trace: it accepts an in-memory
:class:`Trace` or a lazy :class:`TraceSource` and feeds the per-access
service classification to a ``service_consumer`` (the incremental
:class:`~repro.sim.timing.TimingModel`) — which is how a coverage +
timing job runs end to end in O(1) memory.

Without a prefetcher only demand fills change what the caches hold, so
the baseline coverage walk, a no-prefetcher timing walk and the Fig. 6-8
analyses of one trace all see the same per-access (service level, L1
victim, spatial generation) stream. :class:`BaselineReplay` is that
walk's one implementation: it computes the stream once and hands it to
each of its members in lockstep. Members only observe; a walk whose
prefetcher installs into the L1 or streams into an SVB changes its
hierarchy, so it keeps a private one.

The Table-1 stride engine that the Fig. 10 baseline system carries
trains on each access's PC and block alone, so its requests are the
same in every walk of a trace: :class:`StrideStream` computes them once
per chunk for every walk that carries the engine, and each such walk
issues them before its main predictor's requests.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Callable, List, Optional, Protocol, Sequence

from repro.common.config import SystemConfig
from repro.kernels.prepass import AccessChunk, iter_trace_chunks
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.memsys.svb import StreamedValueBuffer
from repro.prefetch.base import (
    TARGET_L1, TARGET_SVB, AccessEvent, Prefetcher, Request,
)
from repro.prefetch.sms.generations import ActiveGenerationTable
from repro.prefetch.stride import StridePrefetcher
from repro.sim.results import (
    SERVICE_L1,
    SERVICE_L2,
    SERVICE_MEMORY,
    SERVICE_PREFETCHED_L1,
    SERVICE_SVB,
    CoverageResult,
)
from repro.trace.container import TraceLike
from repro.trace.events import MemoryAccess


#: capacity of the replay's active generation table
AGT_ENTRIES = 64

_MEMORY = ServiceLevel.MEMORY
#: the stride requests of every access of a walk without the engine
_NO_REQUESTS = repeat(())


class BaselineReplay:
    """One no-prefetcher pass over a trace, fed to every member.

    Per access: one ``Hierarchy`` services the block; if any member
    reads generations, one ``ActiveGenerationTable`` sees the access and
    then the L1 victim, and every generation that ends reaches each
    ``on_generation_end`` hook; then each ``observe(access, block,
    level, generation)`` hook runs (``generation`` is the table's
    ``(is_trigger, record)``, or None). Members :meth:`join` before the
    first access; :meth:`finish` flushes the table once, to all.
    """

    def __init__(self, system: SystemConfig) -> None:
        self.system = system
        self.hierarchy = Hierarchy(system)
        self.agt: Optional[ActiveGenerationTable] = None
        self._block_bits = system.address_map.block_bits
        self._observers: List[Callable] = []
        self._generation_ends: List[Callable] = []
        self._generations = False
        self._step: Optional[Callable[[MemoryAccess, int], None]] = None

    def join(self, observe: Optional[Callable] = None,
             on_generation_end: Optional[Callable] = None,
             generations: bool = False) -> None:
        """Add one member's hooks; ``generations``: it reads generations."""
        if self._step is not None:
            raise RuntimeError("members join a replay before its first access")
        if observe is not None:
            self._observers.append(observe)
        if on_generation_end is not None:
            self._generation_ends.append(on_generation_end)
        self._generations |= generations or on_generation_end is not None

    def step(self, access: MemoryAccess, block: int) -> None:
        """Replay one access (``block`` is its block id)."""
        (self._step or self._start())(access, block)

    def step_chunk(self, chunk: AccessChunk) -> None:
        """Replay one chunk: block ids from the chunk's pre-pass, the
        per-access step inside one C-driven ``map``."""
        deque(
            map(self._step or self._start(), chunk.accesses,
                chunk.blocks_for(self._block_bits)),
            maxlen=0,
        )

    def finish(self) -> None:
        """Flush the generation table once; refuse further accesses."""
        if self._step is not _finished:
            self._step = _finished
            if self.agt is not None:
                self.agt.flush()

    def _start(self) -> Callable[[MemoryAccess, int], None]:
        hier_access = self.hierarchy.access
        observers = tuple(self._observers)
        if not self._generations:
            def step(access: MemoryAccess, block: int) -> None:
                level = hier_access(block)[0]
                for observe in observers:
                    observe(access, block, level, None)
        else:
            ends = tuple(self._generation_ends)

            def every_end(record) -> None:
                for end in ends:
                    end(record)

            on_end = ends[0] if len(ends) == 1 else every_end if ends else None
            self.agt = ActiveGenerationTable(
                AGT_ENTRIES, self.system.address_map, on_generation_end=on_end
            )
            agt_observe = self.agt.observe
            agt_on_eviction = self.agt.on_l1_eviction

            def step(access: MemoryAccess, block: int) -> None:
                level, evicted, _ = hier_access(block)
                generation = agt_observe(access.pc, block, level is _MEMORY)
                if evicted is not None:
                    agt_on_eviction(evicted)
                for observe in observers:
                    observe(access, block, level, generation)

        self._step = step
        return step


def _finished(access: MemoryAccess, block: int) -> None:
    raise RuntimeError("BaselineReplay stepped after finish()")


def _ignore(*hook_args) -> None:
    """An eviction or discard hook of a walk whose only engine is the
    stride engine, which ignores both."""


class StrideStream:
    """The Table-1 stride engine over one trace, for every walk carrying it.

    One :class:`~repro.prefetch.stride.StridePrefetcher` sees each access
    once. :meth:`step_chunk` leaves each access's requests of the chunk
    in ``requests`` (usually an empty tuple), which every member walk
    reads in step; :meth:`step` returns one access's requests. The
    engine never reads the service level and ignores evictions and
    discards, so one stream serves walks whose hierarchies differ.
    """

    def __init__(self, system: SystemConfig) -> None:
        self.prefetcher = StridePrefetcher()
        #: the last chunk's requests, one entry per access
        self.requests: List[Sequence[Request]] = []
        self._block_bits = system.address_map.block_bits
        on_access = self.prefetcher.on_access
        pop_requests = self.prefetcher.pop_requests
        # the stream's one event; the engine reads its access and block
        event = AccessEvent(None, -1, _MEMORY)

        def step(access: MemoryAccess, block: int) -> Sequence[Request]:
            event.access = access
            event.block = block
            on_access(event)
            return pop_requests()

        self.step = step

    def step_chunk(self, chunk: AccessChunk) -> None:
        """Record the requests of every access in ``chunk``."""
        self.requests = list(
            map(self.step, chunk.accesses, chunk.blocks_for(self._block_bits))
        )

    def finish(self) -> None:
        """End of run (the stride engine keeps no open state)."""
        self.prefetcher.finish()


class ServiceConsumer(Protocol):
    """Anything that consumes the per-access service classification."""

    def update(self, access: MemoryAccess, service_class: str) -> None:
        """Observe one classified access, in trace order."""


class DriverWalk:
    """One in-progress push-mode trace walk (see ``SimulationDriver.start``).

    ``step_chunk(chunk)`` advances the simulation by one
    :class:`~repro.kernels.AccessChunk` (block ids come from the chunk's
    batched pre-pass and the per-access calls run inside one C-driven
    ``map``); ``step(access, block)`` advances it by one access;
    ``finish()`` runs the end-of-trace accounting and returns the
    :class:`CoverageResult`. All are bound closures over the walk's
    hoisted state, which is what lets the engine fan a single trace
    walk out to many independent walks at once.
    """

    __slots__ = ("step", "step_chunk", "finish")

    def __init__(self, step, step_chunk, finish) -> None:
        self.step = step
        self.step_chunk = step_chunk
        self.finish = finish


class SimulationDriver:
    """Runs one prefetcher over one trace and accounts coverage.

    Args:
        system: cache/SVB geometry and timing parameters.
        prefetcher: the main predictor under test, or None.
        service_consumer: incremental sink fed ``(access, service_class)``
            during the walk, e.g. a
            :class:`~repro.sim.timing.TimingModel` (the driver does not
            call its ``finalize()``; the caller owns the consumer's
            lifecycle).
        stride: the walk carries the Table-1 stride engine (a
            :class:`StrideStream`) beside ``prefetcher``, whose requests
            it issues first. Without either, the walk is the baseline.
    """

    def __init__(
        self,
        system: SystemConfig,
        prefetcher: Optional[Prefetcher] = None,
        service_consumer: Optional[ServiceConsumer] = None,
        stride: bool = False,
    ) -> None:
        self.system = system
        self.prefetcher = prefetcher
        self.service_consumer = service_consumer
        self.stride = stride

    def start(
        self,
        workload_name: str,
        replay: Optional[BaselineReplay] = None,
        stream: Optional[StrideStream] = None,
    ) -> DriverWalk:
        """Begin a push-mode walk: the caller supplies each access.

        The step body is deliberately flat: every per-access attribute
        lookup that can be hoisted into a closure cell is, and the
        counter updates run on cell integers written back to the result
        once at :meth:`DriverWalk.finish`. ``run()`` drives the same
        closures, so pushed and pulled walks are bit-identical.

        Without a prefetcher or the stride engine the walk is a member
        of ``replay`` (which the caller then steps instead of the walk)
        or of a private :class:`~repro.sim.driver.BaselineReplay` of
        one. A walk that carries the stride engine reads ``stream``
        (which the caller steps before the walk, chunk by chunk; the
        walk's ``step`` then takes the access's stream requests as a
        third argument) or a private :class:`StrideStream` of one,
        which the walk steps itself.

        Args:
            workload_name: stamped on the :class:`CoverageResult`
                (``run()`` passes ``trace.name``).
            replay: the shared no-prefetcher replay to join.
            stream: the shared stride stream to read.

        Returns:
            A :class:`DriverWalk` whose ``step(access, block)`` consumes
            one access and whose ``finish()`` returns the result.

        Raises:
            ValueError: a prefetcher's walk given a replay to share, or
                a walk without the stride engine given a stream.
        """
        system = self.system
        prefetcher = self.prefetcher
        if stream is not None and not self.stride:
            raise ValueError("a walk without the stride engine cannot read a stream")
        if prefetcher is None and not self.stride:
            return self._baseline(workload_name, replay or BaselineReplay(system))
        name = "+".join((["stride"] if self.stride else [])
                        + ([prefetcher.name] if prefetcher else []))
        if replay is not None:
            raise ValueError(f"a {name} walk cannot join a replay")
        own_stream = self.stride and stream is None
        if own_stream:
            stream = StrideStream(system)
        hierarchy = Hierarchy(system)
        result = CoverageResult(workload_name, name)

        if prefetcher is None:  # the stride engine ignores these hooks
            on_access = pop_requests = None
            on_l1_eviction = on_svb_discard = _ignore
        else:
            on_access, pop_requests = prefetcher.on_access, prefetcher.pop_requests
            on_l1_eviction = prefetcher.on_l1_eviction
            on_svb_discard = prefetcher.on_svb_discard

        def _discard(block: int, stream_id: int) -> None:
            result.overpredictions += 1
            on_svb_discard(block, stream_id)

        svb = StreamedValueBuffer(system.svb_entries, on_discard_unused=_discard)

        # -- hoisted bindings for the hot loop --------------------------------
        hier_access = hierarchy.access
        consumer = self.service_consumer
        consumer_update = consumer.update if consumer is not None else None
        level_l1 = ServiceLevel.L1
        level_l2 = ServiceLevel.L2
        level_svb = ServiceLevel.SVB

        accesses = reads = writes = 0
        covered_count = uncovered_count = 0
        l1_hits = l2_hits = issued_prefetches = 0

        # membership through the SVB dict's own ``__contains__``
        svb_blocks = svb._blocks
        svb_consume = svb.consume
        svb_insert = svb.insert
        hier_fill_from_svb = hierarchy.fill_from_svb
        hier_present = hierarchy.present
        hier_install = hierarchy.install_prefetch
        # the walk's one event, overwritten for every access (an
        # event is valid only during the on_access call)
        event = AccessEvent(None, -1, level_l1)

        def step(access: MemoryAccess, block: int,
                 stride_requests: Sequence[Request] = ()) -> None:
            nonlocal accesses, reads, writes, covered_count
            nonlocal uncovered_count, l1_hits, l2_hits, issued_prefetches

            is_read = not access.is_write
            accesses += 1
            if is_read:
                reads += 1
            else:
                writes += 1

            if block in svb_blocks:
                stream_id = svb_consume(block)
                evicted = hier_fill_from_svb(block)
                level = level_svb
                covered = True
                if is_read:
                    covered_count += 1
                klass = SERVICE_SVB
            else:
                level, evicted, covered = hier_access(block)
                stream_id = -1
                if covered:
                    if is_read:
                        covered_count += 1
                    klass = SERVICE_PREFETCHED_L1
                elif level is level_l1:
                    l1_hits += 1
                    klass = SERVICE_L1
                elif level is level_l2:
                    l2_hits += 1
                    klass = SERVICE_L2
                else:
                    if is_read:
                        uncovered_count += 1
                    klass = SERVICE_MEMORY
            if consumer_update is not None:
                consumer_update(access, klass)

            if on_access is None:
                requests = stride_requests
            else:
                if evicted is not None:
                    on_l1_eviction(evicted)
                event.access = access
                event.block = block
                event.level = level
                event.covered = covered
                event.stream_id = stream_id
                on_access(event)
                # the main predictor's requests are taken before any is
                # issued; the stride engine's go first
                requests = pop_requests()
                if stride_requests:
                    requests = [*stride_requests, *requests]
            for pf_block, pf_stream, target in requests:
                if pf_block in svb_blocks or hier_present(pf_block) is not None:
                    continue  # already on chip: no off-chip fetch needed
                issued_prefetches += 1
                if target == TARGET_SVB:
                    svb_insert(pf_block, pf_stream)
                elif target == TARGET_L1:
                    evicted = hier_install(pf_block)
                    if evicted is not None:
                        on_l1_eviction(evicted)
                else:
                    raise ValueError(f"unknown prefetch target {target!r}")

        def finish() -> CoverageResult:
            result.accesses = accesses
            result.reads = reads
            result.writes = writes
            result.covered = covered_count
            result.uncovered = uncovered_count
            result.l1_hits = l1_hits
            result.l2_hits = l2_hits
            result.issued_prefetches = issued_prefetches
            # L1-installed prefetches evicted unreferenced during the walk
            result.overpredictions += hierarchy.l1.unused_prefetch_evictions

            # end of walk: whatever was fetched but never used is erroneous
            svb.drain_unused()
            result.overpredictions += hierarchy.l1.unused_prefetch_count()
            stats = {}
            if prefetcher is not None:
                prefetcher.finish()
                stats.update(prefetcher.stats)
            if stream is not None:
                if own_stream:
                    stream.finish()
                stats.update(stream.prefetcher.stats)
            result.prefetcher_stats = stats
            return result

        block_bits = system.address_map.block_bits

        walk_step = step
        if own_stream:
            stream_step = stream.step

            def walk_step(access: MemoryAccess, block: int) -> None:
                step(access, block, stream_step(access, block))

        def step_chunk(chunk: AccessChunk) -> None:
            # same step closure per access, driven by one C-level map;
            # block ids come precomputed from the chunk's pre-pass. A
            # private stream is stepped here, a shared one by the caller.
            if own_stream:
                stream.step_chunk(chunk)
            deque(
                map(step, chunk.accesses, chunk.blocks_for(block_bits),
                    _NO_REQUESTS if stream is None else stream.requests),
                maxlen=0,
            )

        return DriverWalk(walk_step, step_chunk, finish)

    def _baseline(self, workload: str, replay: BaselineReplay) -> DriverWalk:
        """The no-prefetcher walk, a member of ``replay``: the SVB stays
        empty and nothing is prefetched, so only service levels count."""
        result = CoverageResult(workload=workload, prefetcher="none")
        consumer = self.service_consumer
        consumer_update = consumer.update if consumer is not None else None
        level_l1 = ServiceLevel.L1
        level_l2 = ServiceLevel.L2
        reads = writes = uncovered_count = l1_hits = l2_hits = 0

        def observe(access: MemoryAccess, block, level, generation) -> None:
            nonlocal reads, writes, uncovered_count, l1_hits, l2_hits
            if access.is_write:
                writes += 1
                is_read = False
            else:
                reads += 1
                is_read = True

            if level is level_l1:
                l1_hits += 1
                klass = SERVICE_L1
            elif level is level_l2:
                l2_hits += 1
                klass = SERVICE_L2
            else:
                if is_read:
                    uncovered_count += 1
                klass = SERVICE_MEMORY
            if consumer_update is not None:
                consumer_update(access, klass)

        def finish() -> CoverageResult:
            replay.finish()
            result.accesses = reads + writes
            result.reads = reads
            result.writes = writes
            result.uncovered = uncovered_count
            result.l1_hits = l1_hits
            result.l2_hits = l2_hits
            return result

        replay.join(observe)
        return DriverWalk(replay.step, replay.step_chunk, finish)

    def run(self, trace: TraceLike) -> CoverageResult:
        """Walk ``trace`` (in memory or streaming) through the system.

        The library's plain loop over :meth:`start`'s ``step_chunk``, so
        a pulled run and an engine job's pushed walk execute identical
        code and produce bit-identical results.
        """
        walk = self.start(trace.name)
        step_chunk = walk.step_chunk
        for chunk in iter_trace_chunks(trace):
            step_chunk(chunk)
        return walk.finish()
