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
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Protocol

from repro.common.config import SystemConfig
from repro.kernels.prepass import AccessChunk, iter_trace_chunks
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.memsys.svb import StreamedValueBuffer
from repro.prefetch.base import TARGET_L1, TARGET_SVB, AccessEvent, Prefetcher
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
        prefetcher: the predictor under test, or None for the baseline.
        service_consumer: incremental sink fed ``(access, service_class)``
            during the walk, e.g. a
            :class:`~repro.sim.timing.TimingModel` (the driver does not
            call its ``finalize()``; the caller owns the consumer's
            lifecycle).
    """

    def __init__(
        self,
        system: SystemConfig,
        prefetcher: Optional[Prefetcher] = None,
        service_consumer: Optional[ServiceConsumer] = None,
    ) -> None:
        self.system = system
        self.prefetcher = prefetcher
        self.service_consumer = service_consumer

    def start(self, workload_name: str) -> DriverWalk:
        """Begin a push-mode walk: the caller supplies each access.

        The step body is deliberately flat: every per-access attribute
        lookup that can be hoisted into a closure cell is, and the
        counter updates run on cell integers written back to the result
        once at :meth:`DriverWalk.finish`. ``run()`` drives the same
        closures, so pushed and pulled walks are bit-identical.

        Args:
            workload_name: stamped on the :class:`CoverageResult`
                (``run()`` passes ``trace.name``).

        Returns:
            A :class:`DriverWalk` whose ``step(access, block)`` consumes
            one access and whose ``finish()`` returns the result.
        """
        system = self.system
        prefetcher = self.prefetcher
        hierarchy = Hierarchy(system)
        result = CoverageResult(
            workload=workload_name,
            prefetcher=prefetcher.name if prefetcher else "none",
        )

        def _discard(block: int, stream: int) -> None:
            result.overpredictions += 1
            if prefetcher is not None:
                prefetcher.on_svb_discard(block, stream)

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

        if prefetcher is None:
            # baseline specialization: with no prefetcher the SVB stays
            # empty and no block is ever marked prefetched, so the SVB
            # probe, coverage branches and prefetch drain are dead code —
            # same counters, same service classes, same outcomes
            def step(access: MemoryAccess, block: int) -> None:
                nonlocal accesses, reads, writes, uncovered_count
                nonlocal l1_hits, l2_hits

                accesses += 1
                if access.is_write:
                    writes += 1
                    is_read = False
                else:
                    reads += 1
                    is_read = True

                level = hier_access(block)[0]
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

        else:
            svb_contains = svb.__contains__
            svb_consume = svb.consume
            svb_insert = svb.insert
            hier_fill_from_svb = hierarchy.fill_from_svb
            hier_present = hierarchy.present
            hier_install = hierarchy.install_prefetch
            on_access = prefetcher.on_access
            pop_requests = prefetcher.pop_requests
            on_l1_eviction = prefetcher.on_l1_eviction
            # the walk's one event, overwritten for every access (an
            # event is valid only during the on_access call)
            event = AccessEvent(None, -1, level_l1)

            def step(access: MemoryAccess, block: int) -> None:
                nonlocal accesses, reads, writes, covered_count
                nonlocal uncovered_count, l1_hits, l2_hits, issued_prefetches

                is_read = not access.is_write
                accesses += 1
                if is_read:
                    reads += 1
                else:
                    writes += 1

                if svb_contains(block):
                    consumed = svb_consume(block)
                    stream_id = consumed if consumed is not None else -1
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

                if evicted is not None:
                    on_l1_eviction(evicted)
                event.access = access
                event.block = block
                event.level = level
                event.covered = covered
                event.stream_id = stream_id
                on_access(event)
                for pf_block, pf_stream, target in pop_requests():
                    if svb_contains(pf_block) or hier_present(pf_block) is not None:
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
            if prefetcher is not None:
                if hasattr(prefetcher, "finish"):
                    prefetcher.finish()
                if hasattr(prefetcher, "stats"):
                    result.prefetcher_stats = prefetcher.stats.to_dict()
            return result

        block_bits = system.address_map.block_bits

        def step_chunk(chunk: AccessChunk) -> None:
            # same step closure per access, driven by one C-level map;
            # block ids come precomputed from the chunk's pre-pass
            deque(
                map(step, chunk.accesses, chunk.blocks_for(block_bits)),
                maxlen=0,
            )

        return DriverWalk(step, step_chunk, finish)

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
