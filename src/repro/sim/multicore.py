"""Multiprocessor simulation: per-core hierarchies with write-invalidate
sharing.

The paper evaluates a 16-processor directory-based SMP; STeMS state is
entirely per-processor (§4), so the first-order multiprocessor effect on
the predictors is *coherence invalidations*: a write by one core removes
the block from every other core's caches and SVB, and an invalidated
block terminates its spatial generation exactly like an eviction (§2.4).

:class:`MulticoreDriver` models that: N cores with private L1/L2/SVB and
private prefetchers, a round-robin interleave of per-core traces, and a
block-granularity write-invalidate protocol (a simplified directory — we
track, per block, which cores may hold it). Invalidation latency and
bandwidth are not modelled; coverage accounting matches the uniprocessor
driver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.common.config import SystemConfig
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.memsys.svb import StreamedValueBuffer
from repro.prefetch.base import TARGET_L1, TARGET_SVB, AccessEvent, Prefetcher
from repro.sim.results import CoverageResult
from repro.trace.container import Trace

PrefetcherFactory = Callable[[], Optional[Prefetcher]]


@dataclass
class MulticoreResult:
    """Aggregate + per-core coverage for one multicore run."""

    per_core: List[CoverageResult]
    invalidations: int = 0
    #: invalidations that hit a block staged in some core's SVB
    svb_invalidations: int = 0

    @property
    def covered(self) -> int:
        return sum(r.covered for r in self.per_core)

    @property
    def uncovered(self) -> int:
        return sum(r.uncovered for r in self.per_core)

    @property
    def coverage(self) -> float:
        total = self.covered + self.uncovered
        return self.covered / total if total else 0.0

    @property
    def overpredictions(self) -> int:
        return sum(r.overpredictions for r in self.per_core)


class _Core:
    """Private state of one processor."""

    def __init__(self, core_id: int, system: SystemConfig,
                 prefetcher: Optional[Prefetcher], workload: str) -> None:
        self.core_id = core_id
        self.hierarchy = Hierarchy(system)
        self.prefetcher = prefetcher
        self.result = CoverageResult(
            workload=workload,
            prefetcher=prefetcher.name if prefetcher else "none",
        )
        self.svb = StreamedValueBuffer(
            system.svb_entries, on_discard_unused=self._on_discard
        )
        self.cursor = 0  # next access index in this core's trace

    def _on_discard(self, block: int, stream: int) -> None:
        self.result.overpredictions += 1
        if self.prefetcher is not None:
            self.prefetcher.on_svb_discard(block, stream)


class MulticoreDriver:
    """Round-robin multicore coverage simulation with write-invalidate."""

    def __init__(
        self,
        system: SystemConfig,
        prefetcher_factory: PrefetcherFactory,
    ) -> None:
        self.system = system
        self.prefetcher_factory = prefetcher_factory

    def run(self, traces: Sequence[Trace]) -> MulticoreResult:
        if not traces:
            raise ValueError("need at least one per-core trace")
        amap = self.system.address_map
        cores = [
            _Core(i, self.system, self.prefetcher_factory(), trace.name)
            for i, trace in enumerate(traces)
        ]
        #: simplified directory: block -> cores that may hold a copy
        sharers: Dict[int, Set[int]] = defaultdict(set)
        result = MulticoreResult(per_core=[c.result for c in cores])
        # the run's one event, overwritten for every access (an event is
        # valid only during the on_access call)
        event = AccessEvent(None, -1, ServiceLevel.L1)

        live = True
        while live:
            live = False
            for core, trace in zip(cores, traces):
                if core.cursor >= len(trace):
                    continue
                live = True
                access = trace[core.cursor]
                core.cursor += 1
                block = amap.block_of(access.address)
                self._step(core, access, block, sharers, result, cores, event)
        for core in cores:
            core.result.overpredictions += (
                core.hierarchy.l1.unused_prefetch_evictions
            )
            core.svb.drain_unused()
            core.result.overpredictions += core.hierarchy.l1.unused_prefetch_count()
            if core.prefetcher is not None and hasattr(core.prefetcher, "finish"):
                core.prefetcher.finish()
        return result

    # -- one access on one core ---------------------------------------------------

    def _step(self, core, access, block, sharers, result, cores, event) -> None:
        is_read = not access.is_write
        core.result.accesses += 1
        if is_read:
            core.result.reads += 1
        else:
            core.result.writes += 1

        covered = False
        stream_id = -1
        if block in core.svb:
            consumed = core.svb.consume(block)
            stream_id = consumed if consumed is not None else -1
            evicted = core.hierarchy.fill_from_svb(block)
            level = ServiceLevel.SVB
            covered = True
            if is_read:
                core.result.covered += 1
        else:
            level, evicted, prefetch_hit = core.hierarchy.access(block)
            if prefetch_hit:
                covered = True
                if is_read:
                    core.result.covered += 1
            elif level is ServiceLevel.L1:
                core.result.l1_hits += 1
            elif level is ServiceLevel.L2:
                core.result.l2_hits += 1
            elif is_read:
                core.result.uncovered += 1
        sharers[block].add(core.core_id)

        # write-invalidate: remove every other core's copy; invalidations
        # terminate spatial generations like evictions (§2.4)
        if access.is_write:
            for other_id in list(sharers[block]):
                if other_id == core.core_id:
                    continue
                other = cores[other_id]
                invalidated = other.hierarchy.l1.invalidate(block)
                other.hierarchy.l2.invalidate(block)
                if block in other.svb:
                    other.svb.consume(block)  # dropped, not counted as used
                    other.result.overpredictions += 1
                    result.svb_invalidations += 1
                if invalidated and other.prefetcher is not None:
                    other.prefetcher.on_l1_eviction(block)
                result.invalidations += 1
            sharers[block] = {core.core_id}

        prefetcher = core.prefetcher
        if prefetcher is None:
            return
        if evicted is not None:
            prefetcher.on_l1_eviction(evicted)
        event.access = access
        event.block = block
        event.level = level
        event.covered = covered
        event.stream_id = stream_id
        prefetcher.on_access(event)
        for pf_block, pf_stream, target in prefetcher.pop_requests():
            target = target or prefetcher.install_target
            if pf_block in core.svb or core.hierarchy.present(pf_block) is not None:
                continue
            core.result.issued_prefetches += 1
            sharers[pf_block].add(core.core_id)
            if target == TARGET_SVB:
                core.svb.insert(pf_block, pf_stream)
            elif target == TARGET_L1:
                evicted = core.hierarchy.install_prefetch(pf_block)
                if evicted is not None:
                    prefetcher.on_l1_eviction(evicted)
            else:
                raise ValueError(f"unknown prefetch target {target!r}")
