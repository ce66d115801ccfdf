"""Streaming-analysis lifecycle shared by the Figure 6-8 consumers.

Every trace analysis is an *incremental consumer*: it observes one
:class:`~repro.trace.events.MemoryAccess` at a time through ``update()``
and produces its result dataclass exactly once through ``finalize()``.
Nothing in the lifecycle requires an in-memory trace, so any
:class:`~repro.trace.container.TraceLike` — an in-memory ``Trace`` or a
lazy ``TraceSource`` — can be analyzed in a single pass with peak memory
independent of trace length (bounded by the workload's address footprint
and the analysis' own window sizes, never by the access count).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.common.config import SystemConfig
from repro.kernels.prepass import AccessChunk, iter_trace_chunks
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.prefetch.sms.generations import ActiveGenerationTable
from repro.trace.events import MemoryAccess


class StreamingAnalysis(abc.ABC):
    """One-pass trace consumer with an ``update()``/``finalize()`` lifecycle.

    Subclasses implement ``_update`` (observe one access) and ``_finalize``
    (assemble the result); the base class enforces the lifecycle: an
    analysis accepts accesses until it is finalized, yields its result
    exactly once, and rejects any use afterwards.

    Typical use::

        analysis = CorrelationDistanceAnalysis(system, workload="db2")
        for access in trace_source:     # never materialized
            analysis.update(access)
        result = analysis.finalize()
    """

    def __init__(self) -> None:
        self._finalized = False

    def update(self, access: MemoryAccess) -> None:
        """Observe one access.

        Args:
            access: the next trace record, in trace order.

        Raises:
            RuntimeError: if the analysis has already been finalized.
        """
        if self._finalized:
            raise RuntimeError(
                f"{type(self).__name__}.update() called after finalize()"
            )
        self._update(access)

    def update_block(self, chunk: AccessChunk) -> None:
        """Observe one whole :class:`~repro.kernels.AccessChunk`.

        The chunk-level entry point of the trace walk: the lifecycle
        check runs once per chunk and the per-access hook is driven by a
        C-level ``map``. The base implementation feeds ``_update`` in
        order — bit-identical to calling :meth:`update` per access —
        and subclasses whose state updates are associative over a chunk
        (hierarchy-replay accounting with precomputed block ids)
        override it with a batched version.

        Raises:
            RuntimeError: if the analysis has already been finalized.
        """
        if self._finalized:
            raise RuntimeError(
                f"{type(self).__name__}.update_block() called after finalize()"
            )
        deque(map(self._update, chunk.accesses), maxlen=0)

    def finalize(self) -> Any:
        """Close the analysis and return its result (exactly once).

        Returns:
            The analysis-specific result dataclass.

        Raises:
            RuntimeError: if the analysis was already finalized.
        """
        if self._finalized:
            raise RuntimeError(
                f"{type(self).__name__}.finalize() called twice"
            )
        self._finalized = True
        return self._finalize()

    def consume(self, accesses: Iterable[MemoryAccess]) -> Any:
        """Drive the full lifecycle over ``accesses`` and return the result.

        Args:
            accesses: any iterable of trace records (``Trace``,
                ``TraceSource``, generator, ...), walked exactly once,
                one :meth:`update_block` per chunk.

        Returns:
            Whatever :meth:`finalize` returns.
        """
        update_block = self.update_block
        for chunk in iter_trace_chunks(accesses):
            update_block(chunk)
        return self.finalize()

    @abc.abstractmethod
    def _update(self, access: MemoryAccess) -> None:
        """Observe one access (subclass hook; lifecycle already checked)."""

    @abc.abstractmethod
    def _finalize(self) -> Any:
        """Assemble and return the result (subclass hook)."""


class HierarchyReplayAnalysis(StreamingAnalysis):
    """Streaming analysis that replays accesses through a cache hierarchy.

    The Figure 6-8 analyses all share the same per-access plumbing: map
    the address to a block, walk it through a private hierarchy to learn
    whether it misses off-chip, and (for the spatial analyses) feed the
    SMS active-generation table, forwarding L1 evictions so generations
    end exactly as they would in the real mechanism. Centralizing that
    walk keeps the analyses' miss definitions in lockstep; subclasses
    implement :meth:`_observe` with their own accounting.

    Args:
        system: cache geometry used to identify off-chip misses.
        use_agt: track spatial generations (the temporal-only analyses
            skip the table entirely; it never affects the hierarchy).
        on_generation_end: callback handed to the generation table.
        agt_entries: active-generation-table capacity.
    """

    def __init__(
        self,
        system: SystemConfig,
        use_agt: bool = True,
        on_generation_end: Optional[Callable] = None,
        agt_entries: int = 64,
    ) -> None:
        super().__init__()
        self._amap = system.address_map
        self._block_bits = self._amap.block_bits
        self._hierarchy = Hierarchy(system)
        self._agt: Optional[ActiveGenerationTable] = (
            ActiveGenerationTable(
                agt_entries, self._amap, on_generation_end=on_generation_end
            )
            if use_agt
            else None
        )

    def update_block(self, chunk: AccessChunk) -> None:
        """Batched hierarchy replay: block ids come from the chunk's
        vectorized pre-pass instead of a per-access ``block_of`` call,
        and the per-access hook runs inside one C-driven ``map``."""
        if self._finalized:
            raise RuntimeError(
                f"{type(self).__name__}.update_block() called after finalize()"
            )
        deque(
            map(self._step, chunk.accesses, chunk.blocks_for(self._block_bits)),
            maxlen=0,
        )

    def _update(self, access: MemoryAccess) -> None:
        self._step(access, access.address >> self._block_bits)

    def _step(self, access: MemoryAccess, block: int) -> None:
        level, evicted, _ = self._hierarchy.access(block)
        offchip = level is ServiceLevel.MEMORY
        agt = self._agt
        if agt is not None:
            observed = agt.observe(access.pc, block, offchip)
            if evicted is not None:
                agt.on_l1_eviction(evicted)
        else:
            observed = None
        self._observe(access, block, offchip, observed)

    @abc.abstractmethod
    def _observe(self, access: MemoryAccess, block: int, offchip: bool,
                 generation) -> None:
        """Account one replayed access.

        Args:
            access: the trace record just replayed.
            block: its block id.
            offchip: True when the hierarchy serviced it from memory.
            generation: the generation table's ``(is_trigger, record)``
                observe result, or None when ``use_agt`` is False.
        """
