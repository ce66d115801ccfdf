"""Streaming-analysis lifecycle shared by the Figure 6-8 consumers.

Every trace analysis is an *incremental consumer*: it observes one
:class:`~repro.trace.events.MemoryAccess` at a time through ``update()``
and produces its result dataclass exactly once through ``finalize()``.
Nothing in the lifecycle requires an in-memory trace, so any
:class:`~repro.trace.container.TraceLike` — an in-memory ``Trace`` or a
lazy ``TraceSource`` — can be analyzed in a single pass with peak memory
independent of trace length (bounded by the workload's address footprint
and the analysis' own window sizes, never by the access count).

The analyses share one miss definition — the no-prefetcher hierarchy's
— so each is a member of a :class:`~repro.sim.driver.BaselineReplay`
that steps the hierarchy and generation table for all its members.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Optional

from repro.common.config import SystemConfig
from repro.kernels.prepass import AccessChunk, iter_trace_chunks
from repro.sim.driver import BaselineReplay
from repro.trace.events import MemoryAccess


class StreamingAnalysis(abc.ABC):
    """One-pass trace consumer with an ``update()``/``finalize()`` lifecycle.

    Subclasses define ``_observe(access, block, level, generation)`` (per
    replayed access) and/or ``_on_generation_end(record)`` (per completed
    spatial generation), and ``_finalize`` (assemble the result); the
    base class enforces the lifecycle: an analysis accepts accesses until
    it is finalized, yields its result exactly once, and rejects any use
    afterwards.

    Standalone, an analysis rides a private replay of one, built at its
    first access; the engine :meth:`attach` es it to a shared replay.

    Typical use::

        analysis = CorrelationDistanceAnalysis(system, workload="db2")
        for access in trace_source:     # never materialized
            analysis.update(access)
        result = analysis.finalize()

    Args:
        system: cache geometry used to identify off-chip misses.
    """

    #: per-access hook, or None for analyses that account only generations
    _observe: Optional[Callable] = None
    #: completed-generation hook, or None
    _on_generation_end: Optional[Callable] = None

    def __init__(self, system: SystemConfig) -> None:
        self._finalized = False
        self._system = system
        self._amap = system.address_map
        self._replay: Optional[BaselineReplay] = None

    def attach(self, replay: BaselineReplay) -> None:
        """Ride ``replay`` (before its first access) instead of a private
        one; the caller steps it."""
        if self._replay is not None:
            raise RuntimeError(f"{type(self).__name__} already rides a replay")
        replay.join(self._observe, self._on_generation_end, generations=True)
        self._replay = replay

    def _own_replay(self) -> BaselineReplay:
        if self._replay is None:
            self.attach(BaselineReplay(self._system))
        return self._replay

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
        self._own_replay().step(access, self._amap.block_of(access.address))

    def update_block(self, chunk: AccessChunk) -> None:
        """Observe one whole :class:`~repro.kernels.AccessChunk`.

        The chunk-level entry point of the trace walk — bit-identical to
        calling :meth:`update` per access: the lifecycle check runs once
        per chunk, block ids come from the chunk's pre-pass and the
        replay's per-access step runs inside one C-driven ``map``.

        Raises:
            RuntimeError: if the analysis has already been finalized.
        """
        if self._finalized:
            raise RuntimeError(
                f"{type(self).__name__}.update_block() called after finalize()"
            )
        self._own_replay().step_chunk(chunk)

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
        if self._replay is not None:
            self._replay.finish()
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
    def _finalize(self) -> Any:
        """Assemble and return the result (subclass hook)."""
