"""Workload composition framework.

A workload is a weighted set of :class:`TraceComponent` behaviours; the
composer interleaves component *bursts* (one page visit, one scan page,
one noise access, ...) with a deficit scheduler so each component
converges to its target share of accesses while bursts from different
components interleave — mirroring how real applications keep many spatial
generations live at once (§3.1).
"""

from __future__ import annotations

import abc
import hashlib
import inspect
import json
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trace.container import Trace, TraceSource
from repro.trace.events import MemoryAccess


class _BurstBuffer:
    """Minimal append-sink used for streaming generation.

    Components only ever call ``append`` (and read the returned access's
    ``index``), so this duck-types the :class:`Trace` append API while
    holding just the current burst in memory; the composer drains it
    after every scheduler activation.
    """

    __slots__ = ("chunk", "total")

    def __init__(self) -> None:
        self.chunk: List[MemoryAccess] = []
        self.total = 0

    def __len__(self) -> int:
        return self.total

    def append(
        self,
        pc: int,
        address: int,
        is_write: bool = False,
        depends_on: Optional[int] = None,
        instr_gap: int = 4,
    ) -> MemoryAccess:
        access = MemoryAccess(
            index=self.total,
            pc=pc,
            address=address,
            is_write=is_write,
            depends_on=depends_on,
            instr_gap=instr_gap,
        )
        self.chunk.append(access)
        self.total += 1
        return access

    def drain(self) -> List[MemoryAccess]:
        chunk, self.chunk = self.chunk, []
        return chunk


class TraceComponent(abc.ABC):
    """One access-pattern behaviour inside a workload."""

    #: short identifier used in metadata and tests
    label: str = "component"
    #: consecutive bursts emitted per scheduler activation. Real programs
    #: execute phases — a transaction touches several pages back to back —
    #: so related misses cluster in the global sequence; without this the
    #: interleave is uniformly hostile in a way real traces are not.
    run_bursts: int = 1

    def __new__(cls, *args: Any, **kwargs: Any) -> "TraceComponent":
        component = super().__new__(cls)
        # kept for constructor_arguments(); __init__ still receives them
        component._constructed_with = (args, kwargs)
        return component

    @abc.abstractmethod
    def emit_burst(self, trace: Trace, rng: random.Random) -> int:
        """Append one burst of accesses to ``trace``; returns accesses added."""

    def constructor_arguments(self) -> Dict[str, Any]:
        """Every ``__init__`` argument this component was built with,
        defaults included — what makes its access stream what it is."""
        args, kwargs = self._constructed_with
        bound = inspect.signature(type(self).__init__).bind(
            self, *args, **kwargs
        )
        bound.apply_defaults()
        return dict(list(bound.arguments.items())[1:])  # drop self


class ComposedWorkload:
    """A named, seeded mixture of trace components."""

    def __init__(
        self,
        name: str,
        category: str,
        components: Sequence[Tuple[TraceComponent, float]],
        description: str = "",
    ) -> None:
        if not components:
            raise ValueError("a workload needs at least one component")
        total = sum(weight for _, weight in components)
        if total <= 0:
            raise ValueError("component weights must sum to a positive value")
        self.name = name
        self.category = category
        self.description = description
        self._components: List[TraceComponent] = [c for c, _ in components]
        self._shares: List[float] = [w / total for _, w in components]

    def fingerprint(self) -> str:
        """A digest of how this generator is built: category, each
        component's class and constructor arguments, and its share.
        Stable across processes (the trace store keys entries by it)."""
        spec = [
            [type(component).__name__, component.constructor_arguments(),
             share]
            for component, share in zip(self._components, self._shares)
        ]
        payload = json.dumps([self.category, spec], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def trace_metadata(self, n_accesses: int, seed: int) -> dict:
        """Metadata attached to any trace/source generated with these args."""
        return {
            "seed": seed,
            "requested_accesses": n_accesses,
            "components": [c.label for c in self._components],
            "shares": list(self._shares),
        }

    def iter_accesses(
        self, n_accesses: int, seed: int = 42
    ) -> Iterator[MemoryAccess]:
        """Lazily generate at least ``n_accesses`` references.

        This is the single generation code path: accesses are yielded
        burst by burst as the deficit scheduler produces them, so only
        the current burst is ever buffered. Components keep internal
        cursor state, so each generator pass must run on a *fresh*
        workload instance (see :func:`repro.workloads.registry.stream_workload`).
        """
        if n_accesses <= 0:
            raise ValueError(f"n_accesses must be positive, got {n_accesses}")
        rng = random.Random(seed)
        buffer = _BurstBuffer()
        emitted = [0] * len(self._components)
        while len(buffer) < n_accesses:
            total = max(1, len(buffer))
            # deficit scheduling: run the component furthest below its share
            deficits = [
                share * total - count
                for share, count in zip(self._shares, emitted)
            ]
            pick = max(range(len(deficits)), key=deficits.__getitem__)
            component = self._components[pick]
            for _ in range(max(1, component.run_bursts)):
                emitted[pick] += component.emit_burst(buffer, rng)
            yield from buffer.drain()

    def stream(self, n_accesses: int, seed: int = 42) -> TraceSource:
        """A lazy :class:`TraceSource` over this workload's accesses.

        Note: bound to *this* instance's component state — iterate at
        most once. Re-iterable sources come from
        :func:`repro.workloads.registry.stream_workload`, which rebuilds
        the workload per pass.
        """
        return TraceSource(
            name=self.name,
            category=self.category,
            factory=lambda: self.iter_accesses(n_accesses, seed),
            metadata=self.trace_metadata(n_accesses, seed),
            length_hint=n_accesses,
        )

    def generate(self, n_accesses: int, seed: int = 42) -> Trace:
        """Generate a materialized trace of at least ``n_accesses`` references."""
        return self.stream(n_accesses, seed).materialize()
