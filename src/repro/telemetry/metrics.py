"""Structured metrics: named counters with a fork-safe fold.

The registry is the single accumulation point for everything the engine
counts.  ``EngineStats`` is a *view* over it (see
:mod:`repro.engine.engine`), worker processes ship deltas back inside
the existing result envelopes, and the runner serializes the folded
registry to ``metrics.json`` in the run directory.

Design constraints:

* **Lock-free in a worker.**  Each process mutates only its own
  registry (plain dict updates under the GIL); cross-process folding
  happens in the parent via :meth:`MetricsRegistry.merge` on plain-dict
  snapshots carried by the result envelopes.
* **Fork-safe.**  A forked worker inherits the parent's process-global
  registry contents; workers therefore report ``delta_since(snapshot)``
  rather than absolute values, so inherited counts are never
  double-folded.
"""

from __future__ import annotations

from typing import Dict

#: bumped when the serialized form changes (3: ``metrics.json`` has no mode)
METRICS_VERSION = 3


class MetricsRegistry:
    """Counters behind plain-dict storage.

    All mutation is a dict update — safe against signal interruption,
    no locks, no allocation beyond the first touch of a name.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def set_counter(self, name: str, value: float) -> None:
        self._counters[name] = value

    def counters(self, prefix: str = "") -> Dict[str, float]:
        return {name: value for name, value in self._counters.items()
                if name.startswith(prefix)}

    # -- serialization ---------------------------------------------------

    def data(self) -> dict:
        """The canonical plain-dict form (mergeable, JSON-safe)."""
        return {"counters": dict(self._counters)}

    def as_dict(self) -> dict:
        """``data()`` plus the format version."""
        payload = self.data()
        payload["version"] = METRICS_VERSION
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        return registry

    # -- folding ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A point-in-time copy, for :meth:`delta_since`."""
        return self.data()

    def delta_since(self, snapshot: dict) -> dict:
        """What changed since ``snapshot`` — the worker's report."""
        base = snapshot.get("counters", {})
        counters = {}
        for name, value in self._counters.items():
            delta = value - base.get(name, 0)
            if delta:
                counters[name] = delta
        return {"counters": counters}

    def merge(self, data: dict) -> None:
        """Fold a worker's delta (or a whole serialized registry) in."""
        if not data:
            return
        for name, value in data.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
