"""Structured metrics: counters, gauges, and log2-bucket histograms.

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
* **Comparable across PRs.**  Histogram bucket boundaries are pinned
  constants (below) and recorded in the serialized form; a bucket index
  means the same value range in every ``metrics.json`` ever written.

Histogram buckets
-----------------
Power-of-two boundaries spanning ``2**HISTOGRAM_LOG2_MIN`` (~1µs — below
timer resolution) to ``2**HISTOGRAM_LOG2_MAX`` (~34 years — above any
run), plus a final +inf bucket.  Bucket ``i`` counts observations
``v <= HISTOGRAM_BUCKET_BOUNDS[i]`` (and ``> bounds[i-1]`` for i > 0).
The range is deliberately generous so the boundaries never need to
move: changing them would make histograms incomparable across PRs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Optional

METRICS_VERSION = 1

HISTOGRAM_LOG2_MIN = -20
HISTOGRAM_LOG2_MAX = 40
HISTOGRAM_BUCKET_BOUNDS = tuple(
    2.0 ** e for e in range(HISTOGRAM_LOG2_MIN, HISTOGRAM_LOG2_MAX + 1)
) + (math.inf,)


def bucket_index(value: float) -> int:
    """Index of the log2 bucket that counts ``value``."""
    if value <= HISTOGRAM_BUCKET_BOUNDS[0]:
        return 0
    return bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)


class Histogram:
    """Sparse log2-bucket histogram: counts, running sum, total count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.sum += value
        self.count += 1

    def as_dict(self) -> dict:
        return {
            "counts": {str(i): n for i, n in sorted(self.counts.items())},
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls()
        hist.counts = {int(i): int(n) for i, n in data["counts"].items()}
        hist.sum = float(data["sum"])
        hist.count = int(data["count"])
        return hist


class MetricsRegistry:
    """Counters, gauges, and histograms behind plain-dict storage.

    All mutation is a dict update — safe against signal interruption,
    no locks, no allocation beyond the first touch of a name.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- counters --------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def set_counter(self, name: str, value: float) -> None:
        self._counters[name] = value

    def counters(self, prefix: str = "") -> Dict[str, float]:
        return {name: value for name, value in self._counters.items()
                if name.startswith(prefix)}

    # -- gauges ----------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    # -- histograms ------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    # -- serialization ---------------------------------------------------

    def data(self) -> dict:
        """The canonical plain-dict form (mergeable, JSON-safe)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: hist.as_dict()
                           for name, hist in self._histograms.items()},
        }

    def as_dict(self) -> dict:
        """``data()`` plus the version and pinned bucket boundaries."""
        payload = self.data()
        payload["version"] = METRICS_VERSION
        payload["histogram_log2"] = [HISTOGRAM_LOG2_MIN, HISTOGRAM_LOG2_MAX]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        for name, value in data.get("gauges", {}).items():
            registry._gauges[name] = value
        return registry

    # -- folding ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A point-in-time copy, for :meth:`delta_since`."""
        return self.data()

    def delta_since(self, snapshot: dict) -> dict:
        """What changed since ``snapshot`` — the worker's report.

        Counters and histogram bucket counts subtract; gauges report
        their current value (last-write-wins has no meaningful delta).
        """
        base_counters = snapshot.get("counters", {})
        counters = {}
        for name, value in self._counters.items():
            delta = value - base_counters.get(name, 0)
            if delta:
                counters[name] = delta
        base_hists = snapshot.get("histograms", {})
        histograms = {}
        for name, hist in self._histograms.items():
            base = base_hists.get(name)
            if base is None:
                histograms[name] = hist.as_dict()
                continue
            base_counts = {int(i): n for i, n in base["counts"].items()}
            counts = {}
            for index, n in hist.counts.items():
                diff = n - base_counts.get(index, 0)
                if diff:
                    counts[str(index)] = diff
            if counts:
                histograms[name] = {
                    "counts": counts,
                    "sum": hist.sum - base["sum"],
                    "count": hist.count - base["count"],
                }
        return {
            "counters": counters,
            "gauges": dict(self._gauges),
            "histograms": histograms,
        }

    def merge(self, data: dict) -> None:
        """Fold a worker's delta (or a whole serialized registry) in.

        Counters and histograms add; gauges overwrite.
        """
        if not data:
            return
        for name, value in data.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in data.get("gauges", {}).items():
            self._gauges[name] = value
        for name, payload in data.get("histograms", {}).items():
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            for index, n in payload.get("counts", {}).items():
                index = int(index)
                hist.counts[index] = hist.counts.get(index, 0) + int(n)
            hist.sum += payload.get("sum", 0.0)
            hist.count += payload.get("count", 0)
