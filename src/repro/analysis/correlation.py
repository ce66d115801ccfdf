"""Correlation distance within spatial generations (Fig. 8, §5.4).

For every completed generation whose spatial index has a prior recorded
occurrence, each *consecutive pair* of accesses in the new sequence is
scored by the distance between those same two offsets in the prior
sequence: +1 is perfect repetition, other values are reorderings, and
pairs whose offsets are absent from the prior sequence are unmatched.

The paper reports the cumulative distribution over distances -6..+6
(96% of spatial accesses fall in that range).

The analysis is a single-pass incremental consumer
(:class:`CorrelationDistanceAnalysis`): generations are scored as the
active-generation table completes them, and only the most recent
completed sequence per spatial index is retained — peak memory tracks
the workload's (PC, offset) index footprint, not trace length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.base import HierarchyReplayAnalysis
from repro.common.config import SystemConfig
from repro.prefetch.sms.generations import GenerationRecord, SpatialIndex
from repro.trace.events import MemoryAccess


@dataclass
class CorrelationDistanceResult:
    """Histogram of correlation distances for one workload."""

    workload: str
    histogram: Counter = field(default_factory=Counter)
    unmatched: int = 0

    @property
    def matched_pairs(self) -> int:
        """Pairs whose two offsets both exist in the prior sequence —
        the population Fig. 8's CDF is normalized over."""
        return sum(self.histogram.values())

    @property
    def total_pairs(self) -> int:
        return self.matched_pairs + self.unmatched

    @property
    def matched_fraction(self) -> float:
        total = self.total_pairs
        return self.matched_pairs / total if total else 0.0

    def fraction_at(self, distance: int) -> float:
        matched = self.matched_pairs
        return self.histogram[distance] / matched if matched else 0.0

    def cumulative_within(self, window: int) -> float:
        """Fraction of matched pairs with |distance| <= window (distance 0
        cannot occur; +1 is perfect repetition)."""
        matched = self.matched_pairs
        if matched == 0:
            return 0.0
        hits = sum(
            count
            for distance, count in self.histogram.items()
            if -window <= distance <= window
        )
        return hits / matched

    def cdf_rows(self, span: int = 6) -> List[Tuple[int, float]]:
        """(distance, cumulative fraction) rows as plotted in Fig. 8."""
        matched = self.matched_pairs
        rows: List[Tuple[int, float]] = []
        running = 0
        for distance in range(-span, span + 1):
            if distance == 0:
                continue
            running += self.histogram[distance]
            rows.append((distance, running / matched if matched else 0.0))
        return rows


class CorrelationDistanceAnalysis(HierarchyReplayAnalysis):
    """Incremental Fig. 8 scorer over one access stream.

    Args:
        system: cache geometry feeding the generation tracker.
        workload: name stamped on the result.
    """

    def __init__(self, system: SystemConfig, workload: str = "") -> None:
        super().__init__(
            system, on_generation_end=self._on_generation_end
        )
        self._result = CorrelationDistanceResult(workload=workload)
        #: last completed sequence per spatial index
        self._prior: Dict[SpatialIndex, List[int]] = {}

    def _on_generation_end(self, record: GenerationRecord) -> None:
        sequence = [record.trigger_offset] + [e.offset for e in record.elements]
        previous = self._prior.get(record.index)
        self._prior[record.index] = sequence
        if previous is None or len(sequence) < 2:
            return
        result = self._result
        positions = {offset: i for i, offset in enumerate(previous)}
        for a, b in zip(sequence, sequence[1:]):
            pa, pb = positions.get(a), positions.get(b)
            if pa is None or pb is None:
                result.unmatched += 1
                continue
            result.histogram[pb - pa] += 1

    def _observe(self, access: MemoryAccess, block: int, offchip: bool,
                 generation) -> None:
        pass  # all accounting happens at generation end

    def _finalize(self) -> CorrelationDistanceResult:
        self._agt.flush()
        return self._result
