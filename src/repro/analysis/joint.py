"""Joint TMS/SMS predictability classification (Fig. 6, §5.2).

Every off-chip read miss is classified as predictable by *idealized*
temporal correlation, idealized spatial correlation, both, or neither:

* **temporally predictable** — one of the last ``WINDOW`` misses recurred
  earlier in the global sequence with this address within ``WINDOW``
  positions after it: a temporal predictor that located that miss and
  streamed with that lookahead would fetch this address (an exact-digram
  test would be too strict — streaming tolerates small insertions and
  deletions, §2.2);
* **spatially predictable** — the miss is not a trigger, and its offset
  is in the pattern most recently recorded for the same (PC, offset)
  index — the bit-vector SMS semantics: an all-time union would wrongly
  credit aliased indexes whose patterns conflict.

These limit-study definitions deliberately ignore finite tables, stream
queues and SVB capacity — Fig. 6 measures *opportunity*, and Fig. 9 then
shows how much of it the real mechanisms capture.

The classifier is a single-pass incremental consumer. The temporal test
nominally needs the window of misses *following the previous occurrence*
of each recent miss — which sounds like it requires the whole miss
sequence — but those windows can be captured forward: every miss opens
an (initially empty) successor window that the next ``WINDOW`` misses
fill in, and each miss records a reference to the window its *previous*
occurrence opened. Recent-miss entries then carry exactly the slice the
batch formulation would read, and peak memory is bounded by the address
footprint (one window reference per distinct block), never by trace
length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.analysis.base import HierarchyReplayAnalysis
from repro.common.config import SystemConfig
from repro.prefetch.sms.generations import SpatialIndex
from repro.trace.events import MemoryAccess


@dataclass(frozen=True)
class JointCoverageResult:
    """Fractions of off-chip read misses per Fig. 6 category."""

    workload: str
    misses: int
    both: float
    tms_only: float
    sms_only: float
    neither: float

    @property
    def temporal(self) -> float:
        """Total temporally predictable fraction."""
        return self.both + self.tms_only

    @property
    def spatial(self) -> float:
        """Total spatially predictable fraction."""
        return self.both + self.sms_only

    @property
    def joint(self) -> float:
        """Fraction predictable by at least one technique."""
        return self.both + self.tms_only + self.sms_only

    def format(self) -> str:
        return (
            f"{self.workload:<8} both={self.both:6.1%} "
            f"tms-only={self.tms_only:6.1%} sms-only={self.sms_only:6.1%} "
            f"neither={self.neither:6.1%} (n={self.misses})"
        )


#: streaming tolerance of the idealized temporal classifier (the paper's
#: mechanisms use a lookahead of 8, §4.3)
TEMPORAL_WINDOW = 8


class JointPredictabilityAnalysis(HierarchyReplayAnalysis):
    """Incremental Fig. 6 classifier over one access stream.

    Args:
        system: cache geometry used to identify off-chip misses.
        measure_from: leading accesses excluded from the reported counts
            (training still sees them) — the paper classifies traces
            collected after extensive warming (§5.1), so cold-start
            compulsory misses would otherwise be over-represented.
        workload: name stamped on the result.
    """

    def __init__(
        self,
        system: SystemConfig,
        measure_from: int = 0,
        workload: str = "",
    ) -> None:
        super().__init__(
            system, on_generation_end=self._on_generation_end
        )
        if measure_from < 0:
            raise ValueError(f"measure_from must be >= 0, got {measure_from}")
        self.workload = workload
        self.measure_from = measure_from
        #: per spatial index: offsets ever touched in a completed generation
        self._spatial_history: Dict[SpatialIndex, Set[int]] = {}
        # -- temporal-window machinery (see module docstring) --------------
        #: successor window opened at each block's most recent miss
        self._window_after: Dict[int, List[int]] = {}
        #: windows still collecting their next TEMPORAL_WINDOW misses
        self._filling: Deque[List[int]] = deque()
        #: per recent miss: the window after its *previous* occurrence
        self._recent: Deque[Optional[List[int]]] = deque(maxlen=TEMPORAL_WINDOW)
        self._counts = {"both": 0, "tms": 0, "sms": 0, "neither": 0}
        self._misses = 0

    def _on_generation_end(self, record) -> None:
        self._spatial_history[record.index] = {
            e.offset for e in record.elements
        }

    def _observe(self, access: MemoryAccess, block: int, offchip: bool,
                 generation) -> None:
        if not offchip or access.is_write:
            return
        measured = access.index >= self.measure_from
        if measured:
            self._misses += 1

        # temporal: did a recent miss occur earlier in the sequence with
        # this block among the addresses that followed it within the
        # streaming window? Each recent entry holds exactly the misses
        # observed so far in the window after its previous occurrence.
        temporal = False
        for window in self._recent:
            if window is not None and block in window:
                temporal = True
                break
        self._recent.append(self._window_after.get(block))
        # this miss extends every window still collecting successors ...
        filling = self._filling
        for window in filling:
            window.append(block)
        while filling and len(filling[0]) >= TEMPORAL_WINDOW:
            filling.popleft()
        # ... and opens the successor window for its own occurrence
        opened: List[int] = []
        filling.append(opened)
        self._window_after[block] = opened

        spatial = False
        is_trigger, record = generation
        if not is_trigger:
            history = self._spatial_history.get(record.index)
            spatial = (
                history is not None
                and self._amap.offset_in_region(block) in history
            )

        if measured:
            if temporal and spatial:
                self._counts["both"] += 1
            elif temporal:
                self._counts["tms"] += 1
            elif spatial:
                self._counts["sms"] += 1
            else:
                self._counts["neither"] += 1

    def _finalize(self) -> JointCoverageResult:
        self._agt.flush()
        misses = self._misses
        if misses == 0:
            return JointCoverageResult(self.workload, 0, 0.0, 0.0, 0.0, 0.0)
        counts = self._counts
        return JointCoverageResult(
            workload=self.workload,
            misses=misses,
            both=counts["both"] / misses,
            tms_only=counts["tms"] / misses,
            sms_only=counts["sms"] / misses,
            neither=counts["neither"] / misses,
        )
