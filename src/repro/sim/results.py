"""Result records produced by the coverage driver and the timing model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


#: per-access service classes the driver feeds the timing model
SERVICE_L1 = "l1"
SERVICE_L2 = "l2"
SERVICE_MEMORY = "mem"
SERVICE_SVB = "svb"
SERVICE_PREFETCHED_L1 = "pf"


@dataclass
class CoverageResult:
    """Coverage accounting for one (workload, prefetcher) run (Fig. 9).

    ``covered``/``uncovered`` count *read* accesses only, matching the
    paper's off-chip read-miss metric; ``baseline_misses`` is their sum.
    """

    workload: str
    prefetcher: str
    accesses: int = 0
    reads: int = 0
    writes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    covered: int = 0
    uncovered: int = 0
    issued_prefetches: int = 0
    overpredictions: int = 0
    prefetcher_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def baseline_misses(self) -> int:
        return self.covered + self.uncovered

    @property
    def coverage(self) -> float:
        """Fraction of off-chip read misses eliminated (Fig. 9 'Covered')."""
        if self.baseline_misses == 0:
            return 0.0
        return self.covered / self.baseline_misses

    @property
    def overprediction_rate(self) -> float:
        """Erroneous fetches normalized to baseline misses (Fig. 9)."""
        if self.baseline_misses == 0:
            return 0.0
        return self.overpredictions / self.baseline_misses

    @property
    def accuracy(self) -> float:
        """Useful fraction of issued prefetches."""
        if self.issued_prefetches == 0:
            return 0.0
        return self.covered / self.issued_prefetches


@dataclass
class TimingResult:
    """Output of the analytical timing model (Fig. 10)."""

    workload: str
    prefetcher: str
    cycles: float
    instructions: int
    memory_stall_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "TimingResult") -> float:
        """Speedup of *this* configuration relative to ``baseline``."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles
