"""Shared experiment configuration and declarative job builders.

``ExperimentConfig`` holds the knobs every harness shares (trace length,
seed, system geometry, workload subset) and builds the :class:`SimJob`
descriptions the engine executes. Harnesses declare jobs through the
helpers here instead of constructing predictors and running drivers
themselves, which is what lets the engine deduplicate, parallelize and
cache across figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

from repro.common.config import SystemConfig
from repro.engine.job import (
    KIND_CORRELATION,
    KIND_COVERAGE,
    KIND_JOINT,
    KIND_REPETITION,
    KIND_TIMING,
    PrefetcherSpec,
    SimJob,
)
from repro.workloads.registry import WORKLOAD_NAMES


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment harnesses."""

    trace_length: int = 200_000
    seed: int = 42
    system: SystemConfig = field(default_factory=SystemConfig.scaled)
    workloads: List[str] = field(default_factory=lambda: list(WORKLOAD_NAMES))
    #: leading trace fraction excluded from Fig. 6 classification counts
    skip_fraction: float = 0.3
    #: leading trace fraction excluded from Fig. 10 cycle counts
    warmup_fraction: float = 0.4
    #: Sequitur input bound for Fig. 7 (grammar inference dominates cost)
    sequitur_max: int = 50_000

    @staticmethod
    def small() -> "ExperimentConfig":
        """Fast preset for tests and pytest-benchmark runs."""
        return ExperimentConfig(trace_length=40_000, sequitur_max=15_000)

    # -- job builders ------------------------------------------------------

    def coverage_job(
        self,
        workload: str,
        kind: str = "none",
        with_stride: bool = False,
        system: Optional[SystemConfig] = None,
        **overrides: Any,
    ) -> SimJob:
        """A driver coverage run of ``kind`` over ``workload``."""
        return SimJob.make(
            KIND_COVERAGE,
            workload,
            self.trace_length,
            self.seed,
            system if system is not None else self.system,
            self._spec(kind, with_stride, overrides),
        )

    def timing_job(
        self, workload: str, kind: str, with_stride: bool = False
    ) -> SimJob:
        """A coverage run plus the Fig. 10 timing model."""
        return SimJob.make(
            KIND_TIMING,
            workload,
            self.trace_length,
            self.seed,
            self.system,
            self._spec(kind, with_stride, {}),
            warmup_fraction=self.warmup_fraction,
        )

    def joint_job(self, workload: str) -> SimJob:
        """The Fig. 6 idealized joint-predictability analysis."""
        return SimJob.make(
            KIND_JOINT,
            workload,
            self.trace_length,
            self.seed,
            self.system,
            skip_fraction=self.skip_fraction,
        )

    def repetition_job(self, workload: str) -> SimJob:
        """The Fig. 7 Sequitur repetition analysis."""
        return SimJob.make(
            KIND_REPETITION,
            workload,
            self.trace_length,
            self.seed,
            self.system,
            max_elements=self.sequitur_max,
        )

    def correlation_job(self, workload: str) -> SimJob:
        """The Fig. 8 correlation-distance analysis."""
        return SimJob.make(
            KIND_CORRELATION,
            workload,
            self.trace_length,
            self.seed,
            self.system,
        )

    @staticmethod
    def _spec(kind: str, with_stride: bool, overrides: dict) -> Optional[PrefetcherSpec]:
        if kind == "none" and not with_stride and not overrides:
            return None
        return PrefetcherSpec.make(kind, with_stride=with_stride, **overrides)

    def system_with(self, **changes: Any) -> SystemConfig:
        """The active system config with fields replaced (sweeps)."""
        return replace(self.system, **changes)
