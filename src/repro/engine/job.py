"""Job descriptions: what to simulate, hashed for dedup and caching.

A :class:`SimJob` is a pure *description* — workload, trace length, seed,
system configuration, prefetcher specification and kind-specific
parameters — with no behaviour attached. Execution lives in
:mod:`repro.engine.exec`; describing work separately from running it is
what lets the engine deduplicate identical runs across experiments,
farm jobs out to worker processes, and key an on-disk result cache.

Every job has a stable content hash derived from the canonical JSON form
of its fields, so the same experiment declared twice — or declared by
two different figures — maps to the same hash (and therefore the same
simulation and cache entry) regardless of declaration order or process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.common.config import SystemConfig

#: a SimulationDriver coverage run (CoverageResult)
KIND_COVERAGE = "coverage"
#: a coverage run with service recording plus the timing model (TimingResult)
KIND_TIMING = "timing"
#: the Fig. 6 idealized joint-predictability analysis (JointCoverageResult)
KIND_JOINT = "joint"
#: the Fig. 7 Sequitur repetition analysis (RepetitionBreakdown pair)
KIND_REPETITION = "repetition"
#: the Fig. 8 correlation-distance analysis (CorrelationDistanceResult)
KIND_CORRELATION = "correlation"

JOB_KINDS = (
    KIND_COVERAGE,
    KIND_TIMING,
    KIND_JOINT,
    KIND_REPETITION,
    KIND_CORRELATION,
)

#: predictor kinds build_prefetcher() can construct
PREFETCHER_KINDS = (
    "none", "stride", "markov", "ghb", "tms", "sms", "stems", "hybrid",
)
#: the subset whose config dataclass accepts ``overrides``
CONFIGURABLE_PREFETCHER_KINDS = ("tms", "sms", "stems")


@dataclass(frozen=True)
class PrefetcherSpec:
    """Declarative prefetcher choice for a job.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied to
    the predictor's config dataclass (e.g. ``(("lookahead", 16),)`` for a
    sensitivity sweep point); tuples keep the spec hashable and
    canonical. Only the kinds in :data:`CONFIGURABLE_PREFETCHER_KINDS`
    consume overrides — a spec that would silently drop them is rejected
    at construction so a sweep can't degenerate into N identical runs.
    """

    kind: str = "none"
    with_stride: bool = False
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in PREFETCHER_KINDS:
            raise ValueError(
                f"unknown prefetcher kind {self.kind!r}; "
                f"choose from {PREFETCHER_KINDS}"
            )
        if self.overrides and self.kind not in CONFIGURABLE_PREFETCHER_KINDS:
            raise ValueError(
                f"prefetcher kind {self.kind!r} does not take config "
                f"overrides (got {dict(self.overrides)}); only "
                f"{CONFIGURABLE_PREFETCHER_KINDS} do"
            )

    @staticmethod
    def make(
        kind: str, with_stride: bool = False, **overrides: Any
    ) -> "PrefetcherSpec":
        return PrefetcherSpec(
            kind=kind,
            with_stride=with_stride,
            overrides=tuple(sorted(overrides.items())),
        )


@dataclass(frozen=True)
class SimJob:
    """One unit of simulation work, identified by its content.

    A job is pure data — executable anywhere, by any process, with a
    bit-identical result. Fractional knobs (``skip_fraction``,
    ``warmup_fraction``) are resolved against the *requested* ``length``
    at execution time, so a streaming run never needs the generated
    trace's exact final length.

    Attributes:
        kind: one of :data:`JOB_KINDS` (what to compute).
        workload: name from the ten-workload suite.
        length: requested trace length in accesses (generators may
            overshoot by up to one burst).
        seed: trace-generation seed.
        system: full system configuration the job runs under.
        prefetcher: declarative predictor choice, or None for baseline.
        params: kind-specific knobs (``skip_fraction`` for joint
            analysis, ``warmup_fraction`` for timing, ``max_elements``
            for repetition) as sorted ``(name, value)`` pairs.
    """

    kind: str
    workload: str
    length: int
    seed: int
    system: SystemConfig
    prefetcher: Optional[PrefetcherSpec] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}"
            )

    @staticmethod
    def make(
        kind: str,
        workload: str,
        length: int,
        seed: int,
        system: SystemConfig,
        prefetcher: Optional[PrefetcherSpec] = None,
        **params: Any,
    ) -> "SimJob":
        """Build a job with ``params`` canonicalized into sorted pairs.

        Args:
            kind: one of :data:`JOB_KINDS`.
            workload: workload name.
            length: requested trace length in accesses.
            seed: trace-generation seed.
            system: system configuration.
            prefetcher: predictor spec, or None for the baseline.
            **params: kind-specific knobs, stored sorted by name.

        Returns:
            The frozen, hashable job description.
        """
        return SimJob(
            kind=kind,
            workload=workload,
            length=length,
            seed=seed,
            system=system,
            prefetcher=prefetcher,
            params=tuple(sorted(params.items())),
        )

    def param(self, name: str, default: Any = None) -> Any:
        """The kind-specific knob ``name``, or ``default`` if unset."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def trace_key(self) -> Tuple[str, int, int]:
        """The ``(workload, length, seed)`` triple naming this job's trace.

        Trace generation is seed-deterministic, so any two jobs with
        equal trace keys walk bit-identical access sequences no matter
        which process generates them. The key is the unit of sharing in
        the trace plane: the serial engine fans one generation pass out
        to every pending job with the same key, and the
        :class:`~repro.tracestore.TraceStore` records/replays one binary
        trace file per key (its entry name is a stable hash of exactly
        this triple). The key deliberately excludes the system config,
        prefetcher and kind-specific params — those change what a job
        *computes* over the trace, never the trace itself.
        """
        return (self.workload, self.length, self.seed)

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (the hash input)."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "length": self.length,
            "seed": self.seed,
            "system": dataclasses.asdict(self.system),
            "prefetcher": (
                dataclasses.asdict(self.prefetcher) if self.prefetcher else None
            ),
            "params": [list(pair) for pair in self.params],
        }

    @property
    def job_hash(self) -> str:
        return _job_hash(self)

    def label(self) -> str:
        """Short human-readable identity for logs and progress output."""
        spec = self.prefetcher
        prefetcher = spec.kind if spec else "none"
        if spec and spec.with_stride:
            prefetcher += "+stride"
        if spec and spec.overrides:
            prefetcher += "[" + ",".join(f"{k}={v}" for k, v in spec.overrides) + "]"
        return f"{self.kind}:{self.workload}:{prefetcher}"


@lru_cache(maxsize=4096)
def _job_hash(job: SimJob) -> str:
    # no default=: a non-JSON field value must fail loudly here rather
    # than hash (and cache) under a lossy string form
    payload = json.dumps(job.describe(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
