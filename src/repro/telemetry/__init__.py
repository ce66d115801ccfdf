"""Telemetry plane: metrics registry, per-job spans, phase timers.

Three levels, selected by the ``REPRO_TELEMETRY`` environment variable
(or the runner's mode argument, which wins):

``off``
    Zero-cost: the hot-path instrumentation reduces to one ``None``
    check per call site, no spans, nothing written.
``basic`` (default)
    Counters, gauges, histograms, per-job spans, phase timers; the
    runner writes ``metrics.json`` into the run directory.  Bench-gated
    at ≤2% overhead on the reference sweep.
``trace``
    Everything in ``basic``, plus ``trace.json`` — the spans rendered
    as Chrome trace-event JSON for Perfetto / ``chrome://tracing``.

The phase timers instrument the four hot-path phases (chunk decode,
vectorized pre-pass, walk step, analysis finalize) by accumulating
into a **process-global** registry: a forked worker inherits the
parent's counts and therefore reports ``delta_since(snapshot)`` taken
at its own start, never absolute values (see
:mod:`repro.telemetry.metrics`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import (  # noqa: F401  (re-exported)
    HISTOGRAM_BUCKET_BOUNDS,
    HISTOGRAM_LOG2_MAX,
    HISTOGRAM_LOG2_MIN,
    METRICS_VERSION,
    Histogram,
    MetricsRegistry,
    bucket_index,
)
from .spans import AttemptSpan, chrome_trace  # noqa: F401  (re-exported)

ENV_VAR = "REPRO_TELEMETRY"
MODE_OFF = "off"
MODE_BASIC = "basic"
MODE_TRACE = "trace"
MODES = (MODE_OFF, MODE_BASIC, MODE_TRACE)

METRICS_NAME = "metrics.json"
TRACE_NAME = "trace.json"

# the four instrumented hot-path phases
PHASE_DECODE = "chunk_decode"
PHASE_PREPASS = "prepass"
PHASE_WALK = "walk_step"
PHASE_FINALIZE = "finalize"
PHASES = (PHASE_DECODE, PHASE_PREPASS, PHASE_WALK, PHASE_FINALIZE)


def resolve_telemetry(mode: Optional[str] = None) -> str:
    """Explicit argument > ``REPRO_TELEMETRY`` env var > ``basic``."""
    if mode is None:
        mode = os.environ.get(ENV_VAR) or MODE_BASIC
    mode = mode.lower()
    if mode not in MODES:
        raise ValueError(
            f"unknown telemetry mode {mode!r}: expected one of {MODES}"
        )
    return mode


def telemetry_enabled() -> bool:
    """True unless the environment says ``off`` (hot-path-cheap check)."""
    return os.environ.get(ENV_VAR, MODE_BASIC).lower() != MODE_OFF


# -- the process-global registry and phase timer ----------------------------

_PROCESS = MetricsRegistry()


def process_registry() -> MetricsRegistry:
    """The per-process accumulation point for phase timers.

    Engine parents snapshot it before a run and fold the delta after;
    workers snapshot at job start and ship the delta home in their
    result envelope.
    """
    return _PROCESS


class PhaseTimer:
    """Accumulates phase wall time into the process registry.

    Not a context manager on purpose: the hot call sites time a block
    with one ``perf_counter()`` pair and call :meth:`add` once, which
    is cheaper than ``with`` frames at chunk granularity.
    """

    __slots__ = ()

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        counters = _PROCESS._counters
        key = "phase." + phase
        counters[key + ".seconds"] = (
            counters.get(key + ".seconds", 0.0) + seconds
        )
        counters[key + ".calls"] = counters.get(key + ".calls", 0) + calls


_TIMER = PhaseTimer()


def phases_active() -> Optional[PhaseTimer]:
    """The phase timer, or ``None`` when telemetry is off.

    Reads the environment per call: one dict lookup and a compare, so
    instrumented sites pay nothing measurable when off, and workers
    spawned with a different environment honour their own setting.
    Unknown values fall back to "on" — the runner validates the mode
    up front; the hot path must never raise.
    """
    if os.environ.get(ENV_VAR, MODE_BASIC).lower() == MODE_OFF:
        return None
    return _TIMER


# -- per-run collection -----------------------------------------------------

class RunTelemetry:
    """One run's metrics registry plus its per-job attempt spans.

    Owned by the :class:`~repro.engine.engine.Engine`; the engine's
    ``EngineStats`` is a view over :attr:`registry`, so the legacy
    counters and the telemetry plane can never disagree.  All span
    methods are no-ops when the mode is ``off`` — the counter methods
    (:meth:`job_cached`, :meth:`job_finished`) always run, because
    ``EngineStats`` needs them regardless of mode.
    """

    def __init__(self, mode: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.mode = resolve_telemetry(mode)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans: List[AttemptSpan] = []
        self._open: Dict[str, AttemptSpan] = {}
        self._queued: Dict[str, tuple] = {}

    @property
    def enabled(self) -> bool:
        return self.mode != MODE_OFF

    # -- span lifecycle --------------------------------------------------

    def job_scheduled(self, job) -> None:
        """Record graph admission; spans opened later inherit the time."""
        if not self.enabled:
            return
        self._queued[job.job_hash] = (job.label(), job.kind, time.time())

    def attempt_started(self, job_hash: str, attempt: int,
                        worker: str = "main") -> None:
        if not self.enabled:
            return
        label, kind, queued = self._queued.get(
            job_hash, (job_hash[:12], "?", None)
        )
        self._open[job_hash] = AttemptSpan(
            job_hash=job_hash, label=label, kind=kind, attempt=attempt,
            worker=worker, queued=queued, start=time.time(),
        )

    def attempt_detail(self, job_hash: str, detail: dict) -> None:
        """Attach a worker's self-report to the open span."""
        if not self.enabled:
            return
        span = self._open.get(job_hash)
        if span is None:
            return
        detail = dict(detail)
        span.worker = detail.pop("worker", span.worker)
        span.wall_s = detail.pop("wall_s", span.wall_s)
        span.cpu_s = detail.pop("cpu_s", span.cpu_s)
        span.detail.update(
            (k, v) for k, v in detail.items() if v is not None
        )

    def attempt_finished(self, job_hash: str, status: str,
                         error: Optional[str] = None) -> None:
        if not self.enabled:
            return
        span = self._open.pop(job_hash, None)
        if span is None:
            return
        span.end = time.time()
        span.status = status
        if span.wall_s is None and span.start is not None:
            span.wall_s = span.end - span.start
        if error:
            span.detail["error"] = error
        self.spans.append(span)
        if status == "ok" and span.wall_s is not None:
            self.registry.observe("job.wall_seconds", span.wall_s)

    # -- path-invariant counters (always on: EngineStats reads them) ----

    def job_cached(self, job) -> None:
        self.registry.inc(f"jobs.cached.{job.kind}")

    def job_finished(self, job, ok: bool) -> None:
        if ok:
            self.registry.inc(f"jobs.completed.{job.kind}")
            self.registry.inc(f"walk.accesses.{job.kind}", job.length)
        else:
            self.registry.inc(f"jobs.failed.{job.kind}")
        if job.job_hash in self._open:
            self.attempt_finished(job.job_hash, "ok" if ok else "failed")

    # -- worker envelope folding ----------------------------------------

    def absorb_attempt(self, job_hash: str, payload: dict) -> None:
        """Fold one pool worker's telemetry envelope (metrics + span)."""
        if not payload:
            return
        self.registry.merge(payload.get("metrics") or {})
        span = payload.get("span")
        if span:
            self.attempt_detail(job_hash, span)

    def absorb_bundle(self, job_hashes, payload: dict) -> None:
        """Fold a broadcast bundle's envelope: metrics once, detail each."""
        if not payload:
            return
        self.registry.merge(payload.get("metrics") or {})
        span = payload.get("span")
        if span:
            for job_hash in job_hashes:
                self.attempt_detail(job_hash, span)

    # -- serialization ---------------------------------------------------

    def write(self, directory, run_id: Optional[str] = None) -> "List[Path]":
        """Write ``metrics.json`` (and ``trace.json`` at trace mode).

        Atomic (tmp + replace) so a crash mid-write leaves either the
        previous file or none — ``repro-fsck`` treats damage here as a
        note, never as plane damage.  Returns the paths written; empty
        when the mode is ``off``.
        """
        if not self.enabled:
            return []
        directory = Path(directory)
        spans = list(self.spans) + list(self._open.values())
        payload = self.registry.as_dict()
        payload["mode"] = self.mode
        if run_id is not None:
            payload["run"] = run_id
        payload["spans"] = [span.to_dict() for span in spans]
        written = []
        metrics_path = directory / METRICS_NAME
        _write_atomic(metrics_path, payload)
        written.append(metrics_path)
        if self.mode == MODE_TRACE:
            trace_path = directory / TRACE_NAME
            _write_atomic(trace_path, chrome_trace(spans, run_id or ""))
            written.append(trace_path)
        return written


def _write_atomic(path: Path, payload: dict) -> None:
    # pid-suffixed like every atomic writer, so a write that dies before
    # the rename leaves a stray ``repro-fsck`` recognises
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
