"""Telemetry plane: metrics registry and phase timers.

Two levels, selected by the ``REPRO_TELEMETRY`` environment variable
(or the runner's mode argument, which wins):

``off``
    Zero-cost: the hot-path instrumentation reduces to one ``None``
    check per call site, nothing written.
``basic`` (default)
    Counters and phase timers; the runner writes ``metrics.json`` into
    the run directory.  Bench-gated at ≤2% overhead on the reference
    sweep.

Each job's lifecycle — where it ran and for how long — is not
telemetry: the run journal records it in every mode (see
:mod:`repro.engine.journal`).

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
from pathlib import Path
from typing import List, Optional

from .metrics import METRICS_VERSION, MetricsRegistry  # noqa: F401

ENV_VAR = "REPRO_TELEMETRY"
MODE_OFF = "off"
MODE_BASIC = "basic"
MODES = (MODE_OFF, MODE_BASIC)

METRICS_NAME = "metrics.json"

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
    """One run's metrics registry.

    Owned by the :class:`~repro.engine.engine.Engine`; the engine's
    ``EngineStats`` is a view over :attr:`registry`, so the legacy
    counters and the telemetry plane can never disagree.  The counter
    methods (:meth:`job_cached`, :meth:`job_finished`) run in every
    mode, because ``EngineStats`` needs them regardless.
    """

    def __init__(self, mode: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.mode = resolve_telemetry(mode)
        self.registry = registry if registry is not None else MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.mode != MODE_OFF

    # -- path-invariant counters (always on: EngineStats reads them) ----

    def job_cached(self, job) -> None:
        self.registry.inc(f"jobs.cached.{job.kind}")

    def job_finished(self, job, ok: bool) -> None:
        if ok:
            self.registry.inc(f"jobs.completed.{job.kind}")
            self.registry.inc(f"walk.accesses.{job.kind}", job.length)
        else:
            self.registry.inc(f"jobs.failed.{job.kind}")

    # -- serialization ---------------------------------------------------

    def write(self, directory, run_id: Optional[str] = None) -> "List[Path]":
        """Write ``metrics.json`` into ``directory``.

        Atomic (tmp + replace) so a crash mid-write leaves either the
        previous file or none — ``repro-fsck`` treats damage here as a
        note, never as plane damage.  Returns the paths written; empty
        when the mode is ``off``.
        """
        if not self.enabled:
            return []
        payload = self.registry.as_dict()
        payload["mode"] = self.mode
        if run_id is not None:
            payload["run"] = run_id
        metrics_path = Path(directory) / METRICS_NAME
        _write_atomic(metrics_path, payload)
        return [metrics_path]


def _write_atomic(path: Path, payload: dict) -> None:
    # pid-suffixed like every atomic writer, so a write that dies before
    # the rename leaves a stray ``repro-fsck`` recognises
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
