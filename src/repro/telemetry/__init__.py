"""Telemetry plane: metrics registry and phase timers.

Always on: every run counts its jobs and times its four hot-path phases,
and the runner writes the folded registry to ``metrics.json`` in every
journaled run's directory.  Each job's lifecycle — where it ran and for
how long — is not telemetry: the run journal records it (see
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
from typing import Optional

from .metrics import METRICS_VERSION, MetricsRegistry  # noqa: F401

METRICS_NAME = "metrics.json"

# the four instrumented hot-path phases
PHASE_DECODE = "chunk_decode"
PHASE_PREPASS = "prepass"
PHASE_WALK = "walk_step"
PHASE_FINALIZE = "finalize"
PHASES = (PHASE_DECODE, PHASE_PREPASS, PHASE_WALK, PHASE_FINALIZE)


# -- the process-global registry and phase timer ----------------------------

_PROCESS = MetricsRegistry()


def process_registry() -> MetricsRegistry:
    """The per-process accumulation point for phase timers.

    Engine parents snapshot it before a run and fold the delta after;
    workers snapshot at job start and ship the delta home in their
    result envelope.
    """
    return _PROCESS


def add_phase(phase: str, seconds: float, calls: int = 1) -> None:
    """Accumulate ``seconds`` and ``calls`` of ``phase`` into the
    process registry.

    Not a context manager on purpose: the hot call sites time a block
    with one ``perf_counter()`` pair and call this once, which is
    cheaper than ``with`` frames at chunk granularity.
    """
    counters = _PROCESS._counters
    key = "phase." + phase
    counters[key + ".seconds"] = counters.get(key + ".seconds", 0.0) + seconds
    counters[key + ".calls"] = counters.get(key + ".calls", 0) + calls


# -- per-run collection -----------------------------------------------------

class RunTelemetry:
    """One run's metrics registry.

    Owned by the :class:`~repro.engine.engine.Engine`; the engine's
    ``EngineStats`` is a view over :attr:`registry`, so the legacy
    counters and the telemetry plane can never disagree.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    # -- path-invariant counters ------------------------------------------

    def job_cached(self, job) -> None:
        self.registry.inc(f"jobs.cached.{job.kind}")

    def job_finished(self, job, ok: bool) -> None:
        if ok:
            self.registry.inc(f"jobs.completed.{job.kind}")
            self.registry.inc(f"walk.accesses.{job.kind}", job.length)
        else:
            self.registry.inc(f"jobs.failed.{job.kind}")

    # -- serialization ---------------------------------------------------

    def write(self, directory, run_id: Optional[str] = None) -> Path:
        """Write ``metrics.json`` into ``directory`` and return its path.

        Atomic (tmp + replace) so a crash mid-write leaves either the
        previous file or none — ``repro-fsck`` treats damage here as a
        note, never as plane damage.
        """
        payload = self.registry.as_dict()
        if run_id is not None:
            payload["run"] = run_id
        metrics_path = Path(directory) / METRICS_NAME
        _write_atomic(metrics_path, payload)
        return metrics_path


def _write_atomic(path: Path, payload: dict) -> None:
    # pid-suffixed like every atomic writer, so a write that dies before
    # the rename leaves a stray ``repro-fsck`` recognises
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
