"""Fault-tolerance primitives for the execution plane.

This module is the policy layer the engine's recovery paths share:

* :class:`RetryPolicy` — how many times a job may be attempted, how long
  to back off between attempts (exponential with *deterministic* jitter,
  so two runs of the same sweep retry on the same schedule), and the
  per-job wall-clock timeout the parallel supervisor enforces.
* :class:`JobFailure` — the structured record a job leaves in the
  :class:`~repro.engine.engine.ResultMap` when it exhausts its retries
  under the default (non-strict) degradation mode. Callers that index
  the map can distinguish "failed after N attempts" from "absent".
* :class:`JobExecutionError` — the exception the strict mode raises
  instead; it wraps the same :class:`JobFailure`.
* :func:`quarantine_file` — the shared move-aside helper: a damaged
  store entry or cache shard is relocated into a ``quarantine/``
  subdirectory next to a ``<name>.reason.txt`` file instead of being
  deleted, so corruption is debuggable after the run recovers.

Nothing here imports the engine, the store, or the cache — those layers
import *this*, which keeps the policy reusable from pool workers.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

#: subdirectory (of a store or cache root) holding quarantined files
QUARANTINE_DIR = "quarantine"


def _unit_draw(*parts: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed by ``parts``.

    Stable across processes, platforms and interpreter hash
    randomization — the basis of both the retry jitter and the
    fault-injection harness, so injected runs are exactly repeatable.
    """
    payload = "\x1f".join(str(part) for part in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine re-attempts a failing job.

    Attributes:
        attempts: total tries per job (1 = no retries).
        backoff: base sleep in seconds before attempt ``n+1``; the
            actual sleep is ``backoff * 2**(n-1)`` scaled by a
            deterministic jitter factor in ``[0.5, 1.5)`` derived from
            ``(job key, attempt)`` — exponential, but identical across
            reruns of the same sweep.
        timeout: per-job wall-clock budget in seconds (parallel mode
            only — the supervisor kills and respawns the pool when an
            in-flight job exceeds it), or None for no limit.
    """

    attempts: int = 3
    backoff: float = 0.05
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def backoff_for(self, key: str, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        if self.backoff == 0:
            return 0.0
        jitter = 0.5 + _unit_draw("backoff", key, attempt)
        return self.backoff * (2 ** (attempt - 1)) * jitter

    def sleep_before_retry(self, key: str, attempt: int) -> None:
        delay = self.backoff_for(key, attempt)
        if delay > 0:
            time.sleep(delay)


@dataclass(frozen=True)
class JobFailure:
    """A job that exhausted its retries, as a result-map value.

    Attributes:
        job_hash: the failed job's content hash.
        label: the job's human-readable label.
        attempts: how many times execution was attempted.
        error_type: the final exception's class name.
        error: the final exception's message.
        history: ``(error_type, message)`` per failed attempt, oldest
            first — the full degradation trail for debugging.
    """

    job_hash: str
    label: str
    attempts: int
    error_type: str
    error: str
    history: Tuple[Tuple[str, str], ...] = ()

    def summary(self) -> str:
        return (
            f"{self.label} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.error}"
        )


class JobExecutionError(RuntimeError):
    """Raised under strict mode when a job exhausts its retries."""

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(failure.summary())
        self.failure = failure


class RunInterrupted(BaseException):
    """A cooperative shutdown request stopped the run between jobs.

    Raised by the engine's dispatch gate when the graceful-shutdown
    event is set (SIGINT/SIGTERM): no new jobs are dispatched, in-flight
    futures are cancelled, and the exception propagates to the runner,
    which seals the journal as ``interrupted`` and exits with the
    resumable code 3. Derives from :class:`BaseException` (like
    ``KeyboardInterrupt``) so ordinary ``except Exception`` recovery
    paths never swallow it.
    """

    def __init__(self, completed: int = 0, pending: int = 0) -> None:
        super().__init__(
            f"run interrupted ({completed} job(s) journaled complete, "
            f"{pending} pending)"
        )
        self.completed = completed
        self.pending = pending


@dataclass
class AttemptLog:
    """Mutable per-job attempt trail the engine builds a failure from."""

    job_hash: str
    label: str
    errors: List[Tuple[str, str]] = field(default_factory=list)

    def record(self, error: BaseException) -> None:
        self.errors.append((type(error).__name__, str(error)))

    @property
    def attempts(self) -> int:
        return len(self.errors)

    def failure(self) -> JobFailure:
        error_type, message = self.errors[-1] if self.errors else ("", "")
        return JobFailure(
            job_hash=self.job_hash,
            label=self.label,
            attempts=self.attempts,
            error_type=error_type,
            error=message,
            history=tuple(self.errors),
        )


def quarantine_file(
    path: Union[str, Path], root: Union[str, Path], reason: str
) -> Optional[Path]:
    """Move a damaged file into ``root/quarantine/`` with a reason file.

    The file keeps its name (a retrying writer immediately publishes a
    fresh copy at the old path); a sibling ``<name>.reason.txt`` records
    why it was pulled. Collisions append a numeric suffix so repeated
    corruption of a regenerated entry never silently overwrites the
    evidence of the previous one.

    Args:
        path: the damaged file.
        root: the store/cache root the quarantine directory lives under.
        reason: one-line explanation written to the reason file.

    Returns:
        The quarantined file's new path, or None when ``path`` vanished
        before the move (a racing recoverer already quarantined it) —
        never raises for a missing source.
    """
    path = Path(path)
    directory = Path(root) / QUARANTINE_DIR
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / path.name
    serial = 0
    while target.exists():
        serial += 1
        target = directory / f"{path.name}.{serial}"
    try:
        shutil.move(str(path), str(target))
    except OSError:
        return None
    target.with_name(target.name + ".reason.txt").write_text(
        f"{reason}\nquarantined_at={time.strftime('%Y-%m-%dT%H:%M:%S')}"
        f" pid={os.getpid()}\n"
    )
    return target
