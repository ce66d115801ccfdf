"""Durable runs: the crash-safe write-ahead run journal.

Every journaled sweep lives under ``<cache-dir>/runs/<run_id>/``, and
its one record is ``journal.jsonl``: an append-only write-ahead log.
Each line is one event, framed as ``<crc32 hex8> <canonical JSON>`` and
fsync'd before the engine moves on, so the log survives a SIGKILL, an
OOM kill or a power cut with at worst one torn trailing line (which
readers detect and drop — everything before it is trustworthy). The
first event is the run header (argv, pid, start time, experiments,
config hash, package/cache/store versions); the rest are job lifecycle
events: ``job_scheduled`` (with the job's full canonical description),
``attempt_started`` / ``attempt_failed``, ``job_completed`` — written
only *after* the result is durably in the result cache, with the cache
shard it landed in and, for an executed job, the worker that ran it and
its wall time — and finally ``run_finished``, which seals the run with
a terminal status (``clean | degraded | failed | interrupted``) and the
engine's stats. The journal is the one record of every job's
lifecycle: ``repro-report`` builds its job, per-kind, slowest-job and
fault tables from it alone.

A run's status is derived from the journal alone: the sealed status
when there is one; otherwise ``running`` while the header's pid is
alive, and ``crashed`` — therefore resumable — once it is not. Which
run resumed which is derived too: a resuming run's header names the
run it resumed (``resumed_from``), and :func:`list_runs` links the pair,
so nothing ever rewrites a finished run's directory.

Resume (:mod:`repro.experiments.runner` ``--resume <run_id|last>``)
re-parses the header's argv, so the resumed run declares the identical
:class:`~repro.engine.graph.JobGraph`, warns when that graph's job
hashes drift from the journaled ``job_scheduled`` set, and re-executes
only the jobs with no durable result in the result cache — jobs are
pure and traces seed-deterministic, so the resumed run is bit-identical
to an uninterrupted one.

:class:`GracefulShutdown` is the signal side of durability: the first
SIGINT/SIGTERM sets a cooperative event the engine polls between job
dispatches (drain, flush, exit with the resumable code 3); a second
SIGINT hard-aborts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__ as _PACKAGE_VERSION
from repro.engine.cache import CACHE_VERSION
from repro.engine.faults import JobFailure
from repro.engine.job import SimJob
from repro.tracestore.store import STORE_VERSION

#: subdirectory of a cache dir holding one directory per journaled run
RUNS_DIR = "runs"
JOURNAL_NAME = "journal.jsonl"

#: bumped when the event schema changes incompatibly
JOURNAL_VERSION = 1

#: the statuses ``run_finished`` seals a run with (an unsealed journal
#: is ``running`` or, once its pid is dead, ``crashed``)
TERMINAL_STATUSES = ("clean", "degraded", "failed", "interrupted")


class JournalError(ValueError):
    """A journal is structurally unusable."""


def new_run_id() -> str:
    """A filesystem-safe, time-sortable identifier for one run."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{os.getpid()}-{os.urandom(2).hex()}"


def runs_root(cache_dir: Union[str, Path]) -> Path:
    """Where a cache directory keeps its journaled runs."""
    return Path(cache_dir) / RUNS_DIR


def config_hash(config: Any) -> str:
    """Stable content hash of an experiment config dataclass."""
    import hashlib

    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- line framing -----------------------------------------------------------


def encode_line(event: Dict[str, Any]) -> str:
    """One event as a CRC-framed journal line (without the newline)."""
    payload = json.dumps(event, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(payload.encode()):08x} {payload}"


def decode_line(line: str) -> Dict[str, Any]:
    """Parse one framed line; raises :class:`JournalError` on damage."""
    crc_hex, sep, payload = line.partition(" ")
    if not sep or len(crc_hex) != 8:
        raise JournalError("missing CRC frame")
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        raise JournalError("bad CRC field") from None
    if zlib.crc32(payload.encode()) != expected:
        raise JournalError("CRC mismatch")
    try:
        event = json.loads(payload)
    except ValueError:
        raise JournalError("bad event JSON") from None
    if not isinstance(event, dict):
        raise JournalError("event is not an object")
    return event


# -- writer -----------------------------------------------------------------


class RunJournal:
    """Write-ahead journal for one run (the writer side).

    Create with :meth:`create`; every ``append`` is flushed and fsync'd
    before returning, so an event the engine has moved past is durable.
    :meth:`finish` (or :meth:`close`) releases the file handle.
    """

    def __init__(self, directory: Union[str, Path], run_id: str) -> None:
        self.directory = Path(directory)
        self.run_id = run_id
        self.jobs_scheduled = 0
        self.jobs_completed = 0
        self._handle = (self.directory / JOURNAL_NAME).open(
            "a", encoding="utf-8"
        )

    @staticmethod
    def create(
        root: Union[str, Path],
        run_id: Optional[str] = None,
        header: Optional[Dict[str, Any]] = None,
    ) -> "RunJournal":
        """Start a new journaled run under ``root`` (the runs directory).

        Args:
            root: the runs root (``<cache-dir>/runs``), created if
                missing.
            run_id: explicit identifier (must be new), or None for an
                auto-generated one.
            header: extra run-header fields (argv, experiments, config
                hash…) recorded in the ``run_started`` event.

        Raises:
            JournalError: when ``run_id`` is unusable or already taken.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if run_id is not None:
            if not run_id or any(
                c not in "abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
                for c in run_id
            ):
                raise JournalError(
                    f"run id {run_id!r} is not filesystem-safe "
                    "(use letters, digits, '.', '_', '-')"
                )
            directory = root / run_id
            if directory.exists():
                raise JournalError(f"run {run_id!r} already exists")
        else:
            while True:
                run_id = new_run_id()
                directory = root / run_id
                if not directory.exists():
                    break
        directory.mkdir(parents=True)
        journal = RunJournal(directory, run_id)
        started = time.strftime("%Y-%m-%dT%H:%M:%S")
        event: Dict[str, Any] = {
            "event": "run_started",
            "journal": JOURNAL_VERSION,
            "run_id": run_id,
            "started": started,
            "started_unix": time.time(),
            "pid": os.getpid(),
            "versions": {
                "repro": _PACKAGE_VERSION,
                "cache": CACHE_VERSION,
                "store": STORE_VERSION,
                "python": sys.version.split()[0],
            },
        }
        event.update(header or {})
        journal.append(event)
        return journal

    # -- low-level ---------------------------------------------------------

    def append(self, event: Dict[str, Any]) -> None:
        """Write one event durably (flush + fsync before returning).

        Every event gets a ``t`` epoch timestamp (µs resolution) unless
        the caller supplied one; readers use ``.get`` so journals from
        before the field remain valid.
        """
        event.setdefault("t", round(time.time(), 6))
        self._handle.write(encode_line(event) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- lifecycle events ---------------------------------------------------

    def job_scheduled(self, job: SimJob) -> None:
        """WAL intent: ``job`` is part of this run (full description)."""
        self.jobs_scheduled += 1
        self.append({
            "event": "job_scheduled",
            "job": job.job_hash,
            "label": job.label(),
            "trace_key": list(job.trace_key),
            "describe": job.describe(),
        })

    def attempt_started(self, job_hash: str, attempt: int) -> None:
        self.append({
            "event": "attempt_started", "job": job_hash, "attempt": attempt,
        })

    def attempt_failed(self, job_hash: str, attempt: int,
                       error: str) -> None:
        self.append({
            "event": "attempt_failed", "job": job_hash, "attempt": attempt,
            "error": error,
        })

    def job_completed(self, job: SimJob, shard: Optional[Path] = None,
                      source: str = "executed",
                      worker: Optional[str] = None,
                      wall_s: Optional[float] = None) -> None:
        """``job`` has a durable result (cache shard written, or served
        from the cache). Only ever written *after* the store succeeds —
        the completion is the commit record.

        An executed job also records where it ran (``main``, ``worker-<pid>``
        or ``bundle-<n>``) and its own walk and finalize seconds.
        """
        self.jobs_completed += 1
        event: Dict[str, Any] = {
            "event": "job_completed",
            "job": job.job_hash,
            "source": source,
            "shard": str(shard) if shard is not None else None,
        }
        if worker is not None:
            event["worker"] = worker
            event["wall_s"] = round(wall_s, 6)
        self.append(event)

    def job_failed(self, failure: JobFailure) -> None:
        """``job`` exhausted its retries (a resume re-attempts it)."""
        self.append({
            "event": "job_failed",
            "job": failure.job_hash,
            "attempts": failure.attempts,
            "error": f"{failure.error_type}: {failure.error}",
        })

    def finish(self, status: str,
               stats: Optional[Dict[str, Any]] = None) -> None:
        """Seal the run: terminal event + close."""
        if status not in TERMINAL_STATUSES:
            raise JournalError(f"not a terminal status: {status!r}")
        event: Dict[str, Any] = {
            "event": "run_finished",
            "status": status,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        if stats:
            event["stats"] = stats
        self.append(event)
        self.close()

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()


# -- reader -----------------------------------------------------------------


@dataclass
class JournalDamage:
    """Where (and how) a journal stopped being readable."""

    line: int                 #: 1-based line number of the first bad line
    reason: str
    torn_tail: bool           #: damage is the file's final line (normal
    #: crash evidence) rather than mid-file corruption


@dataclass
class RunRecord:
    """Everything a reader can recover about one journaled run."""

    run_id: str
    directory: Path
    header: Dict[str, Any] = field(default_factory=dict)
    scheduled: "Dict[str, Dict[str, Any]]" = field(default_factory=dict)
    labels: Dict[str, str] = field(default_factory=dict)
    completed: "Dict[str, str]" = field(default_factory=dict)  # hash→source
    failed: "Dict[str, str]" = field(default_factory=dict)     # hash→error
    attempts: Dict[str, int] = field(default_factory=dict)
    finished_status: Optional[str] = None
    damage: Optional[JournalDamage] = None
    valid_bytes: int = 0      #: byte length of the journal's valid prefix
    #: the run whose header names this one in ``resumed_from`` (derived
    #: by :func:`list_runs`; None from a bare :func:`load_run`)
    resumed_by: Optional[str] = None

    @property
    def argv(self) -> List[str]:
        argv = self.header.get("argv")
        if not isinstance(argv, list):
            raise JournalError(
                f"run {self.run_id}: no recorded argv (header lost?)"
            )
        return [str(part) for part in argv]

    @property
    def started(self) -> str:
        return str(self.header.get("started") or "")

    @property
    def started_unix(self) -> float:
        """Sub-second start time — what ``last`` selection orders by
        (the human-readable ``started`` only has 1s resolution)."""
        try:
            return float(self.header.get("started_unix") or 0.0)
        except (TypeError, ValueError):
            return 0.0

    def incomplete(self) -> List[str]:
        """Scheduled jobs with no durable completion, journal order."""
        return [h for h in self.scheduled if h not in self.completed]

    def status(self) -> str:
        """The sealed status; for an unsealed journal ``running`` while
        the header's pid is alive, else ``crashed`` (the process died
        without sealing the run)."""
        if self.finished_status is not None:
            return self.finished_status
        return "running" if _pid_alive(self.header.get("pid")) else "crashed"

    def resumable(self) -> bool:
        return self.status() in ("interrupted", "crashed") or (
            self.status() in ("degraded", "failed") and bool(self.failed)
        ) or bool(self.incomplete()) and self.status() != "running"


def _pid_alive(pid: Any) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by other
        return True
    return True


def read_journal(path: Union[str, Path]) -> "Tuple[List[Dict[str, Any]], Optional[JournalDamage], int]":
    """Parse a journal file's valid prefix.

    Returns:
        ``(events, damage, valid_bytes)`` — every event before the first
        damaged line, a :class:`JournalDamage` describing that line (or
        None for a fully clean file), and the byte length of the valid
        prefix (what ``repro-fsck --repair`` truncates to).
    """
    path = Path(path)
    events: List[Dict[str, Any]] = []
    damage: Optional[JournalDamage] = None
    valid_bytes = 0
    with path.open("rb") as handle:
        raw = handle.read()
    lines = raw.split(b"\n")
    # a trailing newline leaves one empty terminal element — not a line
    if lines and lines[-1] == b"":
        lines.pop()
    offset = 0
    for number, blob in enumerate(lines, start=1):
        line_bytes = len(blob) + 1  # + the newline
        terminated = offset + line_bytes <= len(raw)
        try:
            if not terminated:
                raise JournalError("unterminated line (torn write)")
            events.append(decode_line(blob.decode("utf-8", "strict")))
        except (JournalError, UnicodeDecodeError) as error:
            damage = JournalDamage(
                line=number,
                reason=str(error),
                torn_tail=(number == len(lines)),
            )
            break
        offset += line_bytes
        valid_bytes = offset
    return events, damage, valid_bytes


def load_run(run_dir: Union[str, Path]) -> RunRecord:
    """Replay one run directory's journal into a record.

    Tolerates a damaged journal (the valid prefix is used); raises
    :class:`JournalError` only when the journal itself is absent.
    """
    run_dir = Path(run_dir)
    journal_path = run_dir / JOURNAL_NAME
    if not journal_path.is_file():
        raise JournalError(f"{run_dir}: no {JOURNAL_NAME}")
    record = RunRecord(run_id=run_dir.name, directory=run_dir)
    events, record.damage, record.valid_bytes = read_journal(journal_path)
    for event in events:
        kind = event.get("event")
        if kind == "run_started":
            record.header = event
        elif kind == "job_scheduled":
            job_hash = str(event.get("job"))
            describe = event.get("describe")
            if isinstance(describe, dict):
                record.scheduled[job_hash] = describe
            record.labels[job_hash] = str(event.get("label", job_hash[:12]))
        elif kind == "attempt_started":
            job_hash = str(event.get("job"))
            record.attempts[job_hash] = max(
                record.attempts.get(job_hash, 0), int(event.get("attempt", 1))
            )
        elif kind == "job_completed":
            record.completed[str(event.get("job"))] = str(
                event.get("source", "executed")
            )
            record.failed.pop(str(event.get("job")), None)
        elif kind == "job_failed":
            record.failed[str(event.get("job"))] = str(event.get("error", ""))
        elif kind == "run_finished":
            record.finished_status = str(event.get("status"))
    return record


def list_runs(root: Union[str, Path]) -> List[RunRecord]:
    """Every readable run under the runs root, oldest first.

    Each run that another run's header names in ``resumed_from`` gets
    that run's id as :attr:`RunRecord.resumed_by` (the latest, when a
    run was resumed more than once).
    """
    root = Path(root)
    if not root.is_dir():
        return []
    records = []
    for run_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        try:
            records.append(load_run(run_dir))
        except JournalError:
            continue  # fsck's department
    records.sort(key=lambda r: (r.started_unix, r.started, r.run_id))
    by_id = {record.run_id: record for record in records}
    for record in records:
        origin = by_id.get(record.header.get("resumed_from"))
        if origin is not None:
            origin.resumed_by = record.run_id
    return records


def find_run(root: Union[str, Path], selector: str) -> RunRecord:
    """Resolve ``--resume``'s argument: a run id, or ``last``.

    ``last`` picks the most recently started readable run. Ids resolve
    through :func:`list_runs`, so the record carries ``resumed_by``.

    Raises:
        JournalError: when nothing matches.
    """
    root = Path(root)
    records = list_runs(root)
    if selector == "last":
        if not records:
            raise JournalError(f"no journaled runs under {root}")
        return records[-1]
    for record in records:
        if record.run_id == selector:
            return record
    known = ", ".join(r.run_id for r in records[-5:]) or "none"
    raise JournalError(f"no run {selector!r} under {root} (recent: {known})")


# -- graceful shutdown ------------------------------------------------------


class GracefulShutdown:
    """Two-stage signal policy for journaled runs.

    The first SIGINT (or SIGTERM) sets :attr:`event` — the engine polls
    it between job dispatches, stops scheduling new work, cancels
    in-flight futures, and raises
    :class:`~repro.engine.faults.RunInterrupted` so the runner can seal
    the journal and exit with the resumable code 3. A second SIGINT
    skips the drain entirely: the previous handler is restored and
    ``KeyboardInterrupt`` raised on the spot (hard abort).

    A process forked while the policy is installed (a pool worker, a
    broadcast reader or consumer) inherits the handler but not the
    drain: SIGTERM there restores the default action and re-raises,
    so the engine's ``terminate()`` stops it.
    """

    def __init__(self) -> None:
        self.event = threading.Event()
        self._previous: Dict[int, Any] = {}

    def install(self) -> "GracefulShutdown":
        self._pid = os.getpid()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        return self

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self._previous.clear()

    def _handle(self, signum: int, frame: Any) -> None:
        if signum == signal.SIGTERM and os.getpid() != self._pid:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        if self.event.is_set() and signum == signal.SIGINT:
            previous = self._previous.get(signal.SIGINT)
            signal.signal(
                signal.SIGINT, previous or signal.default_int_handler
            )
            raise KeyboardInterrupt
        self.event.set()
        name = signal.Signals(signum).name
        print(
            f"[{name}: finishing the current job, flushing the journal "
            "(^C again to hard-abort)]",
            file=sys.stderr,
        )

    def __enter__(self) -> "GracefulShutdown":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()
