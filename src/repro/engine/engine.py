"""The execution engine: runs a job graph serially or across processes.

The engine is the single place simulations happen. It takes a
deduplicated :class:`JobGraph`, satisfies what it can from the on-disk
:class:`ResultCache`, executes the remainder — inline, or fanned out over
a ``ProcessPoolExecutor`` when ``jobs > 1`` — and returns a
:class:`ResultMap` from job (hash) to result. ``stats`` counts scheduled
vs deduplicated vs cache-satisfied vs executed jobs so callers can
surface exactly how much work a run performed (a fully cached invocation
reports ``executed=0``).

Trace generation is scheduled as a shared resource (the *trace plane*):

* **Serial** runs group pending jobs by
  :attr:`~repro.engine.job.SimJob.trace_key` and pump one trace walk
  through every consumer in the group
  (:func:`~repro.engine.exec.run_group`, the loop every job runs) — a
  sweep of N jobs over one key performs exactly one generation pass.
* With a :class:`~repro.tracestore.TraceStore` attached
  (``trace_store=DIR`` / ``--trace-store``), that one pass is also
  recorded to disk, and **parallel** workers replay the recorded trace
  instead of regenerating it per job — at most one generation plus N
  replays for N jobs over one key, across any number of invocations.
* With both (``jobs > 1`` **and** a store), the replays collapse too:
  jobs sharing a trace key run as a **broadcast wave** — one reader
  process walks the key and tees every chunk to the consumers over a
  shared-memory ring (:mod:`repro.tracestore.broadcast`), so an N-job
  sweep over one key costs exactly one trace walk total. See the
  ``broadcast`` argument (``--broadcast`` / ``REPRO_BROADCAST``).

Execution is **fault-tolerant** (:mod:`repro.engine.faults`): every job
runs under a :class:`RetryPolicy` (attempts, deterministic-jitter
backoff, per-job wall-clock timeout), and every path — serial groups,
pool jobs, broadcast bundles — walks one recovery ladder:

1. *rerun on damage*: a walk whose store entry verifies damaged (or was
   replaced under it) quarantines the entry and reruns once, uncharged,
   regenerating the trace (:func:`~repro.engine.exec.run_recovering`);
2. *isolate a failed shared walk*: a group walk that still fails — a
   serial trace-key group, or a broadcast bundle that errs or dies —
   charges none of its jobs; each job runs alone (inline, or queued to
   the pool with a fresh attempt log);
3. *charge a failed solo attempt* (:meth:`Engine._charge`): the job's
   retry budget pays, with deterministic backoff before the next
   attempt; a dead pool worker is charged only to the jobs whose
   injected crash draw fired (all in-flight jobs when none is
   injected), a timeout only to the overrunner, and the pool's
   innocents are requeued for free;
4. *gate each job once*: ``kill_at_job`` counts a job at its first
   dispatch only, whatever path reruns it (:meth:`Engine._dispatch_gate`).

A pool that keeps dying degrades to serial. A job that exhausts its
retries surfaces as a structured
:class:`~repro.engine.faults.JobFailure` in the :class:`ResultMap`
(``strict=True`` raises :class:`~repro.engine.faults.JobExecutionError`
instead); everything else keeps running, and every mode fails the same
jobs after the same attempts.

Results are bit-identical across every mode — including runs degraded
by injected or real faults; only the accounting in :class:`EngineStats`
differs.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.cache import ResultCache
from repro.engine.exec import (
    deal_bundles,
    execute_jobs_broadcast,
    execute_job_for_pool,
    record_trace_for_pool,
    run_recovering,
    walk_report,
)
from repro.engine.faultinject import active_plan, maybe_kill_run
from repro.engine.faults import (
    AttemptLog,
    JobExecutionError,
    JobFailure,
    RetryPolicy,
    RunInterrupted,
)
from repro.engine.graph import JobGraph
from repro.engine.job import SimJob
from repro.telemetry import MetricsRegistry, RunTelemetry, process_registry
from repro.tracestore import TraceStore
from repro.tracestore.broadcast import (
    MODE_OFF,
    MODE_ON,
    broadcast_supported,
    resolve_broadcast,
)


#: the legacy stat names, in their historical (display) order
_STAT_FIELDS = (
    "requested", "deduplicated", "cache_hits", "executed",
    "generation_passes", "passes_saved", "store_hits", "store_misses",
    "bytes_replayed", "broadcast_waves", "broadcast_chunks",
    "bytes_shared", "broadcast_fallbacks", "retries", "requeued",
    "timeouts", "pool_respawns", "quarantined", "cache_corrupt",
    "replay_fallbacks", "isolation_fallbacks", "serial_fallbacks",
    "failures",
)

#: the fault counters with their stderr wording, in display order; any
#: of them nonzero makes a run degraded (exit code 1)
FAULT_COUNTERS = {
    "retries": "retries", "requeued": "requeued", "timeouts": "timeouts",
    "pool_respawns": "pool respawns", "quarantined": "quarantined",
    "cache_corrupt": "corrupt cache entries",
    "replay_fallbacks": "replay fallbacks",
    "isolation_fallbacks": "isolation fallbacks",
    "serial_fallbacks": "serial fallbacks",
    "broadcast_fallbacks": "broadcast fallbacks",
    "failures": "failed jobs",
}


class EngineStats:
    """Work accounting for one engine (accumulated across run() calls).

    Beyond the job counters, the trace-plane counters expose how much
    generation work the fan-out scheduler and trace store avoided:
    ``generation_passes`` counts actual workload-generator walks,
    ``passes_saved`` counts executed jobs that did *not* need their own
    generation pass (fed by fan-out or a store replay), and
    ``store_hits`` / ``store_misses`` / ``bytes_replayed`` account the
    trace store itself.

    The broadcast counters account the shared-memory fan-out plane:
    ``broadcast_waves`` counts trace-key groups served by one reader
    process, ``broadcast_chunks`` / ``bytes_shared`` count chunk
    payloads consumers decoded straight from shared memory (summed over
    consumers — one 10-chunk wave with 4 consumers shares 40 chunks),
    and ``broadcast_fallbacks`` counts consumers that degraded to an
    independent replay mid-stream (a fault counter: it trips
    ``degraded``).

    The fault-plane counters account recovery work: ``retries`` (extra
    attempts scheduled after a failure), ``requeued`` (in-flight jobs
    resubmitted after a pool death or timeout kill through no fault of
    their own), ``timeouts``, ``pool_respawns``, ``quarantined``
    (damaged trace entries and cache shards moved aside),
    ``cache_corrupt`` (corrupt cache shards detected),
    ``replay_fallbacks`` (store replays degraded to regeneration),
    ``isolation_fallbacks`` (serial groups and broadcast bundles
    degraded to per-job execution), ``serial_fallbacks`` (parallel
    batches degraded to the serial path), and ``failures`` (jobs that
    exhausted every retry).
    A clean run keeps all of them at zero.

    Since the telemetry plane landed, this class is a **view** over a
    :class:`~repro.telemetry.MetricsRegistry` rather than its own
    counter soup: each stat reads/writes the ``engine.<name>`` counter
    of the backing registry (the engine's :attr:`~Engine.telemetry`
    registry), so the legacy one-liner and ``metrics.json`` can never
    disagree. The attribute API — read, assign, ``+=`` — is unchanged.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 **initial: int) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        for name, value in initial.items():
            if name not in _STAT_FIELDS:
                raise TypeError(f"unknown engine stat {name!r}")
            setattr(self, name, value)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in _STAT_FIELDS
        )
        return f"EngineStats({fields})"

    def absorb_trace_stats(self, delta: Dict[str, int]) -> None:
        """Fold a trace-store accounting delta (worker or store handle) in."""
        self.store_hits += delta.get("hits", 0)
        self.store_misses += delta.get("misses", 0)
        self.generation_passes += delta.get("generated", 0)
        self.bytes_replayed += delta.get("bytes_replayed", 0)
        self.quarantined += delta.get("quarantined", 0)
        self.replay_fallbacks += delta.get("replay_fallbacks", 0)

    @property
    def degraded(self) -> bool:
        """True when any recovery path fired (the exit-code-1 signal)."""
        return any(getattr(self, name) for name in FAULT_COUNTERS)

    def format(self) -> str:
        unique = self.requested - self.deduplicated
        text = (
            f"engine: {self.requested} jobs requested, "
            f"{self.deduplicated} deduplicated, {unique} unique, "
            f"{self.cache_hits} cache hits, {self.executed} simulated; "
            f"traces: {self.generation_passes} generated, "
            f"{self.passes_saved} passes saved"
        )
        if self.store_hits or self.store_misses or self.bytes_replayed:
            text += (
                f", store {self.store_hits} hits / "
                f"{self.store_misses} misses, "
                f"{self.bytes_replayed} bytes replayed"
            )
        if self.broadcast_waves:
            text += (
                f", broadcast {self.broadcast_waves} waves / "
                f"{self.broadcast_chunks} chunks / "
                f"{self.bytes_shared} bytes shared"
            )
        if self.degraded:
            parts = [
                f"{getattr(self, name)} {wording}"
                for name, wording in FAULT_COUNTERS.items()
                if getattr(self, name)
            ]
            text += "; faults: " + ", ".join(parts)
        return text


def _stat_view(name: str) -> property:
    """An int attribute backed by the ``engine.<name>`` counter."""
    key = "engine." + name

    def fget(self: EngineStats) -> int:
        return int(self.registry.counter(key))

    def fset(self: EngineStats, value: int) -> None:
        self.registry.set_counter(key, value)

    return property(fget, fset)


for _name in _STAT_FIELDS:
    setattr(EngineStats, _name, _stat_view(_name))
del _name


class ResultMap(Dict[str, Any]):
    """Results keyed by job hash; also indexable directly by job.

    A value is either the job's result dataclass or — when the job
    exhausted its retries under the default non-strict policy — a
    structured :class:`~repro.engine.faults.JobFailure`; use
    :meth:`failures` to enumerate the latter.
    """

    def __getitem__(self, key: Union[str, SimJob]) -> Any:
        if isinstance(key, SimJob):
            key = key.job_hash
        return super().__getitem__(key)

    def get(self, key: Union[str, SimJob], default: Any = None) -> Any:
        if isinstance(key, SimJob):
            key = key.job_hash
        return super().get(key, default)

    def failures(self) -> List[JobFailure]:
        """Every job that degraded to a structured failure, if any."""
        return [v for v in self.values() if isinstance(v, JobFailure)]


class Engine:
    """Executes job graphs with optional parallelism and disk caching.

    Args:
        jobs: worker processes for simulation jobs (1 = serial/inline).
        cache_dir: on-disk result cache directory, or None to disable.
        trace_store: directory (or :class:`TraceStore`) for the shared
            trace plane — traces are recorded once and replayed by every
            job and worker that shares the trace key. None keeps traces
            in-process only (serial fan-out still shares walks).
        broadcast: shared-memory fan-out mode (``"auto"`` / ``"on"`` /
            ``"off"``). Under ``jobs > 1`` with a trace store attached,
            jobs sharing a trace key consume one reader process's walk
            over a shared-memory chunk ring instead of each replaying
            the store — N jobs over one key cost exactly one trace
            walk. ``auto`` (the default)
            broadcasts whenever the prerequisites hold; ``off`` forces
            independent replay; ``on`` is ``auto`` plus a warning when
            broadcasting is impossible. None defers to the
            ``REPRO_BROADCAST`` environment variable. Results are
            bit-identical in every mode.
        retry: the :class:`~repro.engine.faults.RetryPolicy` failing
            jobs run under (attempts, backoff, per-job timeout). None
            uses the default policy (3 attempts, no timeout);
            ``RetryPolicy(attempts=1)`` fails fast.
        strict: when True, a job that exhausts its retries raises
            :class:`~repro.engine.faults.JobExecutionError` instead of
            degrading to a :class:`~repro.engine.faults.JobFailure` in
            the result map.
        journal: an open :class:`~repro.engine.journal.RunJournal` to
            record job lifecycle events into (scheduled / attempts /
            completed / failed). Completions are journaled only *after*
            the result is durably in the cache, so a journaled-complete
            job is always recoverable on ``--resume``. None disables
            journaling (the engine behaves exactly as before).
        interrupt: a ``threading.Event`` polled at every job dispatch;
            once set, the engine stops dispatching, cancels in-flight
            futures, and raises
            :class:`~repro.engine.faults.RunInterrupted` — the
            graceful-shutdown hook. None disables the check.
    """

    #: pool deaths tolerated per batch before degrading to serial
    MAX_POOL_RESPAWNS = 3

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        trace_store: Optional[Union[str, Path, TraceStore]] = None,
        broadcast: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        strict: bool = False,
        journal: Optional[Any] = None,
        interrupt: Optional[Any] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir else None
        )
        if trace_store is not None and not isinstance(trace_store, TraceStore):
            trace_store = TraceStore(trace_store)
        self.trace_store: Optional[TraceStore] = trace_store
        self.broadcast = resolve_broadcast(broadcast)
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.journal = journal
        self.interrupt = interrupt
        self.telemetry = RunTelemetry()
        self.stats = EngineStats(self.telemetry.registry)
        #: where each executed job ran and its wall seconds there, set
        #: by the path that ran it and taken by :meth:`run` when it
        #: journals the completion
        self._ran: Dict[str, Tuple[str, float]] = {}
        #: jobs that passed :meth:`_dispatch_gate` in the current run
        self._gated: "set[str]" = set()

    def run(self, graph: JobGraph) -> ResultMap:
        """Execute every job in ``graph``.

        Args:
            graph: the deduplicated set of jobs to satisfy.

        Returns:
            A :class:`ResultMap` from job hash (or job) to result,
            covering every job in the graph. Under the default
            non-strict policy a job that exhausted its retries maps to
            a :class:`~repro.engine.faults.JobFailure` (never cached);
            with ``strict=True`` that raises instead.
        """
        self.stats.requested += graph.requested
        self.stats.deduplicated += graph.deduplicated
        cache_before = self.cache.stats.as_dict() if self.cache else None
        journal = self.journal
        telemetry = self.telemetry
        # phase timers accumulate in the process-global registry (a
        # forked worker inherits these counts, hence delta-folding
        # everywhere); snapshot so this run folds only its own serial
        # phase time
        phase_before = process_registry().snapshot()
        results = ResultMap()
        self._gated.clear()
        pending = []
        for job in graph:
            if journal is not None:
                journal.job_scheduled(job)
            cached = self.cache.load(job) if self.cache else None
            if cached is not None:
                self.stats.cache_hits += 1
                telemetry.job_cached(job)
                results[job.job_hash] = cached
                if journal is not None:
                    journal.job_completed(
                        job, shard=self.cache.path_for(job), source="cache"
                    )
            else:
                pending.append(job)
        try:
            if pending:
                for job, result in self._execute(pending):
                    results[job.job_hash] = result
                    worker, wall_s = self._ran.pop(job.job_hash, (None, 0.0))
                    telemetry.job_finished(
                        job, ok=not isinstance(result, JobFailure)
                    )
                    if isinstance(result, JobFailure):
                        if journal is not None:
                            journal.job_failed(result)
                        continue  # failures are never cached
                    self.stats.executed += 1
                    shard = None
                    if self.cache is not None:
                        shard = self.cache.store(job, result)
                    if journal is not None:
                        # write-ahead commit record: only after the
                        # result is durably on disk (or caching is off
                        # and there is nothing to recover from)
                        journal.job_completed(
                            job, shard=shard, worker=worker, wall_s=wall_s
                        )
        finally:
            telemetry.registry.merge(
                process_registry().delta_since(phase_before)
            )
            if self.cache is not None:
                after = self.cache.stats.as_dict()
                self.stats.cache_corrupt += (
                    after["corrupt"] - cache_before["corrupt"]
                )
                self.stats.quarantined += (
                    after["quarantined"] - cache_before["quarantined"]
                )
        return results

    def _check_interrupt(self) -> None:
        """Raise :class:`RunInterrupted` when graceful shutdown is
        requested — called wherever the engine is about to start (or
        restart) work, so an interrupt takes effect at the next job
        boundary rather than mid-simulation."""
        if self.interrupt is not None and self.interrupt.is_set():
            journal = self.journal
            completed = journal.jobs_completed if journal is not None else 0
            scheduled = journal.jobs_scheduled if journal is not None else 0
            raise RunInterrupted(completed, max(0, scheduled - completed))

    def _dispatch_gate(self, job: SimJob) -> None:
        """The checkpoint every dispatch of ``job`` passes: the
        interrupt poll, plus — at the job's first dispatch in this run,
        on whichever path — the deterministic ``kill_at_job`` injection
        point. A retry, or a job dispatched again without a charge (a
        pool death's innocents, a timeout's bystanders, an isolated
        group or bundle), is not counted again, so the injector's
        dispatch index is the same in every mode."""
        if job.job_hash not in self._gated:
            self._gated.add(job.job_hash)
            maybe_kill_run()
        self._check_interrupt()

    def _execute(self, pending: "list[SimJob]") -> Iterable["tuple[SimJob, Any]"]:
        if self.jobs > 1 and len(pending) > 1:
            yield from self._execute_parallel(pending)
        else:
            yield from self._execute_serial(pending)

    # -- serial: fan one trace walk out to every job sharing its key -------

    def _execute_serial(
        self, pending: "list[SimJob]"
    ) -> Iterable["tuple[SimJob, Any]"]:
        """Each trace key's group in one shared :meth:`_walk`. A group
        whose walk still fails after the free rerun on damage is
        isolated: none of its jobs is charged, and each runs alone
        under the retry policy, so one bad job cannot sink its peers.
        A key with one job shares nothing: it runs straight on the solo
        ladder, as a pool job would."""
        journal = self.journal
        for group in _grouped_by_trace_key(pending).values():
            if len(group) == 1:
                yield group[0], self._solo_with_retries(group[0])
                continue
            for job in group:
                self._dispatch_gate(job)
                if journal is not None:
                    journal.attempt_started(job.job_hash, 1)
            try:
                done = self._walk(group, 1)
            except Exception:
                self.stats.isolation_fallbacks += 1
                done = ((job, self._solo_with_retries(job)) for job in group)
            yield from done

    def _solo_with_retries(
        self, job: SimJob, log: Optional[AttemptLog] = None
    ) -> Any:
        """Execute one job inline under the retry policy.

        Returns the job's result, or a :class:`JobFailure` once the
        policy's attempts are exhausted (raises
        :class:`JobExecutionError` under ``strict``).
        """
        log = log or AttemptLog(job.job_hash, job.label())
        while True:
            self._dispatch_gate(job)
            if self.journal is not None:
                self.journal.attempt_started(job.job_hash, log.attempts + 1)
            try:
                return self._walk([job], log.attempts + 1)[0][1]
            except Exception as error:
                failure = self._charge(log, error)
                if failure is not None:
                    return failure
                self.retry.sleep_before_retry(job.job_hash, log.attempts)

    def _walk(
        self, jobs: "list[SimJob]", attempt: int
    ) -> "list[tuple[SimJob, Any]]":
        """One inline :func:`~repro.engine.exec.run_recovering` pass over
        ``jobs``' shared trace key, credited on worker ``main``.

        The fold takes the store's accounting delta (replay, or record
        while walking), or one generation pass without a store. It
        takes the store delta even when the walk raises, so a
        quarantine the walk made is counted.
        """
        store = self.trace_store
        before = store.stats.as_dict() if store is not None else None
        run = None
        try:
            run = run_recovering(jobs, store, attempt)
        finally:
            if store is not None:
                delta = _stats_delta(store.stats.as_dict(), before)
            else:
                delta = {} if run is None else {"generated": 1}
            done = self._credit(jobs, *walk_report(run, "main", delta))
        return done

    def _credit(
        self, jobs: "list[SimJob]", results: Optional[list],
        report: Dict[str, Any],
    ) -> "list[tuple[SimJob, Any]]":
        """The one fold of a walk's :func:`~repro.engine.exec.walk_report`
        — an inline walk, a pool job or a wave bundle alike.

        Merges the walk's phase metrics and trace-store delta. When the
        walk finished (``results`` is not None), also counts the jobs
        that needed no generation pass of their own as saved and notes
        each job's worker and own seconds for :meth:`run` to journal.
        Returns the ``(job, result)`` pairs, none for a failed walk.
        """
        self.telemetry.registry.merge(report.pop("metrics", None))
        worker, seconds = report.pop("worker"), report.pop("seconds")
        self.stats.absorb_trace_stats(report)
        if results is None:
            return []
        self.stats.passes_saved += len(jobs) - report.get("generated", 0)
        for job, wall_s in zip(jobs, seconds):
            self._ran[job.job_hash] = (worker, wall_s)
        return list(zip(jobs, results))

    def _charge(
        self, log: AttemptLog, error: BaseException
    ) -> Optional[JobFailure]:
        """Charge a failed solo attempt to its job's retry budget.

        The one charge step: inline solo attempts, pool exceptions,
        crash culprits and timeout overrunners all pass through it.
        Records the error and journals ``attempt_failed``. Once the
        attempts are exhausted, returns the job's :class:`JobFailure`
        (raises :class:`JobExecutionError` under ``strict``); otherwise
        counts one retry and returns None.
        """
        log.record(error)
        if self.journal is not None:
            self.journal.attempt_failed(
                log.job_hash, log.attempts, f"{type(error).__name__}: {error}"
            )
        if log.attempts < self.retry.attempts:
            self.stats.retries += 1
            return None
        failure = log.failure()
        self.stats.failures += 1
        if self.strict:
            raise JobExecutionError(failure)
        print(f"[engine: {failure.summary()}]", file=sys.stderr)
        return failure

    # -- parallel: broadcast waves, then per-job futures -------------------

    def _execute_parallel(
        self, pending: "list[SimJob]"
    ) -> Iterable["tuple[SimJob, Any]"]:
        # group-by-trace scheduling: keep jobs that share a trace
        # adjacent so reused pool workers hit the store's OS page cache
        ordered = sorted(pending, key=lambda j: (j.trace_key, j.job_hash))
        store = self.trace_store
        store_dir: Optional[str] = None
        if store is not None:
            store_dir = str(store.directory)
        if store_dir is not None and self._broadcast_active():
            remaining: "list[SimJob]" = []
            for key, group in _grouped_by_trace_key(ordered).items():
                if len(group) < 2:
                    remaining.extend(group)
                else:
                    yield from self._run_broadcast_wave(
                        key, group, store_dir, remaining
                    )
            ordered = sorted(
                remaining, key=lambda j: (j.trace_key, j.job_hash)
            )
        elif self.broadcast == MODE_ON and store_dir is None:
            print(
                "[engine: --broadcast on has no effect without a trace "
                "store; replaying independently]",
                file=sys.stderr,
            )
        if not ordered:
            return
        supervisor = _PoolSupervisor(
            self, ordered, min(self.jobs, len(ordered)), store_dir
        )
        yield from supervisor.run()

    def _broadcast_active(self) -> bool:
        """Whether multi-job trace keys run as broadcast waves. ``auto``
        and ``on`` both broadcast when the prerequisites hold; ``on``
        only differs in warning when they don't."""
        if self.broadcast == MODE_OFF:
            return False
        if broadcast_supported():
            return True
        if self.broadcast == MODE_ON:
            print(
                "[engine: broadcast requested but shared memory is "
                "unavailable; replaying independently]", file=sys.stderr,
            )
        return False

    def _run_broadcast_wave(
        self, key, group: "list[SimJob]", store_dir: str,
        remaining: "list[SimJob]",
    ) -> Iterable["tuple[SimJob, Any]"]:
        """One trace-key group as a broadcast wave.

        A reader process walks ``key`` exactly once (replaying the
        stored entry, or recording it during the walk when the key is
        cold) and tees every chunk into a shared-memory ring. The group
        is dealt by cost into at most ``self.jobs`` *bundles*
        (:func:`~repro.engine.exec.deal_bundles`: a wave lasts as long
        as its slowest bundle), one consumer process each: within a
        bundle :func:`run_group` shares a single chunk decode and
        pre-pass across its jobs, so the wave honors ``--jobs`` while
        costing one walk for the whole group (the ring's slot pacing
        bounds memory). Jobs dispatch in ``group`` order whatever their
        bundle, so ``kill_at_job`` indices do not move.

        A dead or erring reader aborts the ring and consumers degrade
        to independent replay mid-stream (bit-identical results,
        counted in ``broadcast_fallbacks``). A bundle that reports a
        failed walk or dies is a failed shared walk: it is isolated,
        uncharged, and its jobs join ``remaining`` to run alone on the
        pool path, with fresh attempt logs.
        """
        import multiprocessing
        from queue import Empty

        from repro.tracestore.broadcast import ChunkRing, run_reader

        stats = self.stats
        journal = self.journal
        bundles = deal_bundles(group, self.jobs)
        try:
            ring = ChunkRing(len(bundles))
        except (OSError, ValueError):
            remaining.extend(group)  # no shared memory: the pool replays
            return
        for job in group:
            # one dispatch per job even though the wave shares a walk —
            # keeps kill_at_job indices meaningful across modes
            self._dispatch_gate(job)
            if journal is not None:
                journal.attempt_started(job.job_hash, 1)
        stats.broadcast_waves += 1
        out_queue = multiprocessing.Queue()
        status_queue = multiprocessing.Queue()
        reader = multiprocessing.Process(
            target=run_reader,
            args=(ring.producer(), store_dir, key, status_queue),
            daemon=True,
        )
        outstanding: "dict[int, tuple[list[SimJob], Any]]" = {}
        for index, bundle in enumerate(bundles):
            outstanding[index] = (bundle, multiprocessing.Process(
                target=execute_jobs_broadcast,
                args=(bundle, ring.consumer(index), index, store_dir,
                      out_queue),
                daemon=True,
            ))
        processes = [proc for _, proc in outstanding.values()]
        dead_since: "dict[int, float]" = {}
        reader_reaped = False
        try:
            reader.start()
            for proc in processes:
                proc.start()
            while outstanding:
                self._check_interrupt()
                if not reader_reaped and reader.exitcode is not None:
                    reader_reaped = True
                    self._reap_reader(status_queue, key, ring)
                try:
                    index, results, report, shared = out_queue.get(
                        timeout=0.3
                    )
                except Empty:
                    # no result this poll: reap a consumer that died
                    # without reporting. A just-exited consumer's result
                    # may still be in the queue pipe, so give each death
                    # a grace period for its payload to drain.
                    now = time.monotonic()
                    dead = [
                        i for i, (_, proc) in outstanding.items()
                        if proc.exitcode is not None
                        and now - dead_since.setdefault(i, now) >= 1.0
                    ]
                    if not dead:
                        continue
                    index, done = dead[0], []
                else:
                    stats.broadcast_chunks += shared["broadcast_chunks"]
                    stats.bytes_shared += shared["bytes_shared"]
                    stats.broadcast_fallbacks += shared["broadcast_fallbacks"]
                    done = self._credit(
                        outstanding[index][0], results, report
                    )
                bundle, proc = outstanding.pop(index)
                ring.detach(index)  # its free tokens are gone with it
                proc.join()
                if not done:  # the bundle failed or died: isolate it
                    stats.isolation_fallbacks += 1
                    remaining.extend(bundle)
                yield from done
            if not reader_reaped:
                # every bundle is done; the reader still finishes its
                # pass (a cold key's recording) and reports it. Its one
                # small status message fits the queue's pipe, so it can
                # exit before the message is drained.
                reader.join()
                self._reap_reader(status_queue, key, ring)
        finally:
            ring.abort()
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            for proc in processes:
                proc.join(timeout=2.0)
            if reader.is_alive():
                reader.terminate()
            reader.join(timeout=2.0)
            out_queue.close()
            status_queue.close()
            ring.close()

    def _reap_reader(self, status_queue, key, ring) -> None:
        """The reader process ended: absorb its trace accounting and,
        unless it reported success, abort the ring so consumers degrade
        to independent replay. A reader that failed on damaged data
        also quarantines the entry, so every later replay of the key —
        consumer fallbacks included — regenerates instead of re-reading
        the same corruption."""
        from queue import Empty

        try:
            status, detail, delta = status_queue.get(timeout=1.0)
        except Empty:
            # hard death (SIGKILL, injected reader_kill): no sentinel
            # ever reached the ring — only the abort tells consumers
            ring.abort()
            return
        self.stats.absorb_trace_stats(delta)
        if status == "ok":
            return
        ring.abort()
        if self.trace_store.quarantine_if_damaged(
            key, f"broadcast reader failed: {detail}"
        ):
            self.stats.quarantined += 1
            self.stats.replay_fallbacks += 1

    def report(self, stream=sys.stderr) -> None:
        print(f"[{self.stats.format()}]", file=stream)


class _PoolSupervisor:
    """Drives a batch of jobs through a (respawnable) process pool.

    Each job is its own future, tracked with an attempt log and an
    optional wall-clock deadline; its walk is
    :func:`~repro.engine.exec.run_recovering`, and every failed attempt
    is charged through :meth:`Engine._charge`. The supervisor recovers
    from the three parallel failure modes:

    * a **job exception** in a worker — charged to that job's retry
      budget; the job is requeued after its deterministic backoff;
    * a **dead worker** (``BrokenProcessPool``) — the pool is respawned
      and every in-flight job requeued. Completed results are already
      out; nothing is recomputed. When the active fault-injection plan
      can name the crashing job(s), only those are charged an attempt —
      innocents are requeued for free;
    * a **stalled job** (policy timeout exceeded) — the pool is killed
      and respawned; the stalled job is charged a timeout attempt, the
      other in-flight jobs are requeued for free.

    At most ``workers`` jobs are in flight, so each one's deadline
    starts when a worker is free to run it, never while it waits in
    the executor's queue. After :attr:`Engine.MAX_POOL_RESPAWNS` pool
    deaths the batch degrades to the serial path (the last rung of the
    ladder) instead of thrashing pool startup forever; timeout kills
    are deliberate and spend none of that budget.
    """

    def __init__(
        self,
        engine: Engine,
        jobs: "list[SimJob]",
        workers: int,
        store_dir: Optional[str],
    ) -> None:
        self.engine = engine
        self.stats = engine.stats
        self.policy = engine.retry
        self.jobs = jobs
        self.workers = workers
        self.store_dir = store_dir
        self.pool: Optional[ProcessPoolExecutor] = None
        self.respawns = 0

    # -- pool lifecycle ----------------------------------------------------

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _kill_pool(self) -> None:
        """Hard-stop the pool: terminate workers, abandon futures."""
        if self.pool is None:
            return
        for process in list(getattr(self.pool, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None

    def _respawn(self, died: bool = True) -> None:
        """Replace the pool; only a pool that ``died`` spends the budget
        (a timeout kill is deliberate)."""
        if died:
            self.respawns += 1
        self.stats.pool_respawns += 1
        self._kill_pool()
        if self.respawns <= Engine.MAX_POOL_RESPAWNS:
            self.pool = self._spawn()

    # -- main loop ---------------------------------------------------------

    def run(self) -> Iterable["tuple[SimJob, Any]"]:
        queue: "deque[tuple[SimJob, AttemptLog, float]]" = deque(
            (job, AttemptLog(job.job_hash, job.label()), 0.0)
            for job in self.jobs
        )
        in_flight: "dict[Any, tuple[SimJob, AttemptLog, Optional[float]]]" = {}
        self.pool = self._spawn()
        try:
            yield from self._record_missing()
            while queue or in_flight:
                self.engine._check_interrupt()
                if self.pool is None:  # respawn budget exhausted
                    yield from self._serial_remainder(queue, in_flight)
                    return
                broken = self._submit_ready(queue, in_flight)
                victims: "list[tuple[SimJob, AttemptLog]]" = []
                if not broken:
                    if not in_flight:
                        _sleep_until_ready(queue)
                        continue
                    done, _ = wait(
                        set(in_flight),
                        timeout=self._wait_budget(queue, in_flight),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        job, log, _ = in_flight.pop(future)
                        try:
                            _, result, report = future.result()
                        except BrokenProcessPool:
                            broken = True
                            victims.append((job, log))
                            continue
                        except Exception as error:
                            yield from self._retry(job, log, error, queue)
                            continue
                        yield from self.engine._credit(
                            [job], [result], report
                        )
                if broken:
                    # jobs still in flight share the broken pool's fate:
                    # their futures raise the same BrokenProcessPool
                    victims.extend(
                        (job, log) for job, log, _ in in_flight.values()
                    )
                    in_flight.clear()
                    yield from self._handle_breakage(victims, queue)
                else:
                    yield from self._handle_timeouts(queue, in_flight)
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)

    def _submit_ready(self, queue, in_flight) -> bool:
        """Submit queue entries whose backoff has elapsed, while a
        worker is free for each.

        Returns True when the pool turned out to be broken mid-submit
        (the entry is requeued and the caller runs breakage recovery).
        """
        now = time.monotonic()
        journal = self.engine.journal
        for _ in range(len(queue)):
            if len(in_flight) >= self.workers:
                break
            job, log, ready_at = queue.popleft()
            if ready_at > now:
                queue.append((job, log, ready_at))
                continue
            self.engine._dispatch_gate(job)
            if journal is not None:
                journal.attempt_started(job.job_hash, log.attempts + 1)
            try:
                future = self.pool.submit(
                    execute_job_for_pool,
                    job,
                    trace_store_dir=self.store_dir,
                    attempt=log.attempts + 1,
                )
            except (BrokenProcessPool, RuntimeError):
                queue.append((job, log, ready_at))
                return True
            deadline = (
                now + self.policy.timeout
                if self.policy.timeout is not None
                else None
            )
            in_flight[future] = (job, log, deadline)
        return False

    def _wait_budget(self, queue, in_flight) -> Optional[float]:
        """Seconds to block in wait(): until the nearest deadline or
        backoff expiry, or indefinitely when neither is pending. With a
        graceful-shutdown event attached, the wait is bounded (0.3s) so
        a signal arriving mid-wait is noticed promptly —
        ``concurrent.futures.wait`` would otherwise sleep through it."""
        now = time.monotonic()
        marks = [
            deadline for _, _, deadline in in_flight.values()
            if deadline is not None
        ]
        marks.extend(ready_at for _, _, ready_at in queue if ready_at > now)
        budget = max(0.0, min(marks) - now) if marks else None
        if self.engine.interrupt is not None:
            budget = 0.3 if budget is None else min(budget, 0.3)
        return budget

    def _retry(
        self, job: SimJob, log: AttemptLog, error: BaseException, queue
    ) -> Iterable["tuple[SimJob, Any]"]:
        """Charge a failed attempt; requeue with backoff or give up."""
        failure = self.engine._charge(log, error)
        if failure is not None:
            yield job, failure
            return
        ready_at = time.monotonic() + self.policy.backoff_for(
            job.job_hash, log.attempts
        )
        queue.append((job, log, ready_at))

    def _handle_breakage(self, victims, queue) -> Iterable:
        """A worker died: respawn the pool, requeue only the lost jobs.

        Every in-flight job's future errors with ``BrokenProcessPool``
        whether or not it was the one running in the dead worker. When
        fault injection is active the parent can recompute exactly which
        draws fired and charge only the culprits' retry budgets; real
        (uninjected) crashes are unattributable, so everyone in flight
        is charged — the retry budget still bounds the damage.
        """
        culprits = self._crash_culprits(victims)
        self._respawn()
        error = BrokenProcessPool("worker process died unexpectedly")
        for job, log in victims:
            if culprits is None or job.job_hash in culprits:
                yield from self._retry(job, log, error, queue)
            else:
                self.stats.requeued += 1
                queue.append((job, log, 0.0))

    def _crash_culprits(self, victims) -> Optional[set]:
        """Job hashes whose injected worker-crash draw fired, or None
        when injection can't attribute the death (charge everyone)."""
        plan = active_plan()
        if not plan or plan.spec("worker_crash") is None:
            return None
        return {
            job.job_hash
            for job, log in victims
            if plan.armed("worker_crash", job.job_hash, log.attempts + 1)
        }

    def _handle_timeouts(self, queue, in_flight) -> Iterable:
        """Kill and respawn the pool when an in-flight job overruns its
        wall-clock budget; the overrunner is charged a timeout attempt,
        innocent in-flight jobs are requeued for free."""
        now = time.monotonic()
        expired = [
            future
            for future, (_, _, deadline) in in_flight.items()
            if deadline is not None and deadline <= now and not future.done()
        ]
        if not expired:
            return
        victims = []
        for future in list(in_flight):
            job, log, _ = in_flight.pop(future)
            if future in expired:
                self.stats.timeouts += 1
                error = TimeoutError(
                    f"job exceeded its {self.policy.timeout:.1f}s wall-clock"
                    " budget"
                )
                yield from self._retry(job, log, error, queue)
            else:
                victims.append((job, log))
        self._respawn(died=False)
        for job, log in victims:
            self.stats.requeued += 1
            queue.append((job, log, 0.0))

    def _serial_remainder(self, queue, in_flight) -> Iterable:
        """The ladder's last rung: the pool died too often — finish the
        batch inline (serial), preserving each job's attempt log."""
        self.stats.serial_fallbacks += 1
        remainder = [(job, log) for job, log, _ in queue]
        remainder.extend((job, log) for job, log, _ in in_flight.values())
        queue.clear()
        in_flight.clear()
        for job, log in remainder:
            yield job, self.engine._solo_with_retries(job, log)

    def _record_missing(self) -> Iterable:
        """Pre-record each distinct missing trace exactly once, fanned
        across the pool, before any job runs — jobs then replay. Falls
        back to parent-side recording if the pool dies during it."""
        if self.store_dir is None:
            return
        store = self.engine.trace_store
        before = store.stats.as_dict()
        missing = [
            key
            for key in OrderedDict.fromkeys(job.trace_key for job in self.jobs)
            if not store.has(key)
        ]
        # has() may have quarantined structurally damaged entries
        self.stats.absorb_trace_stats(
            _stats_delta(store.stats.as_dict(), before)
        )
        if not missing:
            return
        record = partial(record_trace_for_pool, self.store_dir)
        try:
            for delta in self.pool.map(record, missing):
                self.stats.absorb_trace_stats(delta)
        except BrokenProcessPool:
            self._respawn()
            before = store.stats.as_dict()
            for key in missing:
                store.record(key)  # idempotent: skips published entries
            self.stats.absorb_trace_stats(
                _stats_delta(store.stats.as_dict(), before)
            )
        return
        yield  # pragma: no cover - generator-shaped for uniform caller


def _sleep_until_ready(queue) -> None:
    """Nothing in flight, everything backing off: sleep to the nearest
    ready_at so the supervisor doesn't busy-wait."""
    now = time.monotonic()
    nearest = min(ready_at for _, _, ready_at in queue)
    if nearest > now:
        time.sleep(min(nearest - now, 1.0))


def _grouped_by_trace_key(
    pending: "list[SimJob]",
) -> "OrderedDict[tuple, List[SimJob]]":
    groups: "OrderedDict[tuple, List[SimJob]]" = OrderedDict()
    for job in pending:
        groups.setdefault(job.trace_key, []).append(job)
    return groups


def _stats_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}
