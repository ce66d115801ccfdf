"""Job execution: trace streaming, predictor construction, the job walk.

This module is the worker side of the engine: :func:`execute_job` takes a
picklable :class:`SimJob` and returns a picklable result dataclass, so it
runs identically inline (serial mode) and inside a
``ProcessPoolExecutor`` worker (parallel mode). Results are bit-identical
either way because every job rebuilds its trace and predictor from the
job's seeds alone.

Every job is an incremental consumer (:func:`job_consumer`), and
:func:`run_group` is the one loop that walks a trace for jobs: one pass
over a trace key feeds every consumer sharing it, chunk at a time. A
solo job is a group of one, so every job kind runs **single-pass and
O(1) in memory** in every mode. A timing job shares one walk between
coverage classification and the incremental
:class:`~repro.sim.timing.TimingModel` — no trace, no service list.
When a :class:`~repro.tracestore.TraceStore` is supplied, the source
replays the recorded binary trace (or records it during the first walk)
instead of regenerating it — same sequence, same results, no generator
cost; :func:`execute_job_for_pool` is the worker entry that also
returns the replay/recording accounting to the parent engine.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.tracestore import TraceStore

from repro.analysis.correlation import CorrelationDistanceAnalysis
from repro.analysis.joint import JointPredictabilityAnalysis
from repro.analysis.repetition import RepetitionAnalysis
from repro.common.config import SMSConfig, STeMSConfig, TMSConfig
from repro.engine.faultinject import maybe_fail_job
from repro.engine.job import (
    CONFIGURABLE_PREFETCHER_KINDS,
    KIND_CORRELATION,
    KIND_COVERAGE,
    KIND_JOINT,
    KIND_REPETITION,
    KIND_TIMING,
    PrefetcherSpec,
    SimJob,
)
from repro.kernels.prepass import iter_trace_chunks
from repro.prefetch.base import Prefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.ghb import GHBPrefetcher
from repro.prefetch.hybrid import NaiveHybridPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.sim.timing import TimingModel
from repro.telemetry import (
    PHASE_FINALIZE, PHASE_WALK, phases_active, process_registry,
    telemetry_enabled,
)
from repro.trace.container import TraceLike
from repro.trace.events import MemoryAccess
from repro.workloads.registry import WORKLOAD_CATEGORIES, stream_workload


def job_trace(
    job: SimJob, trace_store: Optional["TraceStore"] = None
) -> TraceLike:
    """The trace a job walks.

    A :class:`TraceStore` source when a store is supplied (replay if
    recorded, record-during-walk if not); otherwise a fresh streaming
    generation pass. Both yield the identical access sequence for a
    given trace key.
    """
    if trace_store is not None:
        return trace_store.source(job.trace_key)
    return stream_workload(job.workload, job.length, job.seed)


def build_prefetcher(
    spec: Optional[PrefetcherSpec], workload: str
) -> Optional[Prefetcher]:
    """Construct the predictor a spec describes for ``workload``.

    Scientific workloads get the deeper lookahead the paper argues for in
    §4.3; ``spec.overrides`` are applied to the main predictor's config
    via ``dataclasses.replace`` (sensitivity sweeps).
    """
    if spec is None:
        return None
    scientific = WORKLOAD_CATEGORIES.get(workload) == "scientific"
    overrides = dict(spec.overrides)
    kind = spec.kind
    main: Optional[Prefetcher]
    if overrides and kind not in CONFIGURABLE_PREFETCHER_KINDS:
        # PrefetcherSpec rejects this at construction; re-check here so a
        # hand-built spec can't silently run an unconfigured predictor
        raise ValueError(
            f"prefetcher kind {kind!r} does not take config overrides"
        )
    if kind == "none":
        return None
    if kind == "stride":
        return StridePrefetcher()
    if kind == "markov":
        main = MarkovPrefetcher()
    elif kind == "ghb":
        main = GHBPrefetcher()
    elif kind == "tms":
        base = TMSConfig(lookahead=12) if scientific else TMSConfig()
        main = TMSPrefetcher(replace(base, **overrides))
    elif kind == "sms":
        main = SMSPrefetcher(replace(SMSConfig(), **overrides))
    elif kind == "stems":
        base = STeMSConfig.scientific() if scientific else STeMSConfig()
        main = STeMSPrefetcher(replace(base, **overrides))
    elif kind == "hybrid":
        main = NaiveHybridPrefetcher(
            TMSConfig(lookahead=12) if scientific else TMSConfig(), SMSConfig()
        )
    else:
        raise ValueError(f"unknown prefetcher kind {kind!r}")
    if spec.with_stride:
        return CompositePrefetcher(main)
    return main


def timing_model_for_job(job: SimJob) -> TimingModel:
    """The incremental ROB/MLP model a timing job's walk feeds."""
    warmup = float(job.param("warmup_fraction", 0.0))
    if not 0.0 <= warmup < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup}")
    return TimingModel(
        job.system.timing,
        workload=job.workload,
        prefetcher_name=job.prefetcher.kind if job.prefetcher else "none",
        measure_from=int(job.length * warmup),
    )


def analysis_for_job(job: SimJob) -> Any:
    """The :class:`StreamingAnalysis` consumer for an analysis-kind job
    (fed ``update_block(chunk)`` by :func:`run_group`)."""
    if job.kind == KIND_JOINT:
        skip = float(job.param("skip_fraction", 0.0))
        if not 0.0 <= skip < 1.0:
            raise ValueError(f"skip_fraction must be in [0, 1), got {skip}")
        return JointPredictabilityAnalysis(
            job.system,
            measure_from=int(job.length * skip),
            workload=job.workload,
        )
    if job.kind == KIND_REPETITION:
        return RepetitionAnalysis(
            job.system,
            max_elements=int(job.param("max_elements", 60000)),
            workload=job.workload,
        )
    if job.kind == KIND_CORRELATION:
        return CorrelationDistanceAnalysis(
            job.system, workload=job.workload
        )
    raise ValueError(f"job kind {job.kind!r} is not an analysis kind")


class _DriverConsumer:
    """Push-mode coverage run: a driver walk fed one precomputed chunk
    at a time (``update_block``)."""

    __slots__ = ("_walk", "update_block")

    def __init__(self, job: SimJob, driver: SimulationDriver) -> None:
        self._walk = driver.start(job.workload)
        self.update_block = self._walk.step_chunk

    def finalize(self) -> Any:
        return self._walk.finish()


class _TimingConsumer(_DriverConsumer):
    """Coverage walk feeding the incremental timing model; the timing
    result is the job's payload, the coverage accounting is discarded."""

    __slots__ = ("_model",)

    def __init__(self, job: SimJob, driver: SimulationDriver, model) -> None:
        super().__init__(job, driver)
        self._model = model

    def finalize(self) -> Any:
        self._walk.finish()
        return self._model.finalize()


def job_consumer(job: SimJob) -> Any:
    """An ``update_block(chunk)`` / ``finalize()`` consumer executing ``job``.

    Analysis jobs are :class:`~repro.analysis.base.StreamingAnalysis`
    instances already; coverage and timing jobs wrap a pushed
    :class:`~repro.sim.driver.DriverWalk`.
    """
    if job.kind == KIND_COVERAGE:
        prefetcher = build_prefetcher(job.prefetcher, job.workload)
        return _DriverConsumer(job, SimulationDriver(job.system, prefetcher))
    if job.kind == KIND_TIMING:
        prefetcher = build_prefetcher(job.prefetcher, job.workload)
        model = timing_model_for_job(job)
        driver = SimulationDriver(
            job.system, prefetcher, service_consumer=model
        )
        return _TimingConsumer(job, driver, model)
    return analysis_for_job(job)


def run_group(
    jobs: "list[SimJob]",
    accesses: Iterable[MemoryAccess],
    attempt: int = 1,
) -> "list[tuple[SimJob, Any]]":
    """Execute every job in ``jobs`` from one shared pass over ``accesses``.

    Args:
        jobs: jobs sharing a trace key (any kinds may mix).
        accesses: a single-iteration access stream for that key — a
            ``TraceSource``, a store replay, or a record-during-walk
            generator. It is pumped chunk at a time: each chunk's
            pre-pass (block ids) is computed once and every consumer's
            ``update_block`` replays it through its per-access closures,
            so one chunk decode serves the whole group.
        attempt: 1-based attempt number, folded into each job's
            fault-injection draw.

    Returns:
        ``(job, result)`` pairs in ``jobs`` order; every consumer owns
        independent state, so each result is the job's result alone.
    """
    # per-job injection point: a grouped job draws the faults a solo run
    # of the same attempt would, so group→isolation degradation is real
    for job in jobs:
        maybe_fail_job(job.job_hash, attempt)
    consumers = [job_consumer(job) for job in jobs]
    updates = [consumer.update_block for consumer in consumers]
    # ``walk_step`` phase accounting times the consumer updates per chunk
    # (chunk decode is accounted separately inside decode_chunk; the
    # pre-pass column, computed lazily inside a chunk's first update,
    # nests under walk_step as well as prepass)
    timer = phases_active()
    if timer is None:
        for chunk in iter_trace_chunks(accesses):
            for update_block in updates:
                update_block(chunk)
        return [
            (job, consumer.finalize())
            for job, consumer in zip(jobs, consumers)
        ]
    for chunk in iter_trace_chunks(accesses):
        start = time.perf_counter()
        for update_block in updates:
            update_block(chunk)
        timer.add(PHASE_WALK, time.perf_counter() - start)
    start = time.perf_counter()
    results = [
        (job, consumer.finalize())
        for job, consumer in zip(jobs, consumers)
    ]
    timer.add(
        PHASE_FINALIZE, time.perf_counter() - start, calls=len(results)
    )
    return results


def execute_job(
    job: SimJob,
    trace_store: Optional["TraceStore"] = None,
    attempt: int = 1,
) -> Any:
    """Run one job to completion and return its result dataclass.

    Args:
        job: the simulation/analysis description to execute.
        trace_store: when given, the job's trace is replayed from — or
            recorded into — this on-disk store instead of being
            regenerated.
        attempt: 1-based attempt number (retry ladder); folded into the
            fault-injection draw so a retried job re-rolls its faults.

    Returns:
        The kind-specific result dataclass; bit-identical across trace
        modes, serial/parallel execution and cache round-trips.

    A solo job is a :func:`run_group` of one. A mid-walk
    :class:`~repro.tracestore.TraceFormatError` from a store replay (a
    corrupt or truncated entry caught by the codec's CRC) is *not*
    handled here — callers recover by quarantining the entry and
    retrying, at which point the store regenerates (see
    ``execute_job_recovering``).
    """
    return run_group([job], job_trace(job, trace_store), attempt)[0][1]


def execute_job_recovering(
    job: SimJob,
    trace_store: Optional["TraceStore"] = None,
    attempt: int = 1,
) -> Any:
    """:func:`execute_job` with the replay→regeneration fallback wired.

    When execution fails and the store entry the job replayed does not
    verify — damage surfaces either as a
    :class:`~repro.tracestore.TraceFormatError` from the codec CRC or
    as the consumer choking on a garbage decoded access — the damaged
    entry is quarantined (``quarantine/`` + reason file, accounted on
    the store's stats) and the job is re-executed; the store then
    records a fresh trace during the retry walk. One fallback only — a
    failure with a verified-clean (or absent) entry is the job's own
    and propagates to the caller's retry ladder.
    """
    if trace_store is None:
        return execute_job(job, None, attempt)
    read = trace_store.entry_identity(job.trace_key)
    try:
        return execute_job(job, trace_store, attempt)
    except Exception as error:
        damaged = trace_store.quarantine_if_damaged(
            job.trace_key, f"replay failed: {error}"
        )
        # a racing recoverer may have already quarantined (and cleanly
        # re-recorded) the damaged entry this walk read: a replaced
        # entry licenses the retry too, evidence of older damage does not
        replaced = read is not None and (
            trace_store.entry_identity(job.trace_key) != read
        )
        if not damaged and not replaced:
            raise
        trace_store.stats.replay_fallbacks += 1
        return execute_job(job, trace_store, attempt)


def execute_job_for_pool(
    job: SimJob,
    trace_store_dir: Optional[Union[str, Path]] = None,
    attempt: int = 1,
) -> Tuple[str, Any, Dict[str, int]]:
    """Worker-side entry: result plus the trace-plane accounting delta.

    Opens a per-call :class:`TraceStore` handle when a directory is
    given, so its stats are exactly this job's replay/recording work;
    the parent engine folds the returned dict into its
    :class:`~repro.engine.engine.EngineStats`. Store-replay corruption
    is recovered in-worker (quarantine + regenerate, reported through
    the stats delta); other failures propagate to the parent's retry
    supervisor.

    The dict also carries the job's ``"worker"`` (``worker-<pid>``) and
    in-worker ``"wall_s"`` for the run journal and, with telemetry on,
    the worker's phase-timer delta under ``"metrics"``; the parent pops
    all three before folding the trace counters.
    """
    store = None
    if trace_store_dir is not None:
        from repro.tracestore import TraceStore

        store = TraceStore(trace_store_dir)
    phase_before = _phase_snapshot()
    start = time.perf_counter()
    result = execute_job_recovering(job, store, attempt)
    wall_s = time.perf_counter() - start
    if store is not None:
        stats = store.stats.as_dict()
    else:
        stats = {"generated": 1}
    stats["worker"] = f"worker-{os.getpid()}"
    stats["wall_s"] = wall_s
    if phase_before is not None:
        stats["metrics"] = process_registry().delta_since(phase_before)
    return job.job_hash, result, stats


def _phase_snapshot() -> Optional[dict]:
    """The process registry's snapshot a worker's phase delta is taken
    against, or None when telemetry is off."""
    return process_registry().snapshot() if telemetry_enabled() else None


def execute_jobs_broadcast(
    jobs: "list[SimJob]",
    ring_consumer: Any,
    index: int,
    trace_store_dir: Union[str, Path],
    out_queue: Any,
) -> None:
    """Broadcast-consumer process entry: a job bundle fed from one ring.

    Runs the bundle through :func:`run_group`, the loop every job
    walks — every job in the bundle
    shares one chunk decode and one vectorized pre-pass — but the
    access stream is a :class:`~repro.tracestore.broadcast.ChunkCursor`
    decoding chunks straight out of shared memory: zero file IO, zero
    index decode on the consumer side. If the reader dies or a slot
    fails its CRC the cursor degrades to an independent replay
    mid-stream; results are bit-identical either way.

    Reports ``(index, status, payload, store_stats, broadcast_stats)``
    on ``out_queue`` — ``status`` is ``"ok"`` (payload = a list of
    ``(job_hash, result)`` pairs) or ``"error"`` (payload = the error
    description; the parent charges each bundled job's retry budget and
    requeues them through the pool path). Injected ``worker_crash``
    draws kill the process outright, exactly as they would a pool
    worker. The broadcast-accounting dict also carries the bundle's
    ``"worker"`` (``bundle-<index>``) and ``"wall_s"`` for the run
    journal and, with telemetry on, its phase-timer delta under
    ``"metrics"``; the parent pops them before folding the counters.
    """
    from repro.tracestore.broadcast import ChunkCursor, replay_fallback

    bundle = list(jobs)
    fallback = replay_fallback(str(trace_store_dir), bundle[0].trace_key)
    cursor = ChunkCursor(ring_consumer, fallback)
    phase_before = _phase_snapshot()
    start = time.perf_counter()

    def accounting() -> dict:
        shared = cursor.accounting()
        shared["worker"] = f"bundle-{index}"
        shared["wall_s"] = time.perf_counter() - start
        if phase_before is not None:
            shared["metrics"] = process_registry().delta_since(phase_before)
        return shared

    try:
        results = run_group(bundle, cursor)
    except BaseException as error:  # noqa: BLE001 - reported, not silenced
        out_queue.put((
            index, "error", f"{type(error).__name__}: {error}",
            fallback.stats, accounting(),
        ))
        ring_consumer.close()
        return
    out_queue.put((
        index, "ok", [(job.job_hash, result) for job, result in results],
        fallback.stats, accounting(),
    ))
    ring_consumer.close()


def record_trace_for_pool(
    trace_store_dir: Union[str, Path], key: "tuple[str, int, int]"
) -> Dict[str, int]:
    """Worker-side trace recording: generate ``key`` into the store.

    Lets a cold parallel run record its distinct trace keys across the
    pool instead of one after another in the parent; returns the
    accounting delta (idempotent — a key another worker already
    published costs nothing and reports nothing).
    """
    from repro.tracestore import TraceStore

    store = TraceStore(trace_store_dir)
    store.record(tuple(key))
    return store.stats.as_dict()
