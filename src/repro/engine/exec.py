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
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Union

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
from repro.prefetch.ghb import GHBPrefetcher
from repro.prefetch.hybrid import NaiveHybridPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import BaselineReplay, SimulationDriver, StrideStream
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
    """Construct the main predictor a spec describes for ``workload``.

    Scientific workloads get the deeper lookahead the paper argues for in
    §4.3; ``spec.overrides`` are applied to the main predictor's config
    via ``dataclasses.replace`` (sensitivity sweeps). The Table-1 stride
    engine is never built here: a walk that :func:`carries_stride` reads
    a :class:`~repro.sim.driver.StrideStream`, so a ``stride`` spec has
    no main predictor (None).
    """
    if spec is None:
        return None
    scientific = WORKLOAD_CATEGORIES.get(workload) == "scientific"
    overrides = dict(spec.overrides)
    kind = spec.kind
    if overrides and kind not in CONFIGURABLE_PREFETCHER_KINDS:
        # PrefetcherSpec rejects this at construction; re-check here so a
        # hand-built spec can't silently run an unconfigured predictor
        raise ValueError(
            f"prefetcher kind {kind!r} does not take config overrides"
        )
    if kind in ("none", "stride"):
        return None
    if kind == "markov":
        return MarkovPrefetcher()
    if kind == "ghb":
        return GHBPrefetcher()
    if kind == "tms":
        base = TMSConfig(lookahead=12) if scientific else TMSConfig()
        return TMSPrefetcher(replace(base, **overrides))
    if kind == "sms":
        return SMSPrefetcher(replace(SMSConfig(), **overrides))
    if kind == "stems":
        base = STeMSConfig.scientific() if scientific else STeMSConfig()
        return STeMSPrefetcher(replace(base, **overrides))
    if kind == "hybrid":
        return NaiveHybridPrefetcher(
            TMSConfig(lookahead=12) if scientific else TMSConfig(), SMSConfig()
        )
    raise ValueError(f"unknown prefetcher kind {kind!r}")


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
    """Push-mode coverage or timing run: a driver walk fed one
    precomputed chunk at a time (``update_block``). A timing job's
    payload is its model's result; its coverage accounting is
    discarded."""

    __slots__ = ("_walk", "_model", "update_block")

    def __init__(self, job: SimJob, driver: SimulationDriver,
                 replay: Optional[BaselineReplay] = None,
                 stream: Optional[StrideStream] = None) -> None:
        self._walk = driver.start(job.workload, replay, stream)
        self._model = driver.service_consumer
        self.update_block = self._walk.step_chunk

    def finalize(self) -> Any:
        coverage = self._walk.finish()
        return coverage if self._model is None else self._model.finalize()


_ANALYSIS_KINDS = (KIND_JOINT, KIND_REPETITION, KIND_CORRELATION)


def observes_baseline(job: SimJob) -> bool:
    """Whether ``job`` — an analysis, or a walk without a prefetcher —
    only observes the no-prefetcher hierarchy and so may share a
    :class:`~repro.sim.driver.BaselineReplay`. A walk whose prefetcher
    installs into the L1 or streams into an SVB never does."""
    spec = job.prefetcher
    return job.kind in _ANALYSIS_KINDS or spec is None or spec.kind == "none"


def carries_stride(job: SimJob) -> bool:
    """Whether ``job``'s walk carries the Table-1 stride engine — a
    ``stride`` walk (no main predictor) or any ``with_stride`` one — and
    so reads a :class:`~repro.sim.driver.StrideStream`. A walk that
    :func:`observes_baseline` never does."""
    spec = job.prefetcher
    return not observes_baseline(job) and (
        spec.kind == "stride" or spec.with_stride
    )


#: relative cost of a job by (kind, prefetcher kind, with_stride): its
#: mean journaled ``wall_s`` (ms) in a ``--jobs 1`` run of ``all
#: --extended --small --length 50000 --seed 5`` over apache, db2, qry2
#: and em3d (2-core host), a stride-carrying job's with its even share
#: of its key's stride stream; only the ratios matter
JOB_COSTS = {
    (KIND_COVERAGE, "none", False): 70, (KIND_JOINT, "none", False): 70,
    (KIND_CORRELATION, "none", False): 70,
    (KIND_REPETITION, "none", False): 200,
    (KIND_COVERAGE, "stride", False): 80, (KIND_COVERAGE, "ghb", False): 120,
    (KIND_COVERAGE, "markov", False): 110, (KIND_COVERAGE, "tms", False): 180,
    (KIND_COVERAGE, "sms", False): 280, (KIND_COVERAGE, "hybrid", False): 420,
    (KIND_COVERAGE, "stems", False): 570, (KIND_TIMING, "stride", False): 150,
    (KIND_TIMING, "tms", True): 280, (KIND_TIMING, "sms", True): 400,
    (KIND_TIMING, "stems", True): 680,
}
DEFAULT_JOB_COST = 500


def job_cost(job: SimJob) -> int:
    """``job``'s weight in :func:`deal_bundles`: its :data:`JOB_COSTS`
    entry, else :data:`DEFAULT_JOB_COST`."""
    spec = job.prefetcher or PrefetcherSpec()
    return JOB_COSTS.get((job.kind, spec.kind, spec.with_stride), DEFAULT_JOB_COST)


def deal_bundles(group: "list[SimJob]", bundles: int) -> "list[list[SimJob]]":
    """Deal one trace key's jobs into at most ``bundles`` non-empty bundles,
    independently of ``group``'s order: units go largest :func:`job_cost`
    first (ties by job hash) to the least-loaded of ``min(bundles,
    len(group))``. The :func:`observes_baseline` jobs are one unit (one
    :class:`~repro.sim.driver.BaselineReplay` for the key) unless they
    alone cost more than the key's total over the bundle count."""
    count = min(bundles, len(group))
    group = sorted(group, key=lambda job: job.job_hash)
    units = [[job] for job in group if not observes_baseline(job)]
    replay = [job for job in group if observes_baseline(job)]
    if sum(map(job_cost, replay)) * count > sum(map(job_cost, group)):
        units += [[job] for job in replay]
    elif replay:
        units.append(replay)
    units.sort(key=lambda unit: (-sum(map(job_cost, unit)), unit[0].job_hash))
    loads = [0] * min(count, len(units))
    dealt: "list[list[SimJob]]" = [[] for _ in loads]
    for unit in units:
        target = loads.index(min(loads))
        dealt[target] += unit
        loads[target] += sum(map(job_cost, unit))
    return dealt


def job_consumer(job: SimJob, replay: Optional[BaselineReplay] = None,
                 stream: Optional[StrideStream] = None) -> Any:
    """An ``update_block(chunk)`` / ``finalize()`` consumer executing ``job``.

    Analysis jobs are :class:`~repro.analysis.base.StreamingAnalysis`
    instances already; coverage and timing jobs wrap a pushed
    :class:`~repro.sim.driver.DriverWalk`. With ``replay``, a job that
    :func:`observes_baseline` joins it as a member instead of walking a
    private hierarchy; the caller then steps ``replay`` once per chunk
    for all its members and never the member's own ``update_block``.
    With ``stream``, a job that :func:`carries_stride` reads it instead
    of stepping a private one; the caller steps ``stream`` before the
    job's ``update_block`` in every chunk.
    """
    if job.kind in (KIND_COVERAGE, KIND_TIMING):
        prefetcher = build_prefetcher(job.prefetcher, job.workload)
        model = timing_model_for_job(job) if job.kind == KIND_TIMING else None
        driver = SimulationDriver(job.system, prefetcher, model,
                                  stride=carries_stride(job))
        return _DriverConsumer(job, driver, replay, stream)
    analysis = analysis_for_job(job)
    if replay is not None:
        analysis.attach(replay)
    return analysis


class GroupRun(list):
    """``(job, result)`` pairs plus each job's own ``seconds``."""

    def __init__(self, pairs: list, seconds: "list[float]") -> None:
        super().__init__(pairs)
        self.seconds = seconds


def run_group(
    jobs: "list[SimJob]",
    accesses: Iterable[MemoryAccess],
    attempt: int = 1,
) -> GroupRun:
    """Execute every job in ``jobs`` from one shared pass over ``accesses``.

    Args:
        jobs: jobs sharing a trace key (any kinds may mix).
        accesses: a single-iteration access stream for that key — a
            ``TraceSource``, a store replay, or a record-during-walk
            generator. It is pumped chunk at a time: each chunk's
            pre-pass (block ids) is computed once and every walker
            replays it through its per-access closures, so one chunk
            decode serves the whole group.
        attempt: 1-based attempt number, folded into each job's
            fault-injection draw.

    Jobs that :func:`observes_baseline` share one
    :class:`~repro.sim.driver.BaselineReplay` per ``SystemConfig``, and
    jobs that :func:`carries_stride` one
    :class:`~repro.sim.driver.StrideStream` per ``SystemConfig``, stepped
    before its members in every chunk; every other walk is the job's
    own consumer. A job is credited its own walker's time (one
    ``perf_counter`` pair per chunk) plus an even share of each shared
    stage it belongs to (the replay's table flush included), plus its
    own ``finalize``.

    Returns:
        A :class:`GroupRun`: ``(job, result)`` pairs in ``jobs`` order,
        with each job's seconds; every member and consumer owns
        independent state, so each result is the job's result alone.
    """
    # per-job injection point: a grouped job draws the faults a solo run
    # of the same attempt would, so group→isolation degradation is real
    for job in jobs:
        maybe_fail_job(job.job_hash, attempt)
    # a walker is (chunk update, positions of the jobs it serves, its
    # shared stage or None); one walker per shared stage and SystemConfig
    walkers: "list[tuple[Any, list[int], Any]]" = []
    shared: "dict[tuple[type, Any], tuple[Any, list[int], Any]]" = {}

    def member(stage_type: type, job: SimJob, position: int) -> Any:
        """The group's ``stage_type`` stage for ``job.system``, with
        ``job`` among the members its time is split across."""
        key = (stage_type, job.system)
        if key not in shared:
            stage = stage_type(job.system)
            walkers.append((stage.step_chunk, [], stage))
            shared[key] = walkers[-1]
        shared[key][1].append(position)
        return shared[key][2]

    consumers = []
    for position, job in enumerate(jobs):
        if observes_baseline(job):
            replay = member(BaselineReplay, job, position)
            consumers.append(job_consumer(job, replay))
            continue
        stream = (
            member(StrideStream, job, position) if carries_stride(job)
            else None
        )
        consumers.append(job_consumer(job, stream=stream))
        walkers.append((consumers[-1].update_block, [position], None))
    spent = [0.0] * len(walkers)
    clock = time.perf_counter
    # ``walk_step`` times all walkers per chunk (decode is timed inside
    # decode_chunk; a chunk's lazy pre-pass nests under walk_step too)
    timer = phases_active()
    for chunk in iter_trace_chunks(accesses):
        chunk_start = clock()
        for index, (update_block, _, _) in enumerate(walkers):
            start = clock()
            update_block(chunk)
            spent[index] += clock() - start
        if timer is not None:
            timer.add(PHASE_WALK, clock() - chunk_start)
    finalize_start = clock()
    seconds = [0.0] * len(jobs)
    for index, (_, positions, stage) in enumerate(walkers):
        if stage is not None:
            start = clock()
            stage.finish()  # e.g. one table flush for every member
            spent[index] += clock() - start
        for position in positions:
            seconds[position] += spent[index] / len(positions)
    pairs = []
    for position, (job, consumer) in enumerate(zip(jobs, consumers)):
        start = clock()
        pairs.append((job, consumer.finalize()))
        seconds[position] += clock() - start
    if timer is not None:
        timer.add(PHASE_FINALIZE, clock() - finalize_start, calls=len(pairs))
    return GroupRun(pairs, seconds)


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
    handled here; :func:`run_recovering` is the walk that recovers.
    """
    return run_group([job], job_trace(job, trace_store), attempt)[0][1]


def run_recovering(
    jobs: "list[SimJob]",
    trace_store: Optional["TraceStore"] = None,
    attempt: int = 1,
) -> GroupRun:
    """:func:`run_group` over ``jobs``' trace key, rerun once on damage.

    The walk of every inline group, inline solo job and pool job: the
    first rung of the engine's recovery ladder. When the walk fails and
    the store entry it opened does not verify — damage surfaces either
    as a :class:`~repro.tracestore.TraceFormatError` from the codec CRC
    or as a consumer choking on a garbage decoded access — the entry is
    quarantined (``quarantine/`` + reason file) and the walk reruns
    once, uncharged, recording a fresh trace. A racing recoverer that
    already replaced the entry this walk read licenses the rerun too;
    evidence of older damage does not. The rerun is counted in the
    store's ``replay_fallbacks``. Any other failure is the jobs' own
    and propagates to the caller's ladder.
    """
    key = jobs[0].trace_key
    read = None if trace_store is None else trace_store.entry_identity(key)
    try:
        return run_group(jobs, job_trace(jobs[0], trace_store), attempt)
    except Exception as error:
        if trace_store is None:
            raise
        damaged = trace_store.quarantine_if_damaged(
            key, f"replay failed: {error}"
        )
        replaced = read is not None and trace_store.entry_identity(key) != read
        if not damaged and not replaced:
            raise
        trace_store.stats.replay_fallbacks += 1
        return run_group(jobs, job_trace(jobs[0], trace_store), attempt)


def walk_report(
    run: Optional[GroupRun],
    worker: str,
    delta: Dict[str, int],
    phase_before: Optional[dict] = None,
) -> "tuple[Optional[list], Dict[str, Any]]":
    """A walk as the engine's one fold (``Engine._credit``) takes it.

    Returns ``(results, report)``: the results in the walk's job order,
    or None when ``run`` is None (a walk that failed), and the report —
    the walk's trace-store ``delta`` plus the ``worker`` that walked,
    each job's own ``seconds`` in job order and, given
    ``phase_before``, the phase-timer delta since then as ``metrics``.
    """
    report = dict(delta, worker=worker,
                  seconds=[] if run is None else run.seconds)
    if phase_before is not None:
        report["metrics"] = process_registry().delta_since(phase_before)
    if run is None:
        return None, report
    return [result for _, result in run], report


def execute_job_for_pool(
    job: SimJob,
    trace_store_dir: Optional[Union[str, Path]] = None,
    attempt: int = 1,
) -> "tuple[str, Any, Dict[str, Any]]":
    """Worker-side entry: one :func:`run_recovering` attempt of ``job``.

    Opens a per-call :class:`TraceStore` handle when a directory is
    given, so its stats are exactly this job's replay/recording work.
    Returns ``(job_hash, result, report)``, ``report`` being the
    :func:`walk_report` the parent engine folds (worker
    ``worker-<pid>``). Failures other than the recovered store damage
    propagate to the parent's retry supervisor.
    """
    store = None
    if trace_store_dir is not None:
        from repro.tracestore import TraceStore

        store = TraceStore(trace_store_dir)
    phase_before = _phase_snapshot()
    run = run_recovering([job], store, attempt)
    delta = store.stats.as_dict() if store is not None else {"generated": 1}
    results, report = walk_report(
        run, f"worker-{os.getpid()}", delta, phase_before
    )
    return job.job_hash, results[0], report


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

    Reports ``(index, results, report, broadcast_stats)`` on
    ``out_queue``: the bundle's :func:`walk_report` (worker
    ``bundle-<index>``; ``results`` is None when the walk failed, and
    the parent then isolates the bundle's jobs) and the cursor's
    accounting. Injected ``worker_crash`` draws kill the process
    outright, exactly as they would a pool worker.
    """
    from repro.tracestore.broadcast import ChunkCursor, replay_fallback

    bundle = list(jobs)
    fallback = replay_fallback(str(trace_store_dir), bundle[0].trace_key)
    cursor = ChunkCursor(ring_consumer, fallback)
    phase_before = _phase_snapshot()
    try:
        run = run_group(bundle, cursor)
    except Exception:  # reported as a failed walk: the parent isolates it
        run = None
    out_queue.put((
        index,
        *walk_report(run, f"bundle-{index}", fallback.stats, phase_before),
        cursor.accounting(),
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
