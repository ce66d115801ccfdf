"""Multi-consumer fan-out: one trace walk feeds many jobs at once.

Jobs that share a :attr:`~repro.engine.job.SimJob.trace_key` walk the
identical generated access sequence, so running them one after another
regenerates (or re-reads) the same trace N times. This module turns each
job into an incremental *consumer* — ``update_block(chunk)`` per
:class:`~repro.kernels.AccessChunk`, ``finalize()`` for the result — and
pumps a single :class:`~repro.trace.container.TraceSource` pass through
all of them.

Every consumer owns completely independent simulation state (its own
hierarchy, SVB, predictor, analysis tables), exactly as a solo
:func:`~repro.engine.exec.execute_job` run would, and the driver's
pushed ``step_chunk`` closure is the same code the pulled ``run()``
loop executes — so fanned-out results are bit-identical to per-job execution.
The engine uses this for serial runs; parallel workers instead replay a
recorded trace from the :class:`~repro.tracestore.TraceStore`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, List, Sequence, Tuple

from repro.engine.exec import (
    analysis_for_job,
    build_prefetcher,
    timing_model_for_job,
)
from repro.engine.faultinject import maybe_fail_job
from repro.engine.job import KIND_COVERAGE, KIND_TIMING, SimJob
from repro.kernels.prepass import iter_trace_chunks
from repro.sim.driver import SimulationDriver
from repro.telemetry import PHASE_FINALIZE, PHASE_WALK, phases_active
from repro.trace.events import MemoryAccess


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
    result is the job's payload, the coverage accounting is discarded
    (same as the solo timing path)."""

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
    jobs: Sequence[SimJob],
    accesses: Iterable[MemoryAccess],
) -> List[Tuple[SimJob, Any]]:
    """Execute every job in ``jobs`` from one shared pass over ``accesses``.

    Args:
        jobs: jobs sharing a trace key (any kinds may mix).
        accesses: a single-iteration access stream for that key — a
            ``TraceSource``, a store replay, or a record-during-walk
            generator. It is pumped chunk at a time: each chunk's
            pre-pass (block ids) is computed once and every consumer's
            ``update_block`` replays it through its per-access closures,
            so one chunk decode serves the whole group.

    Returns:
        ``(job, result)`` pairs in ``jobs`` order, each result
        bit-identical to a solo ``execute_job`` run.
    """
    # per-job injection point (attempt 1): grouped jobs must see the same
    # injected faults a solo execute_job would, so the engine's
    # group→isolation degradation actually gets exercised
    for job in jobs:
        maybe_fail_job(job.job_hash, 1)
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
        start = perf_counter()
        for update_block in updates:
            update_block(chunk)
        timer.add(PHASE_WALK, perf_counter() - start)
    start = perf_counter()
    results = [
        (job, consumer.finalize())
        for job, consumer in zip(jobs, consumers)
    ]
    timer.add(PHASE_FINALIZE, perf_counter() - start, calls=len(results))
    return results
