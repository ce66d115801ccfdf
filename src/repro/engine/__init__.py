"""Unified simulation engine: declare jobs, execute them once, anywhere.

The engine splits "what to simulate" from "how to run it" in three
layers:

* **Jobs** (:mod:`repro.engine.job`) — :class:`SimJob` describes one
  simulation or analysis as pure data with a stable content hash;
  :class:`PrefetcherSpec` describes the predictor declaratively.
* **Graph** (:mod:`repro.engine.graph`) — experiments declare jobs into
  a :class:`JobGraph`, which deduplicates identical work across figures
  (the shared no-prefetcher baselines, for example).
* **Execution** (:mod:`repro.engine.engine` / :mod:`repro.engine.exec`)
  — the :class:`Engine` satisfies jobs from an on-disk result cache,
  then runs the rest serially (fanning one trace walk out to every job
  sharing a :attr:`~repro.engine.job.SimJob.trace_key`) or over a
  process pool (replaying recorded traces from a
  :class:`~repro.tracestore.TraceStore` when one is attached). Every
  job, in every mode, is a consumer of :func:`run_group` — a solo job
  is a group of one — so results are bit-identical across modes.

Typical use::

    graph = JobGraph()
    plan = fig9.declare(config, graph)
    engine = Engine(jobs=4, cache_dir=".repro-cache",
                    trace_store=".repro-traces")
    results = engine.run(graph)
    rows = fig9.collect(config, plan, results)
"""

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.engine import Engine, EngineStats, ResultMap
from repro.engine.exec import (
    build_prefetcher, execute_job, job_consumer, job_trace, run_group,
)
from repro.engine.faultinject import FaultPlan
from repro.engine.faults import (
    JobExecutionError,
    JobFailure,
    RetryPolicy,
    RunInterrupted,
)
from repro.engine.graph import JobGraph
from repro.engine.journal import (
    GracefulShutdown,
    RunJournal,
    RunRecord,
    find_run,
    list_runs,
    load_run,
    runs_root,
)
from repro.engine.job import (
    JOB_KINDS,
    KIND_CORRELATION,
    KIND_COVERAGE,
    KIND_JOINT,
    KIND_REPETITION,
    KIND_TIMING,
    PrefetcherSpec,
    SimJob,
)

__all__ = [
    "CacheStats",
    "Engine",
    "EngineStats",
    "FaultPlan",
    "GracefulShutdown",
    "JobExecutionError",
    "JobFailure",
    "JobGraph",
    "RunInterrupted",
    "RunJournal",
    "RunRecord",
    "JOB_KINDS",
    "KIND_CORRELATION",
    "KIND_COVERAGE",
    "KIND_JOINT",
    "KIND_REPETITION",
    "KIND_TIMING",
    "PrefetcherSpec",
    "ResultCache",
    "ResultMap",
    "RetryPolicy",
    "SimJob",
    "build_prefetcher",
    "execute_job",
    "find_run",
    "job_consumer",
    "job_trace",
    "list_runs",
    "load_run",
    "run_group",
    "runs_root",
]
