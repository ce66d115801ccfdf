"""Failure parity: every execution mode walks the same recovery ladder.

An injected ``job_fail`` or ``worker_crash`` must cost the same jobs the
same attempts whether the engine runs serially, on the pool (broadcast
off) or as broadcast waves, and every job must pass the ``kill_at_job``
dispatch gate exactly once. A failed shared walk (a serial group, a
broadcast bundle that errs or dies) is isolated without a charge, so a
bundle-mate of a failing job is never charged for it, and a job requeued
without a charge is never gated again.
"""

from __future__ import annotations

import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobExecutionError,
    JobFailure,
    JobGraph,
    PrefetcherSpec,
    RetryPolicy,
    SimJob,
)
from repro.engine import engine as engine_module
from repro.engine import exec as exec_module
from repro.engine.faultinject import ENV_VAR
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS

KINDS = ("none", "tms", "sms", "stems", "stride", "ghb")
LENGTH = 4000
SEED = 3
MODES = ("serial", "pool", "broadcast")

#: vector A: fires only on coverage:db2:none's first attempt
JOB_FAIL_A = "job_fail:0.3@seed=3@max_attempt=1"


def _jobs(count: int) -> "list[SimJob]":
    return [
        SimJob.make("coverage", "db2", LENGTH, SEED, SystemConfig.tiny(),
                    PrefetcherSpec.make(kind) if kind != "none" else None)
        for kind in KINDS[:count]
    ]


def _engine(mode: str, store: str, policy: RetryPolicy) -> Engine:
    if mode == "serial":
        return Engine(jobs=1, retry=policy)
    return Engine(jobs=2, trace_store=store, retry=policy,
                  broadcast="off" if mode == "pool" else "on")


def _run(mode: str, jobs: "list[SimJob]", spec: str,
         policy: RetryPolicy) -> "tuple[dict, dict, int]":
    """One mode's failed jobs (label → attempts), other results (label →
    result) and ``maybe_kill_run`` calls, under injection ``spec``."""
    gates = []
    real = engine_module.maybe_kill_run

    def counting() -> None:
        gates.append(None)
        real()

    graph = JobGraph()
    for job in jobs:
        graph.add(job)
    with tempfile.TemporaryDirectory() as store, \
            mock.patch.dict(os.environ, {ENV_VAR: spec}), \
            mock.patch.object(engine_module, "maybe_kill_run", counting):
        results = _engine(mode, store, policy).run(graph)
    failed = {
        job.label(): results[job].attempts
        for job in jobs if isinstance(results[job], JobFailure)
    }
    done = {
        job.label(): results[job]
        for job in jobs if not isinstance(results[job], JobFailure)
    }
    return failed, done, len(gates)


@pytest.fixture(scope="module")
def clean():
    """Fault-free results, by label, for all six jobs."""
    graph = JobGraph()
    jobs = [graph.add(job) for job in _jobs(len(KINDS))]
    with mock.patch.dict(os.environ, {ENV_VAR: ""}):
        results = Engine(jobs=1).run(graph)
    return {job.label(): results[job] for job in jobs}


class TestFailureParity:
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        count=st.integers(min_value=4, max_value=6),
        kind=st.sampled_from(["job_fail", "worker_crash"]),
        rate=st.sampled_from([0.2, 0.3, 0.5]),
        seed=st.integers(min_value=0, max_value=40),
        max_attempt=st.one_of(st.none(), st.integers(min_value=1,
                                                     max_value=2)),
        attempts=st.integers(min_value=1, max_value=3),
    )
    @example(count=4, kind="job_fail", rate=0.3, seed=3, max_attempt=1,
             attempts=1)  # vector A
    @example(count=6, kind="worker_crash", rate=0.3, seed=1, max_attempt=1,
             attempts=3)  # vector B: fires only on coverage:db2:stems
    def test_every_mode_fails_the_same_jobs_and_gates_each_once(
        self, clean, count, kind, rate, seed, max_attempt, attempts
    ):
        spec = f"{kind}:{rate}@seed={seed}"
        if max_attempt is not None:
            spec += f"@max_attempt={max_attempt}"
        jobs = _jobs(count)
        policy = RetryPolicy(attempts=attempts, backoff=0.0)
        runs = {mode: _run(mode, jobs, spec, policy) for mode in MODES}
        serial_failed = runs["serial"][0]
        for mode, (failed, done, gates) in runs.items():
            assert failed == serial_failed, mode
            assert done == {label: clean[label] for label in done}, mode
            assert set(failed) | set(done) == {j.label() for j in jobs}
            assert gates == len(jobs), mode

    def test_vector_a_fails_only_the_culprit(self, clean):
        jobs = _jobs(4)
        policy = RetryPolicy(attempts=1, backoff=0.0)
        for mode in MODES:
            failed, _, _ = _run(mode, jobs, JOB_FAIL_A, policy)
            assert failed == {"coverage:db2:none": 1}, mode

    def test_strict_parallel_abort_names_the_culprit(self):
        graph = JobGraph()
        for job in _jobs(4):
            graph.add(job)
        policy = RetryPolicy(attempts=1, backoff=0.0)
        with tempfile.TemporaryDirectory() as store, \
                mock.patch.dict(os.environ, {ENV_VAR: JOB_FAIL_A}):
            engine = Engine(jobs=2, trace_store=store, retry=policy,
                            strict=True)
            with pytest.raises(JobExecutionError) as excinfo:
                engine.run(graph)
        assert excinfo.value.failure.label == "coverage:db2:none"


def _one_job_keys() -> "list[SimJob]":
    """Two trace keys with one ``coverage:stride`` job each."""
    return [
        SimJob.make("coverage", workload, LENGTH, SEED, SystemConfig.tiny(),
                    PrefetcherSpec.make("stride"))
        for workload in ("db2", "qry2")
    ]


def _walks(mode: str, jobs: "list[SimJob]", spec: str,
           policy: RetryPolicy) -> "tuple[dict, int]":
    """One mode's ``run_group`` attempts per workload (pool workers
    included) and its isolation fallbacks, under injection ``spec``."""
    graph = JobGraph()
    for job in jobs:
        graph.add(job)
    real = exec_module.run_group
    with tempfile.TemporaryDirectory() as scratch:
        log = os.path.join(scratch, "walks")

        def logged(group, accesses, attempt=1):
            with open(log, "a") as handle:  # O_APPEND: one line per write
                handle.write(f"{group[0].workload} {attempt}\n")
            return real(group, accesses, attempt)

        store = os.path.join(scratch, "store")
        with mock.patch.dict(os.environ, {ENV_VAR: spec}), \
                mock.patch.object(exec_module, "run_group", logged):
            engine = _engine(mode, store, policy)
            engine.run(graph)
        with open(log) as handle:
            lines = handle.read().split()
    walks: "dict[str, list[int]]" = {}
    for workload, attempt in zip(lines[::2], lines[1::2]):
        walks.setdefault(workload, []).append(int(attempt))
    return ({w: sorted(a) for w, a in walks.items()},
            engine.stats.isolation_fallbacks)


class TestOneJobKeys:
    def test_serial_and_pool_walk_the_same_attempts(self):
        """A key with one job runs straight on the solo ladder: its
        failed first walk is charged, never isolated and rerun."""
        policy = RetryPolicy(attempts=2, backoff=0.0)
        spec = "job_fail:1@max_attempt=1"
        runs = {mode: _walks(mode, _one_job_keys(), spec, policy)
                for mode in ("serial", "pool")}
        assert runs["serial"] == runs["pool"]
        assert runs["serial"] == ({"db2": [1, 2], "qry2": [1, 2]}, 0)


def test_reader_outliving_its_bundles_is_counted():
    """Every bundle of a cold key's wave fails at once, before its slow
    reader ends; the reader still records the key, and its generation
    pass is counted."""
    from repro.tracestore import broadcast

    real = broadcast.run_reader

    def slow_reader(*args):
        time.sleep(1.0)  # outlive the bundles, which fail at their start
        real(*args)

    config = ExperimentConfig.small()
    config.trace_length = LENGTH
    config.workloads = ["db2"]
    graph = JobGraph()
    EXPERIMENTS["fig9"].declare(config, graph)
    with tempfile.TemporaryDirectory() as store, \
            mock.patch.dict(os.environ, {ENV_VAR: JOB_FAIL_A}), \
            mock.patch.object(broadcast, "run_reader", slow_reader):
        engine = Engine(jobs=2, trace_store=store, broadcast="on",
                        retry=RetryPolicy(attempts=1, backoff=0.0))
        engine.run(graph)
    assert engine.stats.broadcast_waves == 1
    assert engine.stats.isolation_fallbacks == 2  # both bundles failed
    assert engine.stats.generation_passes == 1
