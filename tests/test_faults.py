"""Fault-tolerant execution plane: retries, quarantine, injection.

The anchor invariant is the robustness contract: a run with faults
injected — dead workers, corrupt trace entries, corrupt cache shards —
completes with results **bit-identical** to a clean run, leaves the
damaged files quarantined (not deleted), and accounts every recovery in
``EngineStats``. The tests drive the deterministic
``REPRO_FAULT_INJECT`` harness through both execution modes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobExecutionError,
    JobFailure,
    JobGraph,
    PrefetcherSpec,
    ResultCache,
    RetryPolicy,
    SimJob,
)
from repro.engine import exec as exec_module
from repro.engine.exec import run_recovering
from repro.engine.faultinject import (
    ENV_VAR,
    FaultPlan,
    InjectedFault,
    active_plan,
    maybe_fail_job,
)
from repro.engine.faults import AttemptLog, quarantine_file
from repro.tracestore import TraceStore

WORKLOADS = ("apache", "em3d")
PREFETCHERS = ("none", "stride", "sms")
LENGTH = 2500
SEED = 1


@pytest.fixture(autouse=True)
def _no_ambient_injection(monkeypatch):
    """Each test starts with a clean injection environment."""
    monkeypatch.delenv(ENV_VAR, raising=False)


def build_graph() -> "tuple[JobGraph, list[SimJob]]":
    graph = JobGraph()
    jobs = []
    system = SystemConfig.tiny()
    for workload in WORKLOADS:
        for kind in PREFETCHERS:
            spec = PrefetcherSpec(kind=kind) if kind != "none" else None
            job = SimJob(kind="coverage", workload=workload, length=LENGTH,
                         seed=SEED, system=system, prefetcher=spec)
            jobs.append(graph.add(job))
    return graph, jobs


@pytest.fixture(scope="module")
def reference():
    """Fault-free results every injected run must reproduce exactly."""
    graph, jobs = build_graph()
    engine = Engine(jobs=1)
    results = engine.run(graph)
    assert not engine.stats.degraded
    return {job.job_hash: results[job] for job in jobs}


def assert_identical(results, reference, jobs) -> None:
    for job in jobs:
        assert results[job] == reference[job.job_hash], job.label()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)

    def test_backoff_is_exponential_with_deterministic_jitter(self):
        policy = RetryPolicy(attempts=5, backoff=0.1)
        delays = [policy.backoff_for("jobkey", n) for n in (1, 2, 3)]
        # same key, same attempt -> identical delay
        assert delays == [policy.backoff_for("jobkey", n) for n in (1, 2, 3)]
        # exponential envelope with jitter in [0.5, 1.5)
        for n, delay in enumerate(delays, start=1):
            base = 0.1 * 2 ** (n - 1)
            assert 0.5 * base <= delay < 1.5 * base
        # different keys draw different jitter
        assert policy.backoff_for("other", 1) != delays[0]

    def test_none_policy_is_single_attempt(self):
        policy = RetryPolicy(attempts=1, backoff=0.0)
        assert policy.attempts == 1
        assert policy.backoff_for("k", 1) == 0.0


class TestFaultPlanParsing:
    def test_full_spec_round_trip(self):
        plan = FaultPlan.parse(
            "worker_crash:0.1@seed=7,trace_corrupt:1,stall:0.5@secs=5"
        )
        assert plan.seed == 7
        assert plan.spec("worker_crash").rate == 0.1
        assert plan.spec("trace_corrupt").rate == 1.0
        assert plan.spec("stall").param("secs") == "5"
        assert plan.spec("cache_corrupt") is None
        assert bool(plan)

    def test_fires_is_deterministic_and_rate_bounded(self):
        plan = FaultPlan.parse("job_fail:0.5")
        draws = [plan.fires("job_fail", f"site{i}", 1) for i in range(200)]
        assert draws == [plan.fires("job_fail", f"site{i}", 1)
                         for i in range(200)]
        assert 40 < sum(draws) < 160  # rate actually thins the draws
        assert not plan.fires("worker_crash", "site0", 1)  # unconfigured

    @pytest.mark.parametrize("bad", [
        "unknown_kind", "worker_crash:nope", "worker_crash:1.5",
        "stall:1@secs", "job_fail:-0.1",
    ])
    def test_bad_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_active_plan_tracks_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        assert active_plan().spec("job_fail") is not None
        monkeypatch.delenv(ENV_VAR)
        assert not active_plan()

    def test_injected_fault_raised_serially(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        with pytest.raises(InjectedFault):
            maybe_fail_job("somehash", 1)


class TestQuarantineFile:
    def test_moves_file_with_reason(self, tmp_path):
        victim = tmp_path / "ab" / "entry.bin"
        victim.parent.mkdir()
        victim.write_bytes(b"damaged")
        moved = quarantine_file(victim, tmp_path, "checksum mismatch")
        assert moved is not None and moved.read_bytes() == b"damaged"
        assert not victim.exists()
        reason = moved.with_name(moved.name + ".reason.txt")
        assert "checksum mismatch" in reason.read_text()

    def test_collisions_keep_prior_evidence(self, tmp_path):
        for content in (b"first", b"second"):
            victim = tmp_path / "entry.bin"
            victim.write_bytes(content)
            quarantine_file(victim, tmp_path, "damage")
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir()
                       if not p.name.endswith(".reason.txt"))
        assert names == ["entry.bin", "entry.bin.1"]

    def test_missing_source_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "gone", tmp_path, "x") is None


class TestCrashRecovery:
    """Injected worker crashes: retried, requeued, bit-identical."""

    def test_serial_crashes_recover_bit_identical(
        self, tmp_path, monkeypatch, reference
    ):
        monkeypatch.setenv(ENV_VAR, "worker_crash:0.4@seed=3")
        graph, jobs = build_graph()
        # the unluckiest job (deterministically) crashes 3 times before
        # its first clean attempt — give the ladder room
        policy = RetryPolicy(attempts=5, backoff=0.0)
        engine = Engine(jobs=1, trace_store=tmp_path / "traces",
                        retry=policy)
        results = engine.run(graph)
        assert not results.failures()
        assert_identical(results, reference, jobs)
        assert engine.stats.retries > 0
        assert engine.stats.isolation_fallbacks > 0

    def test_parallel_crashes_recover_bit_identical(
        self, tmp_path, monkeypatch, reference
    ):
        monkeypatch.setenv(ENV_VAR, "worker_crash:0.4@seed=3")
        graph, jobs = build_graph()
        policy = RetryPolicy(attempts=5, backoff=0.01)
        engine = Engine(jobs=2, trace_store=tmp_path / "traces",
                        retry=policy)
        results = engine.run(graph)
        assert not results.failures()
        assert_identical(results, reference, jobs)
        assert engine.stats.retries > 0
        assert engine.stats.pool_respawns > 0

    def test_exhausted_retries_surface_as_structured_failure(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        graph, jobs = build_graph()
        engine = Engine(jobs=1, retry=RetryPolicy(attempts=2, backoff=0.0))
        results = engine.run(graph)
        failures = results.failures()
        assert len(failures) == len(jobs)
        for failure in failures:
            assert isinstance(failure, JobFailure)
            assert failure.attempts == 2
            assert failure.error_type == "InjectedFault"
            assert len(failure.history) == 2
        assert engine.stats.failures == len(jobs)
        assert "failed after 2 attempt(s)" in capsys.readouterr().err

    def test_strict_mode_raises_instead(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        graph, _ = build_graph()
        engine = Engine(jobs=1, retry=RetryPolicy(attempts=2, backoff=0.0),
                        strict=True)
        with pytest.raises(JobExecutionError) as excinfo:
            engine.run(graph)
        assert excinfo.value.failure.error_type == "InjectedFault"

    def test_failures_are_never_cached(self, tmp_path, monkeypatch, reference):
        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        graph, jobs = build_graph()
        engine = Engine(jobs=1, cache_dir=tmp_path / "cache",
                        retry=RetryPolicy(attempts=2, backoff=0.0))
        assert engine.run(graph).failures()
        # with injection off, nothing poisoned the cache: a clean rerun
        # re-executes everything and matches the reference
        monkeypatch.delenv(ENV_VAR)
        graph2, _ = build_graph()
        engine2 = Engine(jobs=1, cache_dir=tmp_path / "cache")
        results = engine2.run(graph2)
        assert engine2.stats.cache_hits == 0
        assert_identical(results, reference, jobs)


class TestTraceQuarantine:
    """Corrupt store entries: quarantined, regenerated, bit-identical."""

    def test_serial_replay_of_corrupt_entries_recovers(
        self, tmp_path, monkeypatch, reference
    ):
        store_dir = tmp_path / "traces"
        monkeypatch.setenv(ENV_VAR, "trace_corrupt:1")
        # run 1 records (and the harness corrupts) every entry
        graph, jobs = build_graph()
        engine = Engine(jobs=1, trace_store=store_dir)
        assert_identical(engine.run(graph), reference, jobs)
        # run 2 replays the damage: every entry must be quarantined and
        # regenerated, and results still match
        graph2, _ = build_graph()
        engine2 = Engine(jobs=1, trace_store=store_dir)
        results = engine2.run(graph2)
        assert_identical(results, reference, jobs)
        assert engine2.stats.quarantined == len(WORKLOADS)
        assert engine2.stats.replay_fallbacks == len(WORKLOADS)
        quarantined = list((store_dir / "quarantine").glob("*.trace"))
        assert len(quarantined) == len(WORKLOADS)
        for entry in quarantined:
            reason = entry.with_name(entry.name + ".reason.txt")
            assert reason.is_file() and "replay failed" in reason.read_text()
        # the regenerated entries are clean and replayable
        store = TraceStore(store_dir)
        for job in jobs:
            assert store.verify(job.trace_key)

    def test_parallel_cold_store_with_corruption_recovers(
        self, tmp_path, monkeypatch, reference
    ):
        # pin the pool replay path: under broadcast (the default) a cold
        # run's consumers are fed the clean stream before the published
        # entry is damaged, so nothing re-reads the corruption in the
        # same run — tests/test_broadcast.py covers that plane
        monkeypatch.setenv(ENV_VAR, "trace_corrupt:1")
        graph, jobs = build_graph()
        engine = Engine(jobs=2, trace_store=tmp_path / "traces",
                        broadcast="off")
        results = engine.run(graph)
        assert not results.failures()
        assert_identical(results, reference, jobs)
        assert engine.stats.quarantined > 0
        assert (tmp_path / "traces" / "quarantine").is_dir()

    def test_structural_damage_quarantined_on_lookup(self, tmp_path):
        store = TraceStore(tmp_path)
        key = ("apache", 500, 1)
        path = store.record(key)
        path.write_bytes(b"not a trace at all")
        assert not store.has(key)
        assert store.stats.quarantined == 1
        assert list((tmp_path / "quarantine").glob("*.trace"))


class TestReplayFallbackLicense:
    """A pool worker reruns a failed job for free only when the store
    entry its walk read was damaged or has since been replaced."""

    @pytest.mark.parametrize("quarantined_before", [False, True],
                             ids=["fresh-store", "quarantined-store"])
    def test_old_quarantine_evidence_licenses_no_rerun(
        self, tmp_path, monkeypatch, quarantined_before
    ):
        graph = JobGraph()
        jobs = [
            graph.add(SimJob(
                kind="coverage", workload="db2", length=LENGTH, seed=SEED,
                system=SystemConfig.tiny(),
                prefetcher=PrefetcherSpec(kind=kind) if kind != "none"
                else None,
            ))
            for kind in PREFETCHERS
        ]
        store_dir = tmp_path / "traces"
        if quarantined_before:
            # an earlier run quarantined this key's entry
            store = TraceStore(store_dir)
            store.record(jobs[0].trace_key)
            assert store.quarantine_entry(jobs[0].trace_key, "earlier run")
        # one line per run_group call: pool workers fork after the
        # patch, so their walks count too
        walks = tmp_path / "walks.log"
        real = exec_module.run_group

        def counting(jobs, accesses, attempt=1):
            with walks.open("a") as handle:
                handle.write(f"{attempt}\n")
            return real(jobs, accesses, attempt)

        monkeypatch.setattr(exec_module, "run_group", counting)
        monkeypatch.setenv(ENV_VAR, "job_fail:1@max_attempt=1")
        engine = Engine(jobs=2, trace_store=store_dir, broadcast="off")
        results = engine.run(graph)
        assert not results.failures()
        # each job: one failed attempt, one clean retry — no free rerun
        assert sorted(walks.read_text().split()) == (
            ["1"] * len(jobs) + ["2"] * len(jobs)
        )
        assert engine.stats.retries == len(jobs)
        assert engine.stats.replay_fallbacks == 0

    @pytest.mark.parametrize("republished", [True, False],
                             ids=["republished", "quarantined-only"])
    def test_entry_replaced_by_racing_recoverer_licenses_one_rerun(
        self, tmp_path, monkeypatch, reference, republished
    ):
        _, jobs = build_graph()
        job = jobs[0]
        store_dir = tmp_path / "traces"
        path = TraceStore(store_dir).record(job.trace_key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # mid-payload: the CRC rejects it
        path.write_bytes(bytes(data))
        real = exec_module.run_group
        raced = []

        def racing(jobs, accesses, attempt=1):
            try:
                return real(jobs, accesses, attempt)
            except Exception:
                if not raced:
                    # another worker read the same damage and recovered
                    # first, before this walk's own damage check
                    raced.append(True)
                    racer = TraceStore(store_dir)
                    assert racer.quarantine_if_damaged(job.trace_key, "race")
                    if republished:
                        racer.record(job.trace_key)
                raise

        monkeypatch.setattr(exec_module, "run_group", racing)
        store = TraceStore(store_dir)
        assert run_recovering([job], store)[0][1] == reference[job.job_hash]
        assert raced
        assert store.stats.replay_fallbacks == 1
        assert store.stats.quarantined == 0  # the racer moved it


class TestCacheQuarantine:
    """Corrupt cache shards: warned, quarantined, re-executed."""

    def test_corrupt_shard_warns_and_reexecutes(
        self, tmp_path, monkeypatch, reference, capsys
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(ENV_VAR, "cache_corrupt:1")
        graph, jobs = build_graph()
        engine = Engine(jobs=1, cache_dir=cache_dir)
        assert_identical(engine.run(graph), reference, jobs)
        monkeypatch.delenv(ENV_VAR)
        # every stored shard was corrupted: the rerun must detect each,
        # warn on stderr, quarantine, and transparently re-execute
        graph2, _ = build_graph()
        engine2 = Engine(jobs=1, cache_dir=cache_dir)
        results = engine2.run(graph2)
        assert_identical(results, reference, jobs)
        assert engine2.stats.cache_hits == 0
        assert engine2.stats.executed == len(jobs)
        assert engine2.stats.cache_corrupt == len(jobs)
        assert engine2.stats.quarantined == len(jobs)
        err = capsys.readouterr().err
        assert err.count("corrupt entry") == len(jobs)
        assert len(list((cache_dir / "quarantine").glob("*.json"))) == len(jobs)
        # and the rerun repopulated the cache with good entries
        graph3, _ = build_graph()
        engine3 = Engine(jobs=1, cache_dir=cache_dir)
        engine3.run(graph3)
        assert engine3.stats.cache_hits == len(jobs)

    def test_stale_version_is_a_quiet_miss_not_corruption(
        self, tmp_path, capsys
    ):
        graph, jobs = build_graph()
        engine = Engine(jobs=1, cache_dir=tmp_path)
        engine.run(graph)
        cache = ResultCache(tmp_path)
        path = cache.path_for(jobs[0])
        document = json.loads(path.read_text())
        document["repro"] = "0.0.0-older"
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert cache.load(jobs[0]) is None
        assert cache.stats.corrupt == 0
        assert "corrupt" not in capsys.readouterr().err


class TestTimeouts:
    def test_stalled_jobs_are_killed_and_charged(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "stall:1@secs=30")
        graph, jobs = build_graph()
        policy = RetryPolicy(attempts=2, backoff=0.01, timeout=0.5)
        engine = Engine(jobs=2, retry=policy)
        results = engine.run(graph)
        failures = results.failures()
        assert len(failures) == len(jobs)
        assert all(f.error_type == "TimeoutError" for f in failures)
        assert engine.stats.timeouts > 0
        assert engine.stats.pool_respawns > 0


class TestRunnerExitCodes:
    """The CLI contract: 0 clean, 1 degraded-but-complete, 2 strict abort."""

    def _argv(self, tmp_path, *extra: str) -> "list[str]":
        return [
            "fig7", "--small", "--workloads", "apache",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(self._argv(tmp_path)) == 0
        assert "faults:" not in capsys.readouterr().err

    def test_degraded_run_exits_one(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        assert main(self._argv(tmp_path, "--retries", "2")) == 1
        err = capsys.readouterr().err
        assert "failed after 2 attempt(s)" in err
        assert "faults:" in err

    def test_recovered_degradation_also_exits_one(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.runner import main

        store = str(tmp_path / "traces")
        # run 1 records the store; the harness corrupts the published
        # entry *after* the recording walk, so the run itself is clean
        monkeypatch.setenv(ENV_VAR, "trace_corrupt:1")
        assert main(self._argv(tmp_path, "--no-cache",
                               "--trace-store", store)) == 0
        monkeypatch.delenv(ENV_VAR)
        capsys.readouterr()
        # run 2 replays the damage: it recovers fully (tables print,
        # entry quarantined + regenerated) but the exit code reports it
        assert main(self._argv(tmp_path, "--no-cache",
                               "--trace-store", store)) == 1
        assert "quarantined" in capsys.readouterr().err
        # run 3 replays the regenerated entry: clean again
        assert main(self._argv(tmp_path, "--no-cache",
                               "--trace-store", store)) == 0

    def test_strict_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv(ENV_VAR, "job_fail:1")
        argv = self._argv(tmp_path, "--retries", "2", "--strict")
        assert main(argv) == 2
        assert "strict abort" in capsys.readouterr().err


class TestLifecycle:
    def test_attempt_log_builds_failure(self):
        log = AttemptLog("hash", "label")
        log.record(ValueError("first"))
        log.record(RuntimeError("second"))
        failure = log.failure()
        assert failure.attempts == 2
        assert failure.error_type == "RuntimeError"
        assert failure.history[0] == ("ValueError", "first")
        assert "label failed after 2 attempt(s)" in failure.summary()
