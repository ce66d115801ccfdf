"""Tests for the job-graph simulation engine: hashing, dedup, caching,
parallel-vs-serial equality, and the streaming trace layer it feeds on."""

import pytest

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobGraph,
    PrefetcherSpec,
    ResultCache,
    SimJob,
    execute_job,
)
from repro.experiments import fig9
from repro.experiments.config import ExperimentConfig
from repro.sim.driver import SimulationDriver
from repro.workloads.registry import make_workload, stream_workload

LENGTH = 8_000
SEED = 11


@pytest.fixture(scope="module")
def system() -> SystemConfig:
    return SystemConfig.tiny()


def coverage_job(system, kind="none", workload="db2", **overrides) -> SimJob:
    spec = PrefetcherSpec.make(kind, **overrides) if kind != "none" else None
    return SimJob.make("coverage", workload, LENGTH, SEED, system, spec)


class TestJobHashing:
    def test_hash_is_stable_and_content_based(self, system):
        a = coverage_job(system, "stems")
        b = coverage_job(system, "stems")
        assert a is not b
        assert a.job_hash == b.job_hash

    def test_hash_distinguishes_every_field(self, system):
        base = coverage_job(system, "stems")
        assert base.job_hash != coverage_job(system, "tms").job_hash
        assert base.job_hash != coverage_job(system, "stems", workload="qry2").job_hash
        assert base.job_hash != coverage_job(system, "stems", lookahead=16).job_hash
        other_system = SystemConfig.scaled()
        assert base.job_hash != coverage_job(other_system, "stems").job_hash
        timing = SimJob.make("timing", "db2", LENGTH, SEED, system,
                             PrefetcherSpec.make("stems"))
        assert base.job_hash != timing.job_hash

    def test_override_order_is_canonical(self, system):
        a = PrefetcherSpec.make("stems", lookahead=4, rmob_entries=1024)
        b = PrefetcherSpec.make("stems", rmob_entries=1024, lookahead=4)
        assert a == b

    def test_unknown_kind_rejected(self, system):
        with pytest.raises(ValueError):
            SimJob.make("bogus", "db2", LENGTH, SEED, system)

    def test_unknown_prefetcher_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetcher kind"):
            PrefetcherSpec.make("stims")

    def test_overrides_rejected_for_unconfigurable_kinds(self):
        with pytest.raises(ValueError, match="does not take config overrides"):
            PrefetcherSpec.make("ghb", depth=8)
        # the configurable kinds still accept them
        PrefetcherSpec.make("stems", lookahead=16)


class TestJobGraph:
    def test_dedup_returns_canonical_instance(self, system):
        graph = JobGraph()
        first = graph.add(coverage_job(system))
        second = graph.add(coverage_job(system))
        assert first is second
        assert len(graph) == 1
        assert graph.requested == 2
        assert graph.deduplicated == 1

    def test_distinct_jobs_kept(self, system):
        graph = JobGraph()
        graph.add(coverage_job(system, "tms"))
        graph.add(coverage_job(system, "sms"))
        assert len(graph) == 2
        assert graph.deduplicated == 0


class TestEngineCache:
    def test_miss_then_hit(self, system, tmp_path):
        graph = JobGraph()
        job = graph.add(coverage_job(system, "stride"))
        first = Engine(cache_dir=tmp_path)
        r1 = first.run(graph)
        assert first.stats.executed == 1
        assert first.stats.cache_hits == 0

        second = Engine(cache_dir=tmp_path)
        r2 = second.run(graph)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 1
        assert r2[job] == r1[job]

    def test_no_cache_dir_always_executes(self, system):
        graph = JobGraph()
        graph.add(coverage_job(system, "stride"))
        engine = Engine()
        engine.run(graph)
        engine.run(graph)
        assert engine.stats.executed == 2

    def test_corrupt_entry_is_a_miss(self, system, tmp_path):
        graph = JobGraph()
        job = graph.add(coverage_job(system, "stride"))
        Engine(cache_dir=tmp_path).run(graph)
        cache = ResultCache(tmp_path)
        cache.path_for(job).write_text("{not json")
        engine = Engine(cache_dir=tmp_path)
        engine.run(graph)
        assert engine.stats.executed == 1

    def test_stale_package_version_is_a_miss(self, system, tmp_path):
        import json

        graph = JobGraph()
        job = graph.add(coverage_job(system, "stride"))
        Engine(cache_dir=tmp_path).run(graph)
        cache = ResultCache(tmp_path)
        path = cache.path_for(job)
        document = json.loads(path.read_text())
        document["repro"] = "0.0.0-older"
        path.write_text(json.dumps(document))
        engine = Engine(cache_dir=tmp_path)
        engine.run(graph)
        assert engine.stats.executed == 1

    def test_use_cache_false_disables(self, system, tmp_path):
        graph = JobGraph()
        graph.add(coverage_job(system, "stride"))
        Engine(cache_dir=tmp_path).run(graph)
        engine = Engine(cache_dir=tmp_path, use_cache=False)
        engine.run(graph)
        assert engine.stats.executed == 1


class TestCacheSharding:
    def test_entries_live_in_two_hex_shards(self, system, tmp_path):
        graph = JobGraph()
        job = graph.add(coverage_job(system, "stride"))
        Engine(cache_dir=tmp_path).run(graph)
        path = ResultCache(tmp_path).path_for(job)
        assert path.is_file()
        assert path.parent.name == job.job_hash[:2]
        assert path.parent.parent == tmp_path


class TestParallelEqualsSerial:
    def test_coverage_results_identical(self, system):
        graph = JobGraph()
        jobs = [
            graph.add(coverage_job(system, kind, workload=workload))
            for workload in ("db2", "qry2")
            for kind in ("none", "stride", "stems")
        ]
        serial = Engine(jobs=1).run(graph)
        parallel = Engine(jobs=2).run(graph)
        for job in jobs:
            assert parallel[job] == serial[job], job.label()

    def test_fig9_through_parallel_engine(self):
        cfg = ExperimentConfig.small()
        cfg.trace_length = LENGTH
        cfg.workloads = ["db2"]
        serial = fig9.run(cfg, engine=Engine(jobs=1))
        parallel = fig9.run(cfg, engine=Engine(jobs=2))
        assert serial == parallel

    def test_telemetry_counters_fold_identically(self, system):
        # the pool workers ship metric deltas home in their result
        # envelopes; the folded path-invariant counters must match what
        # the serial path counts in-process
        def sweep(jobs):
            graph = JobGraph()
            for workload in ("db2", "qry2"):
                for kind in ("none", "stride", "stems"):
                    graph.add(coverage_job(system, kind, workload=workload))
            engine = Engine(jobs=jobs)
            engine.run(graph)
            registry = engine.telemetry.registry
            return {**registry.counters("jobs."),
                    **registry.counters("walk.")}

        assert sweep(1) == sweep(2)


class TestExecuteJobKinds:
    def test_each_kind_returns_its_result_type(self, system):
        cfg = ExperimentConfig.small()
        cfg.trace_length = LENGTH
        cfg.seed = SEED
        cfg.system = system
        jobs = {
            "coverage": cfg.coverage_job("db2", "stride"),
            "timing": cfg.timing_job("db2", "stride"),
            "joint": cfg.joint_job("db2"),
            "repetition": cfg.repetition_job("db2"),
            "correlation": cfg.correlation_job("db2"),
        }
        results = {name: execute_job(job) for name, job in jobs.items()}
        assert results["coverage"].accesses >= LENGTH
        assert results["timing"].cycles > 0
        assert 0.99 < sum((results["joint"].both, results["joint"].tms_only,
                           results["joint"].sms_only, results["joint"].neither)) < 1.01
        all_misses, triggers = results["repetition"]
        assert all_misses.total > 0 and triggers.total > 0
        assert results["correlation"].total_pairs >= 0


class TestStreamingTraces:
    def test_stream_materialize_matches_generate(self):
        materialized = make_workload("qry2").generate(LENGTH, seed=SEED)
        source = stream_workload("qry2", LENGTH, seed=SEED)
        assert source.materialize().accesses == materialized.accesses

    def test_source_is_reiterable(self):
        source = stream_workload("qry2", LENGTH, seed=SEED)
        first = list(source)
        second = list(source)
        assert first == second

    def test_driver_accepts_streaming_source(self, system):
        trace = make_workload("db2").generate(LENGTH, seed=SEED)
        source = stream_workload("db2", LENGTH, seed=SEED)
        on_trace = SimulationDriver(system, None).run(trace)
        on_source = SimulationDriver(system, None).run(source)
        assert on_source == on_trace

    def test_memory_access_has_slots(self):
        access = make_workload("db2").generate(100, seed=1).accesses[0]
        with pytest.raises((AttributeError, TypeError)):
            access.extra = 1
