"""Tests for the trace plane: binary codec, sharded store, and the
engine's multi-consumer fan-out / replay scheduling built on top of it."""

import os
import subprocess
import sys

import pytest

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobGraph,
    PrefetcherSpec,
    SimJob,
    execute_job,
    run_group,
)
from repro.trace.events import MemoryAccess
from repro.tracestore import (
    TraceFormatError,
    TraceStore,
    read_accesses,
    read_header,
    trace_key_hash,
    write_trace,
)
from repro.tracestore.codec import FOOTER_SIZE, RECORD_SIZE
from repro.workloads import registry
from repro.workloads.registry import (
    generator_fingerprint,
    make_workload,
    stream_workload,
)

LENGTH = 6_000
SEED = 11
KEY = ("db2", LENGTH, SEED)


@pytest.fixture(scope="module")
def system() -> SystemConfig:
    return SystemConfig.tiny()


@pytest.fixture(scope="module")
def generated():
    return list(stream_workload(*KEY))


class TestCodec:
    def test_round_trip_equality(self, tmp_path, generated):
        path = tmp_path / "t.trace"
        count, size = write_trace(path, {"name": "db2"}, iter(generated))
        assert count == len(generated)
        assert size == path.stat().st_size
        assert list(read_accesses(path)) == generated

    def test_round_trip_preserves_every_field(self, tmp_path):
        accesses = [
            MemoryAccess(index=0, pc=0x1234, address=7 << 40, is_write=False,
                         depends_on=None, instr_gap=1),
            MemoryAccess(index=1, pc=2**40, address=0, is_write=True,
                         depends_on=0, instr_gap=250),
        ]
        path = tmp_path / "t.trace"
        write_trace(path, {}, iter(accesses))
        assert list(read_accesses(path)) == accesses

    def test_header_survives(self, tmp_path, generated):
        path = tmp_path / "t.trace"
        header = {"name": "db2", "seed": SEED, "metadata": {"x": [1, 2]}}
        write_trace(path, header, iter(generated[:10]))
        assert read_header(path) == header

    def test_non_consecutive_indices_rejected(self, tmp_path, generated):
        with pytest.raises(ValueError, match="does not continue"):
            write_trace(tmp_path / "t.trace", {}, iter(generated[1:]))

    def test_truncated_file_rejected(self, tmp_path, generated):
        path = tmp_path / "t.trace"
        write_trace(path, {}, iter(generated[:100]))
        data = path.read_bytes()
        for cut in (len(data) - 1, len(data) - FOOTER_SIZE, 10, 3):
            path.write_bytes(data[:cut])
            with pytest.raises(TraceFormatError):
                read_header(path)

    def test_corrupt_payload_rejected_by_crc(self, tmp_path, generated):
        path = tmp_path / "t.trace"
        write_trace(path, {"name": "db2"}, iter(generated[:100]))
        data = bytearray(path.read_bytes())
        offset = len(data) - FOOTER_SIZE - 50 * RECORD_SIZE  # mid-payload
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        read_header(path)  # framing is intact...
        with pytest.raises(TraceFormatError, match="CRC"):
            list(read_accesses(path))  # ...but the payload is not

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(TraceFormatError, match="not a trace file"):
            read_header(path)


class TestTraceStore:
    def test_record_then_replay_matches_generation(self, tmp_path, generated):
        store = TraceStore(tmp_path)
        assert not store.has(KEY)
        store.record(KEY)
        assert store.has(KEY)
        assert list(store.open_source(KEY)) == generated
        assert store.stats.generated == 1 and store.stats.hits == 1

    def test_sharded_layout_and_key_hash(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = trace_key_hash(*KEY)
        path = store.path_for(KEY)
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.trace"
        assert trace_key_hash("db2", LENGTH, SEED + 1) != digest

    def test_edited_generator_misses_the_store(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        key = ("em3d", 2_000, SEED)
        store.record(key)
        original = registry.GraphTraversalComponent

        def fewer_nodes(**kwargs):
            return original(**dict(kwargs, num_nodes=3_000))

        with monkeypatch.context() as patch:
            patch.setattr(registry, "GraphTraversalComponent", fewer_nodes)
            generator_fingerprint.cache_clear()
            try:
                assert not store.has(key)  # no stale replay of the old graph
            finally:
                generator_fingerprint.cache_clear()
        assert store.has(key)  # the unedited generator still hits

    def test_generator_fingerprint_is_stable_across_processes(self):
        code = (
            "from repro.workloads.registry import generator_fingerprint; "
            "print(generator_fingerprint('em3d'))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": "123"},
        )
        assert child.stdout.strip() == generator_fingerprint("em3d")

    def test_record_during_walk_publishes_after_full_pass(
        self, tmp_path, generated
    ):
        store = TraceStore(tmp_path)
        source = store.source(KEY)
        walked = list(source)
        assert walked == generated
        assert store.has(KEY)
        # the same source object switches to replay on its next pass
        hits_before = store.stats.hits
        assert list(source) == generated
        assert store.stats.hits == hits_before + 1
        assert store.stats.bytes_replayed > 0

    def test_abandoned_walk_leaves_no_entry(self, tmp_path):
        store = TraceStore(tmp_path)
        iterator = iter(store.source(KEY))
        for _ in range(10):
            next(iterator)
        iterator.close()
        assert not store.has(KEY)

    def test_corrupt_entry_treated_as_missing_and_rerecorded(
        self, tmp_path, generated
    ):
        store = TraceStore(tmp_path)
        store.record(KEY)
        path = store.path_for(KEY)
        path.write_bytes(path.read_bytes()[:-4])
        assert not store.has(KEY)
        assert list(store.source(KEY)) == generated  # re-records
        assert store.has(KEY)

    def test_replay_preserves_source_metadata(self, tmp_path):
        store = TraceStore(tmp_path)
        store.record(KEY)
        template = stream_workload(*KEY)
        replay = store.open_source(KEY)
        assert replay.name == template.name
        assert replay.category == template.category
        assert replay.metadata == template.metadata
        assert replay.length_hint == LENGTH

    def test_catalog_lists_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        store.record(KEY)
        store.record(("qry2", 2_000, 5))
        workloads = sorted(entry["workload"] for entry in store.catalog())
        assert workloads == ["db2", "qry2"]


def _sweep_graph(system):
    """Several jobs of mixed kinds over one shared trace key + one extra."""
    graph = JobGraph()
    jobs = []
    for kind in ("none", "stride", "stems"):
        spec = PrefetcherSpec.make(kind) if kind != "none" else None
        jobs.append(graph.add(SimJob.make("coverage", *KEY, system, spec)))
    jobs.append(graph.add(SimJob.make(
        "timing", *KEY, system, PrefetcherSpec.make("stride"),
        warmup_fraction=0.4,
    )))
    jobs.append(graph.add(SimJob.make("joint", *KEY, system,
                                      skip_fraction=0.3)))
    jobs.append(graph.add(SimJob.make("correlation", *KEY, system)))
    jobs.append(graph.add(SimJob.make("coverage", "qry2", LENGTH, SEED,
                                      system, PrefetcherSpec.make("sms"))))
    return graph, jobs


class TestFanOutParity:
    """Fan-out and store replay must be bit-identical to per-job runs."""

    @pytest.fixture(scope="class")
    def solo(self, system):
        graph, jobs = _sweep_graph(system)
        return {job.job_hash: execute_job(job) for job in jobs}

    def test_run_group_matches_solo(self, system, solo):
        graph, jobs = _sweep_graph(system)
        shared = [job for job in jobs if job.trace_key == KEY]
        for job, result in run_group(shared, stream_workload(*KEY)):
            assert result == solo[job.job_hash], job.label()

    def test_serial_engine_fans_out_one_generation_per_key(
        self, system, solo
    ):
        graph, jobs = _sweep_graph(system)
        engine = Engine()
        results = engine.run(graph)
        for job in jobs:
            assert results[job] == solo[job.job_hash], job.label()
        # 7 jobs on one key + 1 on another: exactly 2 generation passes
        assert engine.stats.generation_passes == 2
        assert engine.stats.passes_saved == len(jobs) - 2

    def test_store_replay_serial_matches_solo(self, system, solo, tmp_path):
        graph, jobs = _sweep_graph(system)
        first = Engine(trace_store=tmp_path)
        results = first.run(graph)
        for job in jobs:
            assert results[job] == solo[job.job_hash], job.label()
        assert first.stats.generation_passes == 2
        assert first.stats.store_misses == 2

        second = Engine(trace_store=tmp_path)
        replayed = second.run(_sweep_graph(system)[0])
        for job in jobs:
            assert replayed[job] == solo[job.job_hash], job.label()
        assert second.stats.generation_passes == 0
        assert second.stats.store_hits == 2
        assert second.stats.bytes_replayed > 0

    def test_store_replay_parallel_matches_solo(self, system, solo, tmp_path):
        graph, jobs = _sweep_graph(system)
        # pin the pool replay path: under broadcast (the default) wave
        # consumers are fed from shared memory instead of replaying, so
        # the per-job store-hit accounting below would not apply —
        # tests/test_broadcast.py asserts that plane's cost model
        engine = Engine(jobs=2, trace_store=tmp_path, broadcast="off")
        results = engine.run(graph)
        for job in jobs:
            assert results[job] == solo[job.job_hash], job.label()
        # at most one generation per key; every executed job replays
        assert engine.stats.generation_passes == 2
        assert engine.stats.store_hits == len(jobs)

    def test_parallel_without_store_still_matches(self, system, solo):
        graph, jobs = _sweep_graph(system)
        results = Engine(jobs=2).run(graph)
        for job in jobs:
            assert results[job] == solo[job.job_hash], job.label()


class TestPoolWorkerStats:
    def test_worker_reports_replay_delta(self, system, tmp_path):
        from repro.engine.exec import execute_job_for_pool

        store = TraceStore(tmp_path)
        store.record(KEY)
        job = SimJob.make("coverage", *KEY, system,
                          PrefetcherSpec.make("stride"))
        job_hash, result, delta = execute_job_for_pool(
            job, trace_store_dir=tmp_path
        )
        assert job_hash == job.job_hash
        assert result == execute_job(job)
        assert delta["hits"] == 1 and delta["generated"] == 0
        assert delta["bytes_replayed"] > 0
