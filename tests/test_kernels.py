"""Tests for the trace walk's chunk layer (:mod:`repro.kernels`): chunked
codec decode, the block-id pre-pass, and every experiment's chunk walk
against a reference loop that feeds each trace one access at a time."""

import pytest

from repro.engine import Engine, JobGraph
from repro.engine.exec import (
    analysis_for_job,
    build_prefetcher,
    carries_stride,
    timing_model_for_job,
)
from repro.engine.faultinject import ENV_VAR as FAULT_ENV
from repro.engine.job import KIND_COVERAGE, KIND_TIMING
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS
from repro.kernels import CHUNK_RECORDS
from repro.kernels.prepass import (
    AccessChunk,
    chunk_accesses,
    iter_trace_chunks,
)
from repro.sim.driver import SimulationDriver
from repro.trace.container import TraceSource
from repro.trace.events import MemoryAccess
from repro.tracestore import TraceFormatError, write_trace, read_accesses
from repro.tracestore.codec import (
    FOOTER_SIZE,
    RECORD_SIZE,
    _read_layout,
    read_access_chunks,
    read_chunk_index,
)
from repro.workloads.registry import stream_workload

#: 2 full chunks + a torn final chunk (the generator overshoots the
#: requested length by a few records; tests measure the actual count)
LENGTH = 2 * CHUNK_RECORDS + 1_808
KEY = ("db2", LENGTH, 7)


def _flip_payload_byte(trace_path, out_path, payload_offset):
    """Copy the trace with one payload byte flipped (offsets are relative
    to the payload start, like ``ChunkIndexEntry.byte_offset``)."""
    raw = bytearray(trace_path.read_bytes())
    raw[_read_layout(trace_path).payload_start + payload_offset] ^= 0x01
    out_path.write_bytes(bytes(raw))
    return out_path


@pytest.fixture(scope="module")
def generated():
    return list(stream_workload(*KEY))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory, generated):
    path = tmp_path_factory.mktemp("kernels") / "t.trace"
    write_trace(path, {"name": "db2"}, iter(generated))
    return path


@pytest.fixture(autouse=True)
def _no_ambient_injection(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)


def _concat(chunks):
    out = []
    for chunk in chunks:
        out.extend(chunk.accesses)
    return out


class TestChunkDecode:
    def test_round_trip_matches_scalar_and_source(self, trace_path, generated):
        chunks = list(read_access_chunks(trace_path))
        assert [len(c.accesses) for c in chunks] == [
            CHUNK_RECORDS, CHUNK_RECORDS, len(generated) - 2 * CHUNK_RECORDS
        ]
        assert [c.start_index for c in chunks] == [
            0, CHUNK_RECORDS, 2 * CHUNK_RECORDS
        ]
        decoded = _concat(chunks)
        assert decoded == generated
        assert decoded == list(read_accesses(trace_path))

    @pytest.mark.parametrize(
        "start", [1, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1,
                  LENGTH - 1, LENGTH + 10]
    )
    def test_windowed_replay_matches_slice(self, trace_path, generated, start):
        assert _concat(read_access_chunks(trace_path, start)) == generated[start:]
        assert list(read_accesses(trace_path, start)) == generated[start:]

    def test_chunk_index_arithmetic(self, trace_path):
        entries = read_chunk_index(trace_path)
        assert len(entries) == 3
        for i, entry in enumerate(entries):
            assert entry.record_index == i * CHUNK_RECORDS
        deltas = [
            b.byte_offset - a.byte_offset
            for a, b in zip(entries, entries[1:])
        ]
        assert deltas == [CHUNK_RECORDS * RECORD_SIZE] * 2

    def test_payload_corruption_detected(self, trace_path, generated, tmp_path):
        entries = read_chunk_index(trace_path)
        # flip a record byte inside the first chunk
        corrupt = _flip_payload_byte(
            trace_path, tmp_path / "corrupt.trace",
            entries[0].byte_offset + 100,
        )
        # full replay: rolling payload CRC catches it
        with pytest.raises(TraceFormatError):
            list(read_accesses(corrupt))
        # windowed replay into the damaged chunk: per-chunk CRC catches it
        with pytest.raises(TraceFormatError):
            _concat(read_access_chunks(corrupt, 10))
        # windowed replay past the damaged chunk never touches it
        assert _concat(
            read_access_chunks(corrupt, CHUNK_RECORDS)
        ) == generated[CHUNK_RECORDS:]

    def test_torn_final_chunk_corruption_detected(self, trace_path, tmp_path):
        entries = read_chunk_index(trace_path)
        corrupt = _flip_payload_byte(
            trace_path, tmp_path / "torn.trace", entries[-1].byte_offset + 5
        )
        with pytest.raises(TraceFormatError):
            list(read_accesses(corrupt))
        with pytest.raises(TraceFormatError):
            _concat(read_access_chunks(corrupt, 2 * CHUNK_RECORDS + 3))

    def test_truncation_detected(self, trace_path, tmp_path):
        torn = tmp_path / "trunc.trace"
        torn.write_bytes(trace_path.read_bytes()[:-FOOTER_SIZE - 7])
        with pytest.raises(TraceFormatError):
            list(read_accesses(torn))


class TestPrepass:
    def _accesses(self):
        return [
            MemoryAccess(index=i, pc=100 + i, address=addr,
                         is_write=bool(i % 3 == 0))
            for i, addr in enumerate([0, 64, 2048, 4096, 2112, 65, 1 << 33])
        ]

    def test_derived_columns_match_per_record_reference(self, trace_path):
        accesses = self._accesses()
        chunk = AccessChunk(accesses)
        assert chunk.blocks_for(6) == [a.address >> 6 for a in accesses]
        # a decoded chunk shifts its numpy address column instead
        decoded = next(read_access_chunks(trace_path))
        assert decoded.blocks_for(6) == [
            a.address >> 6 for a in decoded.accesses
        ]

    def test_derived_columns_cached(self):
        chunk = AccessChunk(self._accesses())
        assert chunk.blocks_for(6) is chunk.blocks_for(6)
        # a different geometry recomputes rather than serving stale data
        assert chunk.blocks_for(7) == [a.address >> 7 for a in chunk.accesses]

    def test_chunk_accesses_batches_and_indexes(self, generated):
        chunks = list(chunk_accesses(iter(generated), chunk_records=1000))
        assert [c.start_index for c in chunks][:3] == [0, 1000, 2000]
        assert _concat(chunks) == generated

    def test_iter_trace_chunks_prefers_native_chunks(
        self, trace_path, generated
    ):
        source = TraceSource(
            "db2", factory=lambda: iter(generated),
            chunk_factory=lambda: read_access_chunks(trace_path),
        )
        native = list(iter_trace_chunks(source))
        assert _concat(native) == generated
        assert native[0]._addresses is not None  # decoded, not batched
        # plain iterables go through the generic batcher
        assert _concat(iter_trace_chunks(iter(generated))) == generated


def _parity_config():
    config = ExperimentConfig.small()
    config.trace_length = 6_000
    config.workloads = ["db2", "qry2"]
    return config


def _walk_per_record(job, accesses):
    """The reference: ``job`` fed one access at a time through the
    per-access entry points, no chunks."""
    if job.kind in (KIND_COVERAGE, KIND_TIMING):
        model = timing_model_for_job(job) if job.kind == KIND_TIMING else None
        walk = SimulationDriver(
            job.system, build_prefetcher(job.prefetcher, job.workload),
            service_consumer=model, stride=carries_stride(job),
        ).start(job.workload)
        block_bits = job.system.address_map.block_bits
        for access in accesses:
            walk.step(access, access.address >> block_bits)
        coverage = walk.finish()
        return coverage if model is None else model.finalize()
    analysis = analysis_for_job(job)
    for access in accesses:
        analysis.update(access)
    return analysis.finalize()


@pytest.fixture(scope="module")
def walked():
    """Every experiment in one graph, run by the engine, and every job
    of it run again by the per-record reference."""
    config = _parity_config()
    graph = JobGraph()
    for module in EXPERIMENTS.values():
        module.declare(config, graph)
    results = Engine().run(graph)
    traces = {}
    reference = {}
    for job in graph:
        if job.trace_key not in traces:
            traces[job.trace_key] = list(stream_workload(*job.trace_key))
        reference[job.job_hash] = _walk_per_record(job, traces[job.trace_key])
    return config, results, reference


class TestParity:
    """The chunk walk is bit-identical to feeding one access at a time."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_serial(self, walked, name):
        config, results, reference = walked
        graph = JobGraph()
        EXPERIMENTS[name].declare(config, graph)
        for job in graph:
            assert results[job] == reference[job.job_hash], job.label()
