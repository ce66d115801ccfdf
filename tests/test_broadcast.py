"""Broadcast plane tests (:mod:`repro.tracestore.broadcast`).

The anchor invariant: under ``--jobs N`` with a trace store, jobs
sharing a trace key consume ONE reader process's walk over a
shared-memory ring — and the results are **bit-identical** to
independent replay (``--broadcast off``) in every scenario: healthy
runs, ring wraparound and slow-consumer backpressure, reader death
mid-stream (consumers degrade to replay), injected worker crashes and
trace corruption, and kill/interrupt → ``--resume``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.engine import Engine, JobGraph, RetryPolicy
from repro.engine.faultinject import ENV_VAR as FAULT_ENV, KILL_EXIT_CODE
from repro.experiments import fig9, fig10
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS
from repro.kernels import CHUNK_RECORDS
from repro.tracestore import TraceStore, read_accesses
from repro.tracestore.broadcast import (
    ENV_VAR as BROADCAST_ENV,
    KIND_DATA,
    KIND_DONE,
    MODE_AUTO,
    ChunkCursor,
    ChunkRing,
    replay_fallback,
    resolve_broadcast,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: 2 full chunks + a partial third: exercises multi-slot streams
LENGTH = 2 * CHUNK_RECORDS + 1_808
KEY = ("db2", LENGTH, 7)


@pytest.fixture(autouse=True)
def _no_ambient_overrides(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)
    monkeypatch.delenv(BROADCAST_ENV, raising=False)


# -- mode resolution ----------------------------------------------------------


class TestResolveBroadcast:
    def test_default_is_auto(self):
        assert resolve_broadcast(None) == MODE_AUTO

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BROADCAST_ENV, "off")
        assert resolve_broadcast("on") == "on"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv(BROADCAST_ENV, "off")
        assert resolve_broadcast(None) == "off"

    @pytest.mark.parametrize("bad", ["turbo", "ON AIR", "1"])
    def test_unknown_mode_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_broadcast(bad)

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Engine(broadcast="bogus")


# -- the ring itself (threads stand in for processes) -------------------------


def _payloads(count: int, size: int = 1_000) -> "list[bytes]":
    return [bytes([i % 251]) * (size + i) for i in range(count)]


def _drain(consumer) -> "tuple[list[bytes], int]":
    """Consume until DONE; returns (payloads, done_record_count)."""
    got = []
    while True:
        kind, first_record, payload, crc = consumer.next_item()
        if kind == KIND_DONE:
            return got, first_record
        assert kind == KIND_DATA
        assert zlib.crc32(payload) == crc
        got.append(payload)


class TestChunkRing:
    def test_wraparound_delivers_in_order_to_every_consumer(self):
        payloads = _payloads(20)  # 20 chunks through a 4-slot ring
        ring = ChunkRing(consumers=3, slots=4, slot_payload=2_000)
        received = {}

        def consume(index, delay):
            consumer = ring.consumer(index)
            got = []
            while True:
                kind, first, payload, crc = consumer.next_item()
                if kind == KIND_DONE:
                    received[index] = (got, first)
                    return
                assert zlib.crc32(payload) == crc
                got.append((first, payload))
                time.sleep(delay)

        threads = [
            threading.Thread(target=consume, args=(i, delay))
            for i, delay in enumerate([0.0, 0.002, 0.01])  # one slow
        ]
        for thread in threads:
            thread.start()
        producer = ring.producer()
        for i, payload in enumerate(payloads):
            assert producer.send(i * 10, payload, zlib.crc32(payload))
        producer.finish(12_345)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        ring.close()
        expected = [(i * 10, p) for i, p in enumerate(payloads)]
        for index in range(3):
            got, done_count = received[index]
            assert got == expected, f"consumer {index} saw a torn stream"
            assert done_count == 12_345

    def test_slow_consumer_exerts_backpressure(self):
        ring = ChunkRing(consumers=1, slots=4, slot_payload=2_000)
        payloads = _payloads(7)
        producer = ring.producer()
        sent = []

        def produce():
            for i, payload in enumerate(payloads):
                producer.send(i, payload, zlib.crc32(payload))
                sent.append(i)
            producer.finish(len(payloads))

        thread = threading.Thread(target=produce)
        thread.start()
        deadline = time.monotonic() + 10
        while len(sent) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        # nobody is consuming: the producer must stall at ring capacity
        # instead of overwriting slots the consumer still needs
        assert len(sent) == 4
        got, done_count = _drain(ring.consumer(0))
        thread.join(timeout=10)
        assert len(sent) == len(payloads)
        assert got == payloads
        assert done_count == len(payloads)
        ring.close()

    def test_detached_consumer_never_blocks_the_producer(self):
        ring = ChunkRing(consumers=2, slots=2, slot_payload=2_000)
        payloads = _payloads(6)
        ring.detach(1)  # consumer 1 is dead before the stream starts
        producer = ring.producer()
        received = {}
        thread = threading.Thread(
            target=lambda: received.update({0: _drain(ring.consumer(0))})
        )
        thread.start()
        for i, payload in enumerate(payloads):
            assert producer.send(i, payload, zlib.crc32(payload))
        producer.finish(len(payloads))
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert received[0][0] == payloads
        ring.close()


# -- the cursor's degrade ladder ---------------------------------------------


class TestChunkCursor:
    def test_aborted_stream_degrades_to_replay(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.record(KEY)
        expected = list(read_accesses(store.path_for(KEY)))

        ring = ChunkRing(consumers=1, slots=4)
        producer = ring.producer()
        producer.fail()  # the reader died before sending anything
        cursor = ChunkCursor(
            ring.consumer(0), replay_fallback(str(tmp_path / "store"), KEY)
        )
        assert [
            access for chunk in cursor.iter_chunks() for access in chunk
        ] == expected
        assert cursor.degraded and cursor.complete
        assert cursor.accounting() == {
            "broadcast_chunks": 0, "bytes_shared": 0, "broadcast_fallbacks": 1,
        }
        ring.close()

    def test_cold_fallback_regenerates_from_cursor_position(self, tmp_path):
        # no stored entry at all: the fallback regenerates and skips
        # the records the cursor already consumed
        fallback = replay_fallback(str(tmp_path / "empty"), KEY)
        from repro.workloads.registry import stream_workload

        expected = [a for a in stream_workload(*KEY) if a.index >= 5_000]
        got = [a for chunk in fallback(5_000) for a in chunk.accesses]
        assert got == expected
        assert fallback.stats["generated"] == 1


# -- chunk-index metadata without payload decode ------------------------------


class TestOpenEntry:
    def test_spans_cover_the_entry(self, tmp_path):
        store = TraceStore(tmp_path)
        store.record(KEY)
        info = store.open_entry(KEY)
        count = sum(1 for _ in read_accesses(store.path_for(KEY)))
        assert info.record_count == count
        assert info.chunk_count == (count + CHUNK_RECORDS - 1) // CHUNK_RECORDS
        spans = info.record_spans()
        assert spans[0] == (0, CHUNK_RECORDS)
        assert spans[-1][1] == count
        # spans tile the record range exactly
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_missing_key_raises(self, tmp_path):
        from repro.tracestore import TraceFormatError

        with pytest.raises(TraceFormatError):
            TraceStore(tmp_path).open_entry(KEY)


# -- engine integration: the one-walk cost model ------------------------------


def _config() -> ExperimentConfig:
    config = ExperimentConfig.small()
    config.trace_length = 6_000
    config.workloads = ["db2", "qry2"]
    return config


def _declare() -> JobGraph:
    graph = JobGraph()
    config = _config()
    fig9.declare(config, graph)
    fig10.declare(config, graph)
    return graph


def _sweep(store, jobs, broadcast, **engine_kwargs):
    engine = Engine(jobs=jobs, trace_store=store, broadcast=broadcast,
                    **engine_kwargs)
    return dict(engine.run(_declare())), engine.stats


class TestBroadcastSweep:
    def test_warm_sweep_walks_each_key_exactly_once(self, tmp_path):
        store = tmp_path / "store"
        off, _ = _sweep(store, 4, "off")  # also warms the store
        on, stats = _sweep(store, 4, "on")
        assert on == off
        jobs = list(_declare())
        keys = {job.trace_key for job in jobs}
        assert stats.generation_passes == 0
        assert stats.store_hits == len(keys)  # ONE walk per key
        assert stats.broadcast_waves == len(keys)
        assert stats.passes_saved == len(jobs)
        assert stats.broadcast_chunks > 0 and stats.bytes_shared > 0
        assert stats.broadcast_fallbacks == 0
        assert not stats.degraded

    def test_cold_sweep_costs_one_generation_per_key(self, tmp_path):
        off, _ = _sweep(tmp_path / "off", 4, "off")
        on, stats = _sweep(tmp_path / "on", 4, "on")
        assert on == off
        keys = {job.trace_key for job in _declare()}
        assert stats.generation_passes == len(keys)
        assert stats.store_hits == 0
        assert stats.broadcast_waves == len(keys)

    def test_telemetry_counters_broadcast_equals_off(self, tmp_path):
        # the bundle consumers ship one metrics delta per bundle; the
        # folded path-invariant counters must match independent replay
        def invariant(store, broadcast):
            engine = Engine(jobs=4, trace_store=store, broadcast=broadcast)
            engine.run(_declare())
            registry = engine.telemetry.registry
            return engine, {**registry.counters("jobs."),
                            **registry.counters("walk.")}

        _, off = invariant(tmp_path / "off", "off")
        engine, on = invariant(tmp_path / "on", "on")
        assert on == off
        # the ring-wait accounting came home in the consumer envelopes
        assert engine.telemetry.registry.counter(
            "broadcast.ring_wait_seconds"
        ) > 0

    def test_reader_death_degrades_bit_identically(self, tmp_path,
                                                   monkeypatch):
        store = tmp_path / "store"
        off, _ = _sweep(store, 2, "off")
        monkeypatch.setenv(FAULT_ENV, "reader_kill@after=1")
        on, stats = _sweep(store, 2, "on")
        assert on == off
        assert stats.broadcast_fallbacks > 0
        assert stats.degraded
        assert not any(
            hasattr(v, "summary") for v in on.values()
        ), "reader death must never fail a job"

    def test_worker_crash_under_broadcast(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        off, _ = _sweep(store, 2, "off")
        monkeypatch.setenv(
            FAULT_ENV, "worker_crash:0.5@seed=3@max_attempt=1"
        )
        on, stats = _sweep(
            store, 2, "on", retry=RetryPolicy(attempts=3, backoff=0.01)
        )
        assert on == off
        assert stats.retries > 0 or stats.requeued > 0

    def test_trace_corrupt_under_broadcast(self, tmp_path, monkeypatch):
        clean, _ = _sweep(tmp_path / "clean", 2, "off")
        monkeypatch.setenv(FAULT_ENV, "trace_corrupt:1")
        retry = RetryPolicy(attempts=4, backoff=0.01)
        # cold run: readers record during the walk; the published
        # entries are damaged *after* the clean stream was broadcast
        first, _ = _sweep(tmp_path / "store", 2, "on", retry=retry)
        assert first == clean
        # warm run over the damaged store: the reader's pre-broadcast
        # CRC check aborts the wave, the entry is quarantined, and
        # consumers converge through fallback regeneration
        second, stats = _sweep(tmp_path / "store", 2, "on", retry=retry)
        assert second == clean
        assert stats.degraded


class TestParityEveryExperiment:
    """All nine experiments, broadcast vs independent replay."""

    @pytest.fixture(scope="class")
    def shared_store(self, tmp_path_factory):
        # one warm store for every case: the first run records, the
        # rest replay/broadcast the same entries
        return str(tmp_path_factory.mktemp("broadcast-store"))

    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiment_parity(self, name, jobs, shared_store):
        module = EXPERIMENTS[name]
        config = _config()
        off = module.run(config, engine=Engine(
            jobs=jobs, trace_store=shared_store, broadcast="off"
        ))
        on = module.run(config, engine=Engine(
            jobs=jobs, trace_store=shared_store, broadcast="on"
        ))
        assert on == off


# -- durable runs with broadcast active ---------------------------------------


def _runner_env(**extra: str) -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    env.pop(BROADCAST_ENV, None)
    env.update(extra)
    return env


def _sweep_args(tmp_path: Path, cache: str) -> "list[str]":
    return [
        sys.executable, "-m", "repro.experiments", "fig9", "--small",
        "--workloads", "apache", "em3d", "--length", "2000",
        "--jobs", "2", "--broadcast", "on",
        "--cache-dir", str(tmp_path / cache),
        "--trace-store", str(tmp_path / "traces"),
    ]


def _wait_for_journal(cache_dir: Path, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if list((cache_dir / "runs").glob("*/journal.jsonl")):
            return
        time.sleep(0.05)
    raise AssertionError("runner never created a journal")


class TestBroadcastDurability:
    def _baseline(self, tmp_path: Path) -> bytes:
        clean = subprocess.run(
            _sweep_args(tmp_path, "clean-cache") + [
                "--export", "json",
                "--export-dir", str(tmp_path / "clean-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stderr
        return (tmp_path / "clean-out" / "fig9.json").read_bytes()

    def test_kill_then_resume_is_bit_identical(self, tmp_path):
        baseline = self._baseline(tmp_path)
        # pre-warm half the sweep so the kill lands on a run with prior
        # durable state (cache-sourced completions on resume)
        warm = subprocess.run(
            [a if a != "em3d" else "apache"
             for a in _sweep_args(tmp_path, "cache")],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert warm.returncode == 0, warm.stderr
        killed = subprocess.run(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{FAULT_ENV: "kill_at_job@index=2"}),
            capture_output=True, text=True,
        )
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        resumed = subprocess.run(
            _sweep_args(tmp_path, "cache") + [
                "--resume", "last",
                "--export", "json",
                "--export-dir", str(tmp_path / "resume-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        recovered = (tmp_path / "resume-out" / "fig9.json").read_bytes()
        assert recovered == baseline

    def test_sigint_mid_wave_resumes_bit_identically(self, tmp_path):
        baseline = self._baseline(tmp_path)
        # stall every consumer so the SIGINT lands mid-wave, with the
        # reader and consumer processes alive
        proc = subprocess.Popen(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{FAULT_ENV: "stall:1@secs=1"}),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        _wait_for_journal(tmp_path / "cache")
        time.sleep(0.6)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=120)[1]
        assert proc.returncode == 3, stderr
        resumed = subprocess.run(
            _sweep_args(tmp_path, "cache") + [
                "--resume", "last",
                "--export", "json",
                "--export-dir", str(tmp_path / "resume-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        recovered = (tmp_path / "resume-out" / "fig9.json").read_bytes()
        assert recovered == baseline
