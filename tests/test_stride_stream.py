"""One Table-1 stride stream per trace key.

A walk that carries the stride engine reads a shared
:class:`~repro.sim.driver.StrideStream` instead of pairing its own
:class:`StridePrefetcher` with its main engine. Each walk must come out
exactly as the pairing through the two-engine
:class:`~repro.prefetch.composite.CompositePrefetcher` makes it, and a
group must build one engine per key and credit all of its time.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import exec as exec_module
from repro.engine.exec import (
    build_prefetcher,
    carries_stride,
    run_group,
    timing_model_for_job,
)
from repro.engine.job import KIND_TIMING
from repro.experiments.config import ExperimentConfig
from repro.kernels.prepass import iter_trace_chunks
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.sim.driver import SimulationDriver, StrideStream
from repro.workloads.registry import WORKLOAD_NAMES, stream_workload

#: the main engines a stride-carrying walk pairs with ("stride": none)
MAIN_KINDS = ("stride", "tms", "sms", "stems", "hybrid", "ghb", "markov")
WALKS = [(kind, main) for kind in ("coverage", "timing") for main in MAIN_KINDS]


def _config(workload: str, length: int, seed: int) -> ExperimentConfig:
    config = ExperimentConfig.small()
    config.trace_length = length
    config.seed = seed
    config.workloads = [workload]
    return config


def _job(config: ExperimentConfig, kind: str, main: str):
    with_stride = main != "stride"
    if kind == KIND_TIMING:
        return config.timing_job(config.workloads[0], main, with_stride)
    return config.coverage_job(config.workloads[0], main, with_stride)


def _paired(job, trace):
    """``job`` walked with a private stride engine paired with its main
    engine; returns the result and the stats the pairing leaves out."""
    stride = StridePrefetcher()
    main = build_prefetcher(job.prefetcher, job.workload)
    prefetcher = stride if main is None else CompositePrefetcher(stride, main)
    model = timing_model_for_job(job) if job.kind == KIND_TIMING else None
    coverage = SimulationDriver(job.system, prefetcher, model).run(trace)
    if model is not None:
        return model.finalize(), None
    engines = (stride,) if main is None else (main, stride)
    stats = {name: n for engine in engines for name, n in engine.stats.items()}
    return coverage, stats


class TestSharedStream:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        workload=st.sampled_from(WORKLOAD_NAMES),
        length=st.integers(min_value=1, max_value=6_000),
        seed=st.integers(min_value=0, max_value=2**16),
        walks=st.lists(st.sampled_from(WALKS), min_size=1, unique=True),
    )
    @example(workload="db2", length=6_000, seed=3, walks=WALKS)
    def test_shared_stream_walk_equals_the_pairing(
        self, workload, length, seed, walks
    ):
        config = _config(workload, length, seed)
        jobs = [_job(config, kind, main) for kind, main in walks]
        assert all(carries_stride(job) for job in jobs)
        trace = stream_workload(workload, config.trace_length, seed)
        shared = run_group(jobs, trace)
        for job, result in shared:
            expected, stats = _paired(job, trace)
            if stats is not None:
                assert result.prefetcher_stats == stats, job.label()
                result = replace(
                    result, prefetcher_stats=expected.prefetcher_stats
                )
            assert result == expected, job.label()

    def test_stride_only_stats_are_the_predictions(self):
        config = _config("em3d", 4_000, 5)
        job = config.coverage_job("em3d", "stride")
        (_, result), = run_group([job], stream_workload("em3d", 4_000, 5))
        assert result.prefetcher == "stride"
        assert set(result.prefetcher_stats) == {"predictions"}
        assert result.prefetcher_stats["predictions"] > 0


class TestGroup:
    def fig10_jobs(self):
        config = ExperimentConfig.small()
        config.trace_length = 6_000
        config.workloads = ["db2"]
        return [config.timing_job("db2", "stride")] + [
            config.timing_job("db2", kind, with_stride=True)
            for kind in ("tms", "sms", "stems")
        ]

    def test_one_stride_engine_per_key(self, monkeypatch):
        built = []
        init = StridePrefetcher.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StridePrefetcher, "__init__", counting)
        jobs = self.fig10_jobs()
        run_group(jobs, stream_workload("db2", 6_000, jobs[0].seed))
        assert len(built) == 1

    def test_seconds_sum_to_the_walk(self, monkeypatch):
        """With every clock read one tick apart, each walker update, the
        stream's finish and each finalize cost one tick: the group's
        seconds must add up to the stream's and the members' ticks, none
        lost or counted twice."""
        ticks = iter(range(10**6))
        monkeypatch.setattr(
            exec_module, "time",
            SimpleNamespace(perf_counter=lambda: float(next(ticks))),
        )
        jobs = self.fig10_jobs()
        trace = stream_workload("db2", 6_000, jobs[0].seed)
        chunks = sum(1 for _ in iter_trace_chunks(trace))
        run = run_group(jobs, trace)
        stream = chunks + 1  # its steps and its finish
        assert sum(run.seconds) == pytest.approx(
            stream + len(jobs) * (chunks + 1)
        )
        # the stream's ticks are split evenly across its four members
        assert run.seconds == pytest.approx(
            [stream / len(jobs) + chunks + 1] * len(jobs)
        )


def test_private_stream_matches_per_record_steps():
    """A solo walk's private stream: chunked and per-record steps agree."""
    config = _config("qry2", 5_000, 11)
    job = config.coverage_job("qry2", "sms", with_stride=True)
    source = stream_workload("qry2", 5_000, 11)
    bits = job.system.address_map.block_bits

    def driver():
        return SimulationDriver(
            job.system, build_prefetcher(job.prefetcher, job.workload),
            stride=True,
        )

    walk = driver().start("qry2")
    for access in source:
        walk.step(access, access.address >> bits)
    assert walk.finish() == driver().run(source)


def test_stream_records_each_access_requests():
    system = ExperimentConfig.small().system
    trace = list(stream_workload("em3d", 3_000, 2))
    stream = StrideStream(system)
    chunked = []
    for chunk in iter_trace_chunks(trace):
        stream.step_chunk(chunk)
        assert len(stream.requests) == len(chunk.accesses)
        chunked += stream.requests
    reference = StrideStream(system)
    bits = system.address_map.block_bits
    assert chunked == [
        reference.step(access, access.address >> bits) for access in trace
    ]
    assert any(chunked) and not all(chunked)
