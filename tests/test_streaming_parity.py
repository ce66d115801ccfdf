"""The streaming contract and the analysis lifecycle.

Every experiment's results are bit-identical whether jobs walk traces
generated on the fly (chunks batched from the generator) or replayed
from a trace store (chunks decoded from the stored columns). Jobs walk
a lazy ``TraceSource`` and must never materialize it; the incremental
consumers enforce their ``update()``/``finalize()`` lifecycle, and the
timing model's state stays bounded as traces grow. The chunk walk's
parity with a per-access walk is asserted for every experiment in
``tests/test_kernels.py``.
"""

import pytest

from repro.analysis import (
    CorrelationDistanceAnalysis,
    JointPredictabilityAnalysis,
    MissSequenceExtractor,
    RepetitionAnalysis,
    Sequitur,
)
from repro.analysis.base import StreamingAnalysis
from repro.common.config import SystemConfig
from repro.engine import Engine, JobGraph, execute_job
from repro.engine.faultinject import ENV_VAR
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS
from repro.sim.driver import SimulationDriver
from repro.sim.timing import TimingModel
from repro.trace.container import TraceSource
from repro.tracestore import TraceStore
from repro.workloads.registry import stream_workload

LENGTH = 6_000
SEED = 11


def small_config() -> ExperimentConfig:
    cfg = ExperimentConfig.small()
    cfg.trace_length = LENGTH
    cfg.seed = SEED
    cfg.workloads = ["db2"]
    return cfg


@pytest.fixture(scope="module")
def collected_by_mode(tmp_path_factory):
    """Every experiment collected twice: from generated traces and from
    traces replayed out of a pre-recorded store.

    One shared graph per mode, exactly like ``all --extended``, so the
    parity claim covers the deduplicated production execution path.
    """
    store = TraceStore(tmp_path_factory.mktemp("parity-store"))
    out = {}
    for mode in ("generated", "replayed"):
        cfg = small_config()
        graph = JobGraph()
        plans = {
            name: module.declare(cfg, graph)
            for name, module in EXPERIMENTS.items()
        }
        if mode == "generated":
            engine = Engine()
        else:
            for key in {job.trace_key for job in graph}:
                store.record(key)
            engine = Engine(trace_store=store)
        results = engine.run(graph)
        if mode == "replayed":
            assert engine.stats.generation_passes == 0
            assert engine.stats.bytes_replayed > 0
        out[mode] = {
            name: module.collect(cfg, plans[name], results)
            for name, module in EXPERIMENTS.items()
        }
    return out


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_bit_identical_across_modes(collected_by_mode, name):
    generated, replayed = (
        collected_by_mode["generated"], collected_by_mode["replayed"]
    )
    assert generated[name] == replayed[name]


class TestStreamingNeverMaterializes:
    @pytest.mark.parametrize(
        "kind", ["coverage", "timing", "joint", "repetition", "correlation"]
    )
    def test_job_kind(self, kind, monkeypatch):
        def boom(self):
            raise AssertionError("streaming path called materialize()")

        monkeypatch.setattr(TraceSource, "materialize", boom)
        cfg = small_config()
        cfg.system = SystemConfig.tiny()
        job = {
            "coverage": lambda: cfg.coverage_job("db2", "stride"),
            "timing": lambda: cfg.timing_job("db2", "stride"),
            "joint": lambda: cfg.joint_job("db2"),
            "repetition": lambda: cfg.repetition_job("db2"),
            "correlation": lambda: cfg.correlation_job("db2"),
        }[kind]()
        execute_job(job)


class TestEveryModeWalksThroughRunGroup:
    """Solo jobs, serial groups and the group → isolation → solo ladder
    all run ``run_group``; no job calls the library's pull loops."""

    @staticmethod
    def jobs():
        cfg = small_config()
        cfg.system = SystemConfig.tiny()
        return [
            cfg.coverage_job("db2", "stride"),
            cfg.timing_job("db2", "stride"),
            cfg.joint_job("db2"),
            cfg.repetition_job("db2"),
            cfg.correlation_job("db2"),
        ]

    @pytest.fixture(scope="class")
    def clean(self):
        return [execute_job(job) for job in self.jobs()]

    @pytest.fixture
    def no_pull_loops(self, monkeypatch):
        def pull(*args, **kwargs):
            raise AssertionError("a job ran a library pull loop")

        monkeypatch.setattr(SimulationDriver, "run", pull)
        monkeypatch.setattr(StreamingAnalysis, "consume", pull)

    def test_execute_job(self, clean, no_pull_loops):
        assert [execute_job(job) for job in self.jobs()] == clean

    def test_engine_isolation_ladder(self, clean, no_pull_loops, monkeypatch):
        # attempt 1 fails everywhere: the shared group walk, then each
        # job's first solo attempt; the solo retry succeeds
        monkeypatch.setenv(ENV_VAR, "job_fail:1@max_attempt=1")
        graph = JobGraph()
        jobs = [graph.add(job) for job in self.jobs()]
        engine = Engine(jobs=1)
        results = engine.run(graph)
        assert not results.failures()
        assert [results[job] for job in jobs] == clean
        assert engine.stats.isolation_fallbacks == 1
        assert engine.stats.retries == len(jobs)


class TestAnalysisLifecycle:
    SYSTEM = SystemConfig.tiny()

    def analyses(self):
        return [
            JointPredictabilityAnalysis(self.SYSTEM),
            RepetitionAnalysis(self.SYSTEM, max_elements=100),
            CorrelationDistanceAnalysis(self.SYSTEM),
            MissSequenceExtractor(self.SYSTEM),
        ]

    def first_access(self):
        return next(iter(stream_workload("db2", 100, seed=SEED)))

    def test_update_after_finalize_rejected(self):
        access = self.first_access()
        for analysis in self.analyses():
            analysis.update(access)
            analysis.finalize()
            with pytest.raises(RuntimeError, match="after finalize"):
                analysis.update(access)

    def test_double_finalize_rejected(self):
        for analysis in self.analyses():
            analysis.finalize()
            with pytest.raises(RuntimeError, match="finalize"):
                analysis.finalize()

    def test_sequitur_lifecycle(self):
        s = Sequitur()
        s.update("a")
        s.update("b")
        grammar = s.finalize()
        assert grammar.expand() == ["a", "b"]
        with pytest.raises(RuntimeError, match="after finalize"):
            s.append("c")
        with pytest.raises(RuntimeError, match="finalize"):
            s.finalize()

    def test_timing_model_lifecycle(self):
        access = self.first_access()
        model = TimingModel(self.SYSTEM.timing)
        model.update(access, "l1")
        result = model.finalize()
        assert result.instructions == access.instr_gap
        with pytest.raises(RuntimeError, match="after finalize"):
            model.update(access, "l1")
        with pytest.raises(RuntimeError, match="finalize"):
            model.finalize()

    def test_consume_walks_and_finalizes(self):
        result = CorrelationDistanceAnalysis(self.SYSTEM).consume(
            stream_workload("db2", 500, seed=SEED)
        )
        assert result.total_pairs >= 0


class TestTimingModelBoundedState:
    def test_inflight_state_independent_of_length(self):
        peaks = {}
        for length in (2_000, 16_000):
            model = TimingModel(self.system().timing, workload="db2")
            inner = model.update
            peak = 0

            def probe(access, klass, _inner=inner, _model=model):
                nonlocal peak
                _inner(access, klass)
                peak = max(peak, len(_model._completion))

            model.update = probe
            SimulationDriver(
                self.system(), None, service_consumer=model
            ).run(stream_workload("db2", length, seed=SEED))
            peaks[length] = peak
        # 8x the trace, same in-flight window (generous 2x slack)
        assert peaks[16_000] <= max(64, 2 * peaks[2_000])

    @staticmethod
    def system() -> SystemConfig:
        return SystemConfig.tiny()
