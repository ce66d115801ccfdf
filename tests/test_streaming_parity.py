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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.engine.exec import job_consumer, observes_baseline, run_group
from repro.engine.faultinject import ENV_VAR
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, PAPER_SET
from repro.memsys.hierarchy import Hierarchy
from repro.sim.driver import BaselineReplay, SimulationDriver
from repro.sim.timing import TimingModel
from repro.trace.container import TraceSource
from repro.tracestore import TraceStore
from repro.workloads.registry import WORKLOAD_NAMES, stream_workload

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


MEMBER_KINDS = ("joint", "repetition", "correlation", "coverage")


def _member_job(cfg: ExperimentConfig, kind: str, workload: str):
    """A job of one of the four baseline-replay member kinds."""
    return {
        "joint": cfg.joint_job,
        "repetition": cfg.repetition_job,
        "correlation": cfg.correlation_job,
        "coverage": cfg.coverage_job,
    }[kind](workload)


@pytest.fixture
def hierarchies_built(monkeypatch):
    """Counts every :class:`Hierarchy` constructed while the test runs."""
    built = []
    init = Hierarchy.__init__

    def counting(self, config):
        built.append(config)
        init(self, config)

    monkeypatch.setattr(Hierarchy, "__init__", counting)
    return built


class TestSharedBaselineReplay:
    """The Fig. 6-8 analyses and the no-prefetcher walk of one trace key
    share one hierarchy pass, and results do not change."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        workload=st.sampled_from(WORKLOAD_NAMES),
        length=st.integers(min_value=1, max_value=6_000),
        seed=st.integers(min_value=0, max_value=2**16),
        members=st.lists(st.sampled_from(MEMBER_KINDS), unique=True),
        stems_at=st.integers(min_value=0, max_value=4),
    )
    def test_group_returns_each_solo_result(self, workload, length, seed,
                                            members, stems_at):
        cfg = ExperimentConfig.small()
        cfg.trace_length = length
        cfg.seed = seed
        jobs = [_member_job(cfg, kind, workload) for kind in members]
        jobs.insert(stems_at, cfg.coverage_job(workload, "stems"))
        grouped = run_group(jobs, stream_workload(workload, length, seed))
        assert [job for job, _ in grouped] == jobs
        assert [result for _, result in grouped] == [
            execute_job(job) for job in jobs
        ]

    def test_all_builds_one_hierarchy_per_trace_key(self, hierarchies_built):
        cfg = small_config()
        graph = JobGraph()
        for name in PAPER_SET:
            EXPERIMENTS[name].declare(cfg, graph)
        members = [
            job for job in graph
            if job.kind in ("joint", "repetition", "correlation")
            or (job.kind == "coverage" and job.prefetcher is None)
        ]
        assert sorted(job.kind for job in members) == [
            "correlation", "coverage", "joint", "repetition"
        ]
        assert {job.trace_key for job in members} == {("db2", LENGTH, SEED)}
        assert [job for job in graph if observes_baseline(job)] == members
        run_group(members, stream_workload("db2", LENGTH, SEED))
        assert len(hierarchies_built) == 1

    @pytest.mark.parametrize("with_stride", [False, True],
                             ids=["alone", "with-stride"])
    @pytest.mark.parametrize(
        "kind", ["stride", "sms", "tms", "stems", "hybrid", "ghb", "markov"]
    )
    def test_prefetching_walk_never_joins_a_replay(
        self, hierarchies_built, kind, with_stride
    ):
        cfg = small_config()
        cfg.trace_length = 2_000
        jobs = [
            cfg.coverage_job("db2", kind, with_stride=with_stride),
            cfg.timing_job("db2", kind, with_stride=with_stride),
        ]
        for job in jobs:
            assert not observes_baseline(job)
            with pytest.raises(ValueError, match="cannot join a replay"):
                job_consumer(job, BaselineReplay(job.system))
        hierarchies_built.clear()
        run_group([cfg.joint_job("db2"), *jobs, cfg.coverage_job("db2")],
                  stream_workload("db2", 2_000, SEED))
        # one shared by the two members, one private per prefetching walk
        assert len(hierarchies_built) == 3


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
