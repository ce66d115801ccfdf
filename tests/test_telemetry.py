"""Telemetry plane: registry semantics, spans, mode switching, the
runner's ``metrics.json``/``trace.json`` artifacts, ``repro-report``,
and fsck's handling of telemetry files.

Cross-process folding parity (serial vs pool vs broadcast counters) has
its own tests here plus path-specific ones in ``test_engine.py`` and
``test_broadcast.py``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobGraph,
    PrefetcherSpec,
    RunJournal,
    SimJob,
    find_run,
    runs_root,
)
from repro.engine.engine import _STAT_FIELDS, EngineStats
from repro.engine.faultinject import ENV_VAR as FAULT_ENV
from repro.engine.faultinject import KILL_EXIT_CODE
from repro.experiments.runner import main as runner_main
from repro.telemetry import (
    ENV_VAR,
    HISTOGRAM_BUCKET_BOUNDS,
    HISTOGRAM_LOG2_MAX,
    HISTOGRAM_LOG2_MIN,
    METRICS_NAME,
    METRICS_VERSION,
    MODE_BASIC,
    MODE_OFF,
    MODE_TRACE,
    TRACE_NAME,
    AttemptSpan,
    Histogram,
    MetricsRegistry,
    RunTelemetry,
    bucket_index,
    chrome_trace,
    phases_active,
    process_registry,
    resolve_telemetry,
    telemetry_enabled,
)
from repro.tools.fsck import main as fsck_main
from repro.tools.report import main as report_main

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("apache", "em3d")
LENGTH = 2500
SEED = 1


@pytest.fixture(autouse=True)
def _no_ambient_overrides(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.delenv(FAULT_ENV, raising=False)


def build_graph() -> "tuple[JobGraph, list[SimJob]]":
    graph = JobGraph()
    jobs = []
    system = SystemConfig.tiny()
    for workload in WORKLOADS:
        for kind in ("none", "stride", "sms"):
            spec = PrefetcherSpec(kind=kind) if kind != "none" else None
            job = SimJob(kind="coverage", workload=workload, length=LENGTH,
                         seed=SEED, system=system, prefetcher=spec)
            jobs.append(graph.add(job))
    return graph, jobs


# -- histogram buckets (pinned: comparable across every metrics.json) --------


class TestHistogramBuckets:
    def test_bounds_are_pinned(self):
        # changing any of these breaks cross-PR comparability — the
        # bounds are part of the metrics.json format, not an impl detail
        assert HISTOGRAM_LOG2_MIN == -20
        assert HISTOGRAM_LOG2_MAX == 40
        assert len(HISTOGRAM_BUCKET_BOUNDS) == 62
        assert HISTOGRAM_BUCKET_BOUNDS[0] == 2.0 ** -20
        assert HISTOGRAM_BUCKET_BOUNDS[-2] == 2.0 ** 40
        assert HISTOGRAM_BUCKET_BOUNDS[-1] == math.inf

    def test_bucket_index_edges(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(2.0 ** -30) == 0  # below range clamps low
        # an exact power of two lands on its own boundary
        assert HISTOGRAM_BUCKET_BOUNDS[bucket_index(1.0)] == 1.0
        assert HISTOGRAM_BUCKET_BOUNDS[bucket_index(1.5)] == 2.0
        # beyond the top boundary lands in the +inf bucket
        assert bucket_index(2.0 ** 50) == len(HISTOGRAM_BUCKET_BOUNDS) - 1

    def test_every_value_is_counted_by_its_bound(self):
        for value in (1e-9, 0.003, 1.0, 7.3, 2.0 ** 41):
            index = bucket_index(value)
            assert value <= HISTOGRAM_BUCKET_BOUNDS[index]
            if index > 0:
                assert value > HISTOGRAM_BUCKET_BOUNDS[index - 1]

    def test_round_trip_through_json(self):
        hist = Histogram()
        for value in (0.001, 0.2, 0.2, 3.4, 1e12):
            hist.observe(value)
        thawed = Histogram.from_dict(
            json.loads(json.dumps(hist.as_dict()))
        )
        assert thawed.counts == hist.counts
        assert thawed.sum == pytest.approx(hist.sum)
        assert thawed.count == hist.count == 5


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.set_gauge("g", 7)
        assert registry.counter("a") == 3
        assert registry.counter("missing") == 0
        assert registry.gauge("g") == 7
        assert registry.counters("a") == {"a": 3}

    def test_delta_since_reports_only_changes(self):
        registry = MetricsRegistry()
        registry.inc("inherited", 10)
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        registry.inc("inherited", 2)
        registry.inc("fresh")
        registry.observe("h", 1.0)
        delta = registry.delta_since(snap)
        assert delta["counters"] == {"inherited": 2, "fresh": 1}
        assert delta["histograms"]["h"]["count"] == 1

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.observe("h", 0.5)
        b.observe("h", 0.5)
        b.set_gauge("g", 9)
        a.merge(b.data())
        assert a.counter("n") == 3
        assert a.histogram("h").count == 2
        assert a.gauge("g") == 9

    def test_fold_of_deltas_equals_single_registry(self):
        # the cross-process contract: parent.merge(worker.delta) must
        # reproduce what a single shared registry would have counted
        parent = MetricsRegistry()
        parent.inc("work", 5)
        worker = MetricsRegistry.from_dict(parent.data())  # fork copies
        snap = worker.snapshot()
        worker.inc("work", 3)
        worker.observe("h", 0.1)
        parent.merge(worker.delta_since(snap))
        assert parent.counter("work") == 8
        assert parent.histogram("h").count == 1

    def test_as_dict_round_trip_with_version(self):
        registry = MetricsRegistry()
        registry.inc("c", 4)
        registry.observe("h", 2.5)
        payload = json.loads(json.dumps(registry.as_dict()))
        assert payload["version"] == METRICS_VERSION
        assert payload["histogram_log2"] == [
            HISTOGRAM_LOG2_MIN, HISTOGRAM_LOG2_MAX
        ]
        thawed = MetricsRegistry.from_dict(payload)
        assert thawed.counter("c") == 4
        assert thawed.histogram("h").as_dict() == (
            registry.histogram("h").as_dict()
        )


# -- mode switch -------------------------------------------------------------


class TestModeResolution:
    def test_default_is_basic(self):
        assert resolve_telemetry() == MODE_BASIC

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "trace")
        assert resolve_telemetry() == MODE_TRACE

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")
        assert resolve_telemetry("trace") == MODE_TRACE

    @pytest.mark.parametrize("bad", ["loud", "ON AIR", "1"])
    def test_unknown_mode_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_telemetry(bad)

    def test_phase_timer_is_none_when_off(self, monkeypatch):
        assert phases_active() is not None
        assert telemetry_enabled()
        monkeypatch.setenv(ENV_VAR, MODE_OFF)
        assert phases_active() is None
        assert not telemetry_enabled()


# -- EngineStats as a registry view ------------------------------------------


class TestEngineStatsView:
    def test_attribute_api_backed_by_registry(self):
        registry = MetricsRegistry()
        stats = EngineStats(registry)
        assert stats.executed == 0
        stats.executed += 2
        stats.retries = 5
        assert registry.counter("engine.executed") == 2
        assert registry.counter("engine.retries") == 5
        assert stats.as_dict()["executed"] == 2

    def test_every_legacy_field_is_viewed(self):
        stats = EngineStats()
        for name in _STAT_FIELDS:
            assert getattr(stats, name) == 0

    def test_unknown_initial_field_rejected(self):
        with pytest.raises(TypeError):
            EngineStats(bogus=1)

    def test_engine_stats_share_the_run_registry(self):
        engine = Engine()
        engine.stats.retries += 1
        assert engine.telemetry.registry.counter("engine.retries") == 1


# -- spans and the Chrome trace rendering ------------------------------------


class TestSpans:
    def test_round_trip(self):
        span = AttemptSpan(job_hash="ab" * 32, label="cov:db2:stems",
                           kind="coverage", attempt=2, worker="worker-9",
                           queued=10.0, start=11.0, end=12.5, status="ok",
                           wall_s=1.5, cpu_s=1.4, detail={"store": "hit"})
        thawed = AttemptSpan.from_dict(
            json.loads(json.dumps(span.to_dict()))
        )
        assert thawed == span

    def test_chrome_trace_one_track_per_worker(self):
        spans = [
            AttemptSpan(job_hash="a" * 64, label="j1", kind="coverage",
                        worker="worker-1", start=100.0, end=101.0,
                        status="ok", wall_s=1.0),
            AttemptSpan(job_hash="b" * 64, label="j2", kind="coverage",
                        worker="worker-2", start=100.5, end=101.5,
                        status="ok", wall_s=1.0),
            AttemptSpan(job_hash="c" * 64, label="j3", kind="timing",
                        worker="worker-1", start=101.0, end=102.0,
                        status="failed", wall_s=1.0),
        ]
        trace = chrome_trace(spans, "run-1")
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert names == {"main", "worker-1", "worker-2"}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 3
        # the two worker-1 spans share a tid; worker-2 has its own
        by_worker = {}
        for event, span in zip(slices, spans):
            by_worker.setdefault(span.worker, set()).add(event["tid"])
        assert all(len(tids) == 1 for tids in by_worker.values())
        assert by_worker["worker-1"] != by_worker["worker-2"]
        # timestamps are relative to the earliest start, microseconds
        assert min(e["ts"] for e in slices) == 0
        assert all(e["dur"] == pytest.approx(1e6) for e in slices)

    def test_unstarted_spans_are_skipped(self):
        spans = [AttemptSpan(job_hash="a" * 64, label="j", kind="coverage")]
        trace = chrome_trace(spans, "run")
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"] == []


class TestRunTelemetryWrite:
    def _collect(self, mode) -> RunTelemetry:
        telemetry = RunTelemetry(mode=mode)
        _, jobs = build_graph()
        for job in jobs[:2]:
            telemetry.job_scheduled(job)
            telemetry.attempt_started(job.job_hash, 1)
            telemetry.job_finished(job, ok=True)
        return telemetry

    def test_off_writes_nothing(self, tmp_path):
        assert self._collect(MODE_OFF).write(tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_basic_writes_metrics_only(self, tmp_path):
        written = self._collect(MODE_BASIC).write(tmp_path, "run-1")
        assert [p.name for p in written] == [METRICS_NAME]
        payload = json.loads((tmp_path / METRICS_NAME).read_text())
        assert payload["run"] == "run-1"
        assert payload["mode"] == MODE_BASIC
        assert payload["counters"]["jobs.completed.coverage"] == 2
        assert payload["counters"]["walk.accesses.coverage"] == 2 * LENGTH
        assert len(payload["spans"]) == 2
        assert payload["histograms"]["job.wall_seconds"]["count"] == 2

    def test_trace_mode_adds_chrome_trace(self, tmp_path):
        written = self._collect(MODE_TRACE).write(tmp_path, "run-1")
        assert [p.name for p in written] == [METRICS_NAME, TRACE_NAME]
        trace = json.loads((tmp_path / TRACE_NAME).read_text())
        assert len([e for e in trace["traceEvents"] if e["ph"] == "X"]) == 2

    def test_open_spans_written_as_open(self, tmp_path):
        telemetry = RunTelemetry(mode=MODE_BASIC)
        _, jobs = build_graph()
        telemetry.job_scheduled(jobs[0])
        telemetry.attempt_started(jobs[0].job_hash, 1)
        telemetry.write(tmp_path)  # crash-shaped: span never closed
        payload = json.loads((tmp_path / METRICS_NAME).read_text())
        assert [s["status"] for s in payload["spans"]] == ["open"]

    def test_counters_always_fold_even_when_off(self):
        # EngineStats reads jobs.* through the same registry, so the
        # path-invariant counters must not depend on the mode
        telemetry = RunTelemetry(mode=MODE_OFF)
        _, jobs = build_graph()
        telemetry.job_finished(jobs[0], ok=True)
        assert telemetry.registry.counter("jobs.completed.coverage") == 1
        assert telemetry.spans == []


# -- cross-process folding parity --------------------------------------------


def _invariant_counters(engine: Engine) -> "dict[str, float]":
    """The counters every execution path must agree on byte-for-byte.

    (store_hits / generation_passes legitimately differ between replay
    and broadcast, and phase seconds are wall time — only the job
    outcome and access counters are path-invariant.)
    """
    registry = engine.telemetry.registry
    return {**registry.counters("jobs."), **registry.counters("walk.")}


class TestFoldingParity:
    def test_serial_pool_broadcast_fold_identically(self, tmp_path):
        baseline = None
        for name, kwargs in (
            ("serial", dict(jobs=1)),
            ("pool", dict(jobs=2)),
            ("broadcast", dict(jobs=2, broadcast="on")),
        ):
            graph, _ = build_graph()
            engine = Engine(trace_store=tmp_path / f"store-{name}",
                            **kwargs)
            engine.run(graph)
            counters = _invariant_counters(engine)
            assert counters["jobs.completed.coverage"] == 6
            assert counters["walk.accesses.coverage"] == 6 * LENGTH
            if baseline is None:
                baseline = counters
            else:
                assert counters == baseline, name

    def test_pool_worker_phase_timers_fold_into_parent(self, tmp_path):
        graph, _ = build_graph()
        engine = Engine(jobs=2, trace_store=tmp_path / "store")
        engine.run(graph)
        registry = engine.telemetry.registry
        walk = registry.counter("phase.walk_step.seconds")
        assert walk > 0
        assert registry.counter("phase.walk_step.calls") > 0
        assert registry.counter("phase.finalize.calls") > 0

    def test_cached_jobs_counted_as_cached(self, tmp_path):
        graph, _ = build_graph()
        Engine(cache_dir=tmp_path / "cache").run(graph)
        graph2, _ = build_graph()
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run(graph2)
        counters = _invariant_counters(engine)
        assert counters["jobs.cached.coverage"] == 6
        assert "jobs.completed.coverage" not in counters

    def test_phase_timers_off_leave_registry_untouched(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.setenv(ENV_VAR, MODE_OFF)
        before = process_registry().snapshot()
        graph, _ = build_graph()
        engine = Engine(trace_store=tmp_path / "store")
        engine.run(graph)
        delta = process_registry().delta_since(before)
        assert not any(name.startswith("phase.")
                       for name in delta["counters"])


# -- runner integration ------------------------------------------------------


def _runner_argv(tmp_path, *extra: str) -> "list[str]":
    return [
        "fig7", "--small", "--workloads", "apache",
        "--cache-dir", str(tmp_path / "cache"), *extra,
    ]


def _run_dir(tmp_path) -> Path:
    return find_run(runs_root(tmp_path / "cache"), "last").directory


class TestRunnerIntegration:
    def test_basic_writes_metrics_json(self, tmp_path, capsys):
        assert runner_main(_runner_argv(tmp_path)) == 0
        run_dir = _run_dir(tmp_path)
        assert (run_dir / METRICS_NAME).is_file()
        assert not (run_dir / TRACE_NAME).exists()
        err = capsys.readouterr().err
        assert "[engine:" in err
        assert METRICS_NAME in err

    def test_trace_mode_writes_trace_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, MODE_TRACE)
        assert runner_main(_runner_argv(tmp_path)) == 0
        trace = json.loads((_run_dir(tmp_path) / TRACE_NAME).read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_off_mode_writes_nothing_keeps_oneliner(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, MODE_OFF)
        assert runner_main(_runner_argv(tmp_path)) == 0
        run_dir = _run_dir(tmp_path)
        assert not (run_dir / METRICS_NAME).exists()
        err = capsys.readouterr().err
        # the legacy stderr contract survives: one engine line, no
        # telemetry notes
        assert "[engine:" in err
        assert "telemetry" not in err

    def test_invalid_mode_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, "loud")
        assert runner_main(_runner_argv(tmp_path)) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_export_stdout_is_pure_table(self, tmp_path, capsys):
        # satellite 1: stats/notes go to stderr, never interleaved with
        # the exported table on stdout
        assert runner_main(_runner_argv(
            tmp_path, "--export", "json",
            "--export-dir", str(tmp_path / "out"),
        )) == 0
        captured = capsys.readouterr()
        assert "[engine:" not in captured.out
        assert "rows exported" not in captured.out
        assert "rows exported" in captured.err


# -- repro-report ------------------------------------------------------------


class TestReportTool:
    def test_clean_run(self, tmp_path, capsys):
        assert runner_main(_runner_argv(tmp_path)) == 0
        capsys.readouterr()
        rc = report_main(["last", "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out
        assert "repetition" in out       # the per-kind table
        assert "phase breakdown" in out
        assert "journal-only" not in out

    def test_json_mode(self, tmp_path, capsys):
        assert runner_main(_runner_argv(tmp_path)) == 0
        capsys.readouterr()
        assert report_main([
            "last", "--cache-dir", str(tmp_path / "cache"), "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "clean"
        assert report["jobs"]["scheduled"] == 1
        assert report["jobs"]["completed"] == 1
        assert report["kinds"]["repetition"]["accesses"] > 0
        assert report["timings_from"] == "spans"

    def test_degraded_run_shows_faults(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(FAULT_ENV, "job_fail:1")
        assert runner_main(_runner_argv(tmp_path, "--retries", "2")) == 1
        capsys.readouterr()
        assert report_main([
            "last", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "faults:" in out

    def test_crashed_run_falls_back_to_journal(self, tmp_path, capsys):
        # an engine run whose process "died": journal unsealed, no
        # metrics.json (the runner only writes it at run end)
        root = runs_root(tmp_path / "cache")
        graph, jobs = build_graph()
        journal = RunJournal.create(
            root, header={"argv": ["fig9"], "experiments": ["fig9"],
                          "pid": 2 ** 22 + 1},  # beyond any real pid here
        )
        engine = Engine(cache_dir=tmp_path / "cache", journal=journal)
        engine.run(graph)
        journal.close()  # no finish(): unsealed

        rc = report_main([journal.run_id,
                          "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crashed" in out
        assert "journal-only" in out
        assert f"{len(jobs)} scheduled" in out
        # journal t-timestamps still give wall times
        assert "(wall times from journal)" in out

    def test_resumed_run_pair(self, tmp_path, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env.pop(FAULT_ENV, None)
        env.pop(ENV_VAR, None)
        argv = [
            sys.executable, "-m", "repro.experiments", "fig9", "--small",
            "--workloads", "apache", "em3d", "--length", "2000",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-store", str(tmp_path / "traces"),
        ]
        killed = subprocess.run(
            argv, env={**env, FAULT_ENV: "kill_at_job@index=5"},
            capture_output=True, text=True,
        )
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        crashed = find_run(runs_root(tmp_path / "cache"), "last")

        resumed = subprocess.run(
            argv + ["--resume", "last"], env=env,
            capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr

        # the crashed run reports journal-only and names its successor
        assert report_main([crashed.run_id,
                            "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "crashed" in out and "resumed by" in out
        assert "journal-only" in out
        # the resuming run has full telemetry and cache-sourced jobs
        assert report_main(["last",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resumed_from"] == crashed.run_id
        assert report["telemetry"] is True
        assert report["jobs"]["from_cache"] > 0
        assert report["jobs"]["incomplete"] == 0

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        assert report_main(
            ["nope", "--cache-dir", str(tmp_path / "cache")]
        ) == 2
        assert "repro-report" in capsys.readouterr().err


# -- fsck: telemetry files are derived data, never damage --------------------


class TestFsckTelemetry:
    def _run(self, tmp_path) -> Path:
        assert runner_main(_runner_argv(tmp_path)) == 0
        return _run_dir(tmp_path)

    def test_valid_telemetry_is_silent(self, tmp_path, capsys):
        self._run(tmp_path)
        capsys.readouterr()
        assert fsck_main(["--cache-dir", str(tmp_path / "cache")]) == 0
        assert "telemetry" not in capsys.readouterr().out

    def test_torn_metrics_is_a_note_not_damage(self, tmp_path, capsys):
        run_dir = self._run(tmp_path)
        (run_dir / METRICS_NAME).write_text('{"torn')
        capsys.readouterr()
        assert fsck_main(["--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "[note] telemetry" in out
        assert "0 damaged" in out
        assert (run_dir / METRICS_NAME).is_file()  # untouched

    def test_repair_quarantines_unparseable(self, tmp_path, capsys):
        run_dir = self._run(tmp_path)
        (run_dir / METRICS_NAME).write_text('{"torn')
        capsys.readouterr()
        assert fsck_main(
            ["--cache-dir", str(tmp_path / "cache"), "--repair"]
        ) == 0
        out = capsys.readouterr().out
        assert "[repaired] telemetry" in out
        assert not (run_dir / METRICS_NAME).exists()
        assert list((run_dir / "quarantine").iterdir())

    def test_failed_rename_leaves_a_stray_fsck_removes(
        self, tmp_path, monkeypatch, capsys
    ):
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == METRICS_NAME:
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr("repro.telemetry.os.replace", replace)
            # a telemetry write failure never changes the run's outcome
            assert runner_main(_runner_argv(tmp_path)) == 0
        run_dir = _run_dir(tmp_path)
        assert not (run_dir / METRICS_NAME).exists()
        strays = list(run_dir.glob(f"{METRICS_NAME}.tmp.*"))
        assert len(strays) == 1
        capsys.readouterr()
        sweep = ["--cache-dir", str(tmp_path / "cache")]
        assert fsck_main(sweep) == 1
        assert "stray temp file" in capsys.readouterr().out
        assert fsck_main(sweep + ["--repair"]) == 0
        assert not strays[0].exists()
        assert fsck_main(sweep) == 0

    def test_orphaned_telemetry_noted(self, tmp_path, capsys):
        orphan = tmp_path / "cache" / "runs" / "ghost"
        orphan.mkdir(parents=True)
        (orphan / METRICS_NAME).write_text("{}")
        capsys.readouterr()
        fsck_main(["--cache-dir", str(tmp_path / "cache")])
        assert "orphaned" in capsys.readouterr().out
