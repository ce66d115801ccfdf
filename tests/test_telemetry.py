"""Telemetry plane: registry semantics, mode switching, the runner's
``metrics.json`` artifact, the journal's per-job worker and wall time,
``repro-report``, and fsck's handling of telemetry files.

Cross-process folding parity (serial vs pool vs broadcast counters) has
its own tests here plus path-specific ones in ``test_engine.py`` and
``test_broadcast.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
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
from repro.engine.journal import JOURNAL_NAME, read_journal
from repro.telemetry import (
    ENV_VAR,
    METRICS_NAME,
    METRICS_VERSION,
    MODE_BASIC,
    MODE_OFF,
    MetricsRegistry,
    RunTelemetry,
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


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.inc("b.c", 7)
        assert registry.counter("a") == 3
        assert registry.counter("missing") == 0
        assert registry.counters("a") == {"a": 3}
        assert registry.counters("b.") == {"b.c": 7}

    def test_delta_since_reports_only_changes(self):
        registry = MetricsRegistry()
        registry.inc("inherited", 10)
        registry.inc("untouched", 4)
        snap = registry.snapshot()
        registry.inc("inherited", 2)
        registry.inc("fresh")
        delta = registry.delta_since(snap)
        assert delta == {"counters": {"inherited": 2, "fresh": 1}}

    def test_merge_adds_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        b.inc("m", 5)
        a.merge(b.data())
        a.merge(None)  # an envelope without metrics folds nothing
        assert a.counters() == {"n": 3, "m": 5}

    def test_fold_of_deltas_equals_single_registry(self):
        # the cross-process contract: parent.merge(worker.delta) must
        # reproduce what a single shared registry would have counted
        parent = MetricsRegistry()
        parent.inc("work", 5)
        worker = MetricsRegistry.from_dict(parent.data())  # fork copies
        snap = worker.snapshot()
        worker.inc("work", 3)
        worker.inc("new", 1)
        parent.merge(worker.delta_since(snap))
        assert parent.counter("work") == 8
        assert parent.counter("new") == 1

    def test_as_dict_round_trip_with_version(self):
        registry = MetricsRegistry()
        registry.inc("c", 4)
        payload = json.loads(json.dumps(registry.as_dict()))
        assert payload == {"counters": {"c": 4}, "version": METRICS_VERSION}
        thawed = MetricsRegistry.from_dict(payload)
        assert thawed.counter("c") == 4


# -- mode switch -------------------------------------------------------------


class TestModeResolution:
    def test_default_is_basic(self):
        assert resolve_telemetry() == MODE_BASIC

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "OFF")
        assert resolve_telemetry() == MODE_OFF

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "off")
        assert resolve_telemetry("basic") == MODE_BASIC

    # ``trace`` (the removed Chrome-trace mode) is unknown like any other
    @pytest.mark.parametrize("bad", ["loud", "ON AIR", "1", "trace"])
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


# -- RunTelemetry.write --------------------------------------------------------


class TestRunTelemetryWrite:
    def _collect(self, mode) -> RunTelemetry:
        telemetry = RunTelemetry(mode=mode)
        _, jobs = build_graph()
        for job in jobs[:2]:
            telemetry.job_finished(job, ok=True)
        return telemetry

    def test_off_writes_nothing(self, tmp_path):
        assert self._collect(MODE_OFF).write(tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_basic_writes_metrics_only(self, tmp_path):
        written = self._collect(MODE_BASIC).write(tmp_path, "run-1")
        assert [p.name for p in written] == [METRICS_NAME]
        payload = json.loads((tmp_path / METRICS_NAME).read_text())
        assert sorted(payload) == ["counters", "mode", "run", "version"]
        assert payload["run"] == "run-1"
        assert payload["mode"] == MODE_BASIC
        assert payload["counters"]["jobs.completed.coverage"] == 2
        assert payload["counters"]["walk.accesses.coverage"] == 2 * LENGTH

    def test_counters_always_fold_even_when_off(self):
        # EngineStats reads jobs.* through the same registry, so the
        # path-invariant counters must not depend on the mode
        telemetry = RunTelemetry(mode=MODE_OFF)
        _, jobs = build_graph()
        telemetry.job_finished(jobs[0], ok=True)
        assert telemetry.registry.counter("jobs.completed.coverage") == 1


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


# -- the journal's per-job run record -----------------------------------------


def _completions(journal: RunJournal) -> "list[dict]":
    events, _, _ = read_journal(journal.directory / JOURNAL_NAME)
    return [event for event in events if event["event"] == "job_completed"]


class TestJournalRunRecord:
    """Every executed job's ``job_completed`` event names the worker it
    ran on and its wall seconds there — in every execution path and
    every telemetry mode."""

    @pytest.mark.parametrize("kwargs, worker, mode", [
        (dict(jobs=1), r"main", MODE_BASIC),
        (dict(jobs=2, broadcast="off"), r"worker-\d+", MODE_BASIC),
        (dict(jobs=2, broadcast="on"), r"bundle-\d+", MODE_BASIC),
        (dict(jobs=2, broadcast="off"), r"worker-\d+", MODE_OFF),
    ], ids=["serial", "pool", "broadcast", "pool-telemetry-off"])
    def test_executed_jobs_name_worker_and_wall(self, tmp_path, monkeypatch,
                                                kwargs, worker, mode):
        monkeypatch.setenv(ENV_VAR, mode)
        graph, jobs = build_graph()
        journal = RunJournal.create(tmp_path / "runs", header={"argv": []})
        Engine(trace_store=tmp_path / "store", journal=journal,
               **kwargs).run(graph)
        journal.finish("clean")
        completions = _completions(journal)
        assert len(completions) == len(jobs)
        for event in completions:
            assert event["source"] == "executed"
            assert re.fullmatch(worker, event["worker"]), event
            assert event["wall_s"] > 0

    def test_group_jobs_journal_their_own_walls(self, tmp_path, monkeypatch):
        # one serial walk feeds a cheap and an expensive consumer: each
        # is credited its own time, not the group's
        from repro.engine import exec as exec_module

        graph = JobGraph()
        jobs = [
            graph.add(SimJob.make("coverage", "db2", LENGTH, SEED,
                                  SystemConfig.tiny(), spec))
            for spec in (None, PrefetcherSpec.make("stems"))
        ]
        walks = []
        real = exec_module.run_group

        def timed(group, accesses, attempt=1):
            start = time.perf_counter()
            try:
                return real(group, accesses, attempt)
            finally:
                walks.append(time.perf_counter() - start)

        monkeypatch.setattr(exec_module, "run_group", timed)
        journal = RunJournal.create(tmp_path / "runs", header={"argv": []})
        Engine(jobs=1, journal=journal).run(graph)
        journal.finish("clean")
        walls = {event["job"]: event["wall_s"]
                 for event in _completions(journal)}
        none, stems = (walls[job.job_hash] for job in jobs)
        assert len(walks) == 1
        assert 0 < none < stems
        assert none + stems <= walks[0]

    def test_cache_served_jobs_carry_no_worker(self, tmp_path):
        Engine(cache_dir=tmp_path / "cache").run(build_graph()[0])
        journal = RunJournal.create(tmp_path / "runs", header={"argv": []})
        Engine(cache_dir=tmp_path / "cache", journal=journal).run(
            build_graph()[0]
        )
        journal.finish("clean")
        completions = _completions(journal)
        assert completions
        assert all(event["source"] == "cache" and "worker" not in event
                   for event in completions)


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
        assert sorted(path.name for path in run_dir.iterdir()) == [
            JOURNAL_NAME, METRICS_NAME,
        ]
        payload = json.loads((run_dir / METRICS_NAME).read_text())
        assert sorted(payload) == ["counters", "mode", "run", "version"]
        err = capsys.readouterr().err
        assert "[engine:" in err
        assert METRICS_NAME in err

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

    def test_former_trace_mode_exits_2(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setenv(ENV_VAR, "trace")
        assert runner_main(_runner_argv(tmp_path)) == 2
        assert "unknown telemetry mode 'trace'" in capsys.readouterr().err

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
        assert "no metrics.json" not in out

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
        assert report["kinds"]["repetition"]["wall_s"] > 0
        assert [entry["worker"] for entry in report["slowest"]] == ["main"]

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
        assert "no metrics.json" in out
        assert "phase breakdown (in-worker" not in out
        assert f"{len(jobs)} scheduled" in out
        # the journal alone still gives every job's accesses, wall
        # time and worker
        assert report_main([journal.run_id, "--json",
                            "--cache-dir", str(tmp_path / "cache")]) == 0
        report = json.loads(capsys.readouterr().out)
        coverage = report["kinds"]["coverage"]
        assert coverage["accesses"] == len(jobs) * LENGTH
        assert coverage["wall_s"] > 0
        assert [entry["worker"] for entry in report["slowest"]] == (
            ["main"] * 5
        )

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

        # the crashed run reports from its journal and names its
        # successor; every job it completed names its worker
        assert report_main([crashed.run_id,
                            "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "crashed" in out and "resumed by" in out
        assert "no metrics.json" in out
        assert report_main([crashed.run_id, "--json",
                            "--cache-dir", str(tmp_path / "cache")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"]["completed"] > 0
        assert report["slowest"]
        assert all(entry["worker"] == "main" for entry in report["slowest"])
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
