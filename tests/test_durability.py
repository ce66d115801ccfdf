"""Durable runs: journal, checkpoint/resume, graceful shutdown.

The anchor invariant is the crash-at-any-point contract: a run killed at
an arbitrary job dispatch (``kill_at_job``) or interrupted by SIGINT and
then resumed with ``--resume`` produces output **bit-identical** to an
uninterrupted run, re-executing only the jobs the journal shows as
incomplete. Around it: the write-ahead journal's framing and torn-tail
semantics, job-graph reconstruction from journal descriptions, the
0/1/2/3 exit-code contract, and ``--list-runs``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobGraph,
    PrefetcherSpec,
    RunInterrupted,
    RunJournal,
    SimJob,
    find_run,
    list_runs,
    load_run,
    runs_root,
)
from repro.engine.faultinject import ENV_VAR, FaultPlan, KILL_EXIT_CODE
from repro.engine.journal import (
    JournalError,
    decode_line,
    encode_line,
    read_journal,
)
from repro.tools.fsck import main as fsck_main

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("apache", "em3d")
LENGTH = 2500
SEED = 1
#: a pid beyond any real one here: forges a dead writer into a header
DEAD_PID = 2 ** 22 + 1


@pytest.fixture(autouse=True)
def _no_ambient_injection(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


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


# -- line framing and the reader --------------------------------------------


class TestJournalFraming:
    def test_round_trip(self):
        event = {"event": "job_completed", "job": "ab" * 32, "shard": None}
        assert decode_line(encode_line(event)) == event

    def test_crc_mismatch_rejected(self):
        line = encode_line({"event": "x"})
        flipped = line[:-1] + ("}" if line[-1] != "}" else "]")
        with pytest.raises(JournalError):
            decode_line(flipped)

    def test_missing_frame_rejected(self):
        with pytest.raises(JournalError):
            decode_line('{"event": "x"}')
        with pytest.raises(JournalError):
            decode_line("zzzzzzzz {}")

    def test_non_object_rejected(self):
        import zlib

        payload = "[1, 2]"
        line = f"{zlib.crc32(payload.encode()):08x} {payload}"
        with pytest.raises(JournalError):
            decode_line(line)


class TestJournalReader:
    def _journal(self, tmp_path, events) -> Path:
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(encode_line(e) + "\n" for e in events))
        return path

    def test_clean_file(self, tmp_path):
        events = [{"event": "run_started"}, {"event": "job_scheduled"}]
        path = self._journal(tmp_path, events)
        got, damage, valid = read_journal(path)
        assert got == events
        assert damage is None
        assert valid == path.stat().st_size

    def test_torn_tail_drops_only_the_last_line(self, tmp_path):
        events = [{"event": "run_started"}, {"event": "a"}, {"event": "b"}]
        path = self._journal(tmp_path, events)
        with path.open("a") as handle:
            handle.write('deadbeef {"torn":')  # no newline: torn write
        got, damage, valid = read_journal(path)
        assert got == events
        assert damage is not None and damage.torn_tail
        # the valid prefix is exactly the undamaged events
        assert path.read_bytes()[:valid].count(b"\n") == len(events)

    def test_mid_file_damage_truncates_from_there(self, tmp_path):
        events = [{"event": "run_started"}, {"event": "a"}]
        path = self._journal(tmp_path, events)
        lines = path.read_text().splitlines()
        lines.insert(1, "00000000 {garbage")
        lines.append(encode_line({"event": "after"}))
        path.write_text("\n".join(lines) + "\n")
        got, damage, _ = read_journal(path)
        assert got == [{"event": "run_started"}]
        assert damage is not None
        assert not damage.torn_tail
        assert damage.line == 2


# -- the writer --------------------------------------------------------------


class TestRunJournal:
    def test_lifecycle_round_trip(self, tmp_path):
        root = tmp_path / "runs"
        _, jobs = build_graph()
        journal = RunJournal.create(
            root, header={"argv": ["fig9"], "experiments": ["fig9"]},
        )
        for job in jobs:
            journal.job_scheduled(job)
        journal.attempt_started(jobs[0].job_hash, 1)
        journal.job_completed(jobs[0], shard=Path("ab/cd.json"))
        journal.finish("interrupted")

        record = load_run(root / journal.run_id)
        assert record.damage is None
        assert set(record.scheduled) == {j.job_hash for j in jobs}
        assert record.completed == {jobs[0].job_hash: "executed"}
        assert record.incomplete() == [j.job_hash for j in jobs[1:]]
        assert record.finished_status == "interrupted"
        assert record.status() == "interrupted"
        assert record.resumable()
        assert record.argv == ["fig9"]

    def test_unsealed_journal_is_running_while_its_pid_lives(self, tmp_path):
        root = tmp_path / "runs"
        journal = RunJournal.create(root, header={"argv": []})
        journal.close()
        # the header records this (live) process as the writer
        record = load_run(root / journal.run_id)
        assert record.status() == "running"
        assert not record.resumable()

    def test_unsealed_journal_with_dead_pid_is_crashed(self, tmp_path):
        root = tmp_path / "runs"
        # forge a dead pid into the header (the writer's own is alive)
        journal = RunJournal.create(
            root, header={"argv": [], "pid": DEAD_PID}
        )
        journal.close()
        record = load_run(root / journal.run_id)
        assert record.status() == "crashed"
        assert record.resumable()

    def test_status_comes_from_the_journal_alone(self, tmp_path):
        root = tmp_path / "runs"
        journal = RunJournal.create(root, header={"argv": []})
        journal.finish("clean")
        run_dir = root / journal.run_id
        assert [p.name for p in run_dir.iterdir()] == ["journal.jsonl"]
        record = load_run(run_dir)
        assert record.status() == "clean"
        assert not record.resumable()
        # a stale summary beside the journal (an older version, or a kill
        # between the seal and a rewrite of it) must not override the seal
        (run_dir / "manifest.json").write_text(
            json.dumps({"status": "running", "pid": DEAD_PID})
        )
        record = load_run(run_dir)
        assert record.status() == "clean"
        assert not record.resumable()

    def test_bad_run_ids_rejected(self, tmp_path):
        root = tmp_path / "runs"
        with pytest.raises(JournalError):
            RunJournal.create(root, run_id="../escape")
        with pytest.raises(JournalError):
            RunJournal.create(root, run_id="")
        RunJournal.create(root, run_id="ok-1").close()
        with pytest.raises(JournalError):
            RunJournal.create(root, run_id="ok-1")

    def test_finish_rejects_non_terminal_status(self, tmp_path):
        journal = RunJournal.create(tmp_path / "runs")
        with pytest.raises(JournalError):
            journal.finish("running")
        journal.close()

    def test_list_and_find(self, tmp_path):
        root = tmp_path / "runs"
        first = RunJournal.create(root, run_id="a-1", header={"argv": ["x"]})
        first.finish("clean")
        second = RunJournal.create(root, run_id="b-2",
                                   header={"argv": ["y"]})
        second.finish("degraded")
        assert [r.run_id for r in list_runs(root)] == ["a-1", "b-2"]
        assert find_run(root, "last").run_id == "b-2"
        assert find_run(root, "a-1").argv == ["x"]
        with pytest.raises(JournalError):
            find_run(root, "nope")
        with pytest.raises(JournalError):
            find_run(tmp_path / "empty", "last")


@pytest.fixture(scope="module")
def sealed_journal(tmp_path_factory) -> "tuple[str, bytes]":
    """``(run_id, bytes)`` of a sealed three-job journal whose header
    carries a dead pid — built once, then cut at many points."""
    _, jobs = build_graph()
    root = tmp_path_factory.mktemp("runs")
    journal = RunJournal.create(
        root, header={"argv": ["fig9"], "pid": DEAD_PID}
    )
    for job in jobs[:3]:
        journal.job_scheduled(job)
    for job in jobs[:3]:
        journal.attempt_started(job.job_hash, 1)
        journal.job_completed(job)
    journal.finish("clean")
    raw = (root / journal.run_id / "journal.jsonl").read_bytes()
    return journal.run_id, raw


class TestTornJournalTails:
    # the cut is drawn as a fraction: the journal's length varies from
    # process to process (timestamps, run id), so an integer drawn over
    # it would not replay deterministically
    @settings(deadline=None, max_examples=60)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_any_cut_reads_back_and_repairs_to_its_valid_prefix(
        self, sealed_journal, fraction
    ):
        run_id, raw = sealed_journal
        cut = raw[:int(fraction * len(raw))]
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = Path(tmp)
            run_dir = runs_root(cache_dir) / run_id
            run_dir.mkdir(parents=True)
            journal_path = run_dir / "journal.jsonl"
            journal_path.write_bytes(cut)

            record = load_run(run_dir)
            valid = cut[:record.valid_bytes]
            # exactly the newline-terminated lines of the cut survive
            assert valid == cut[:cut.rfind(b"\n") + 1]
            torn = valid != cut
            assert (record.damage is not None) == torn
            assert record.status() == ("clean" if cut == raw else "crashed")

            sweep = ["--cache-dir", str(cache_dir), "--quiet"]
            assert fsck_main(sweep) == (1 if torn else 0)
            if torn:
                assert fsck_main(sweep + ["--repair"]) == 0
                assert journal_path.read_bytes() == valid
                assert fsck_main(sweep) == 0


# -- engine integration ------------------------------------------------------


class TestEngineJournaling:
    def test_every_job_scheduled_and_completed(self, tmp_path):
        graph, jobs = build_graph()
        root = runs_root(tmp_path / "cache")
        journal = RunJournal.create(root, header={"argv": []})
        engine = Engine(cache_dir=tmp_path / "cache", journal=journal)
        engine.run(graph)
        journal.finish("clean")
        record = load_run(root / journal.run_id)
        hashes = {j.job_hash for j in jobs}
        assert set(record.scheduled) == hashes
        assert set(record.completed) == hashes
        assert all(src == "executed" for src in record.completed.values())
        assert not record.incomplete()
        # the journaled shard refs exist on disk
        events, _, _ = read_journal(root / journal.run_id / "journal.jsonl")
        shards = [e["shard"] for e in events
                  if e["event"] == "job_completed"]
        assert all(Path(s).is_file() for s in shards)

    def test_cache_hits_journal_as_cache_sourced(self, tmp_path):
        graph, jobs = build_graph()
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run(graph)
        root = runs_root(tmp_path / "cache")
        journal = RunJournal.create(root, header={"argv": []})
        graph2, _ = build_graph()
        engine = Engine(cache_dir=tmp_path / "cache", journal=journal)
        engine.run(graph2)
        assert engine.stats.cache_hits == len(jobs)
        journal.finish("clean")
        record = load_run(root / journal.run_id)
        assert set(record.completed.values()) == {"cache"}

    def test_preset_interrupt_stops_before_any_execution(self, tmp_path):
        graph, _ = build_graph()
        stop = threading.Event()
        stop.set()
        engine = Engine(cache_dir=tmp_path / "cache", interrupt=stop)
        with pytest.raises(RunInterrupted):
            engine.run(graph)
        assert engine.stats.executed == 0

    def test_interrupt_mid_run_keeps_completed_results(self, tmp_path):
        graph, jobs = build_graph()
        stop = threading.Event()
        root = runs_root(tmp_path / "cache")
        journal = RunJournal.create(root, header={"argv": []})
        fired = {"at": None}
        original = journal.job_completed

        def complete_then_stop(job, **kwargs):
            original(job, **kwargs)
            if journal.jobs_completed == 3 and fired["at"] is None:
                fired["at"] = 3
                stop.set()

        journal.job_completed = complete_then_stop
        engine = Engine(cache_dir=tmp_path / "cache", journal=journal,
                        interrupt=stop)
        with pytest.raises(RunInterrupted) as info:
            engine.run(graph)
        journal.finish("interrupted")
        assert info.value.completed == 3
        record = load_run(root / journal.run_id)
        assert len(record.completed) == 3
        assert len(record.incomplete()) == len(jobs) - 3
        # and a fresh engine over the same cache finishes only the rest
        graph2, _ = build_graph()
        engine2 = Engine(cache_dir=tmp_path / "cache")
        engine2.run(graph2)
        assert engine2.stats.cache_hits == 3
        assert engine2.stats.executed == len(jobs) - 3


class TestKillSpecParsing:
    def test_kill_at_job_is_a_known_kind(self):
        plan = FaultPlan.parse("kill_at_job@index=3")
        assert plan.spec("kill_at_job").param("index") == "3"

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("kill_at_everything")


# -- runner subprocess semantics --------------------------------------------


def _runner_env(**extra: str) -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_VAR, None)
    env.update(extra)
    return env


def _sweep_args(tmp_path: Path, cache: str) -> "list[str]":
    return [
        sys.executable, "-m", "repro.experiments", "fig9", "--small",
        "--workloads", "apache", "em3d", "--length", "2000",
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


class TestInterruptionSemantics:
    def test_sigint_exits_3_with_sealed_resumable_journal(self, tmp_path):
        proc = subprocess.Popen(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{ENV_VAR: "stall:1@secs=0.4"}),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        _wait_for_journal(tmp_path / "cache")
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=60)[1]
        assert proc.returncode == 3, stderr
        record = find_run(runs_root(tmp_path / "cache"), "last")
        assert record.finished_status == "interrupted"
        assert record.status() == "interrupted"
        assert record.resumable()
        assert "--resume" in stderr
        # the journal was flushed: scheduled events are all present
        assert len(record.scheduled) == 8

    def test_second_sigint_hard_aborts(self, tmp_path):
        proc = subprocess.Popen(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{ENV_VAR: "stall:1@secs=5"}),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        _wait_for_journal(tmp_path / "cache")
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=60)[1]
        assert proc.returncode == 130, stderr
        # the journal is deliberately left unsealed -> crashed, resumable
        record = find_run(runs_root(tmp_path / "cache"), "last")
        assert record.finished_status is None
        assert record.status() == "crashed"
        assert record.resumable()

    def test_sigterm_stops_forked_workers(self, tmp_path):
        # pool workers fork while the runner's shutdown policy is
        # installed; the engine's terminate() of a timed-out worker must
        # still stop it, without the runner's drain banner: every job
        # stalls 25 s on its first attempt, and the run ends long before
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "fig9", "--small",
             "--workloads", "db2", "--length", "2000", "--jobs", "2",
             "--no-cache", "--job-timeout", "2"],
            env=_runner_env(**{ENV_VAR: "stall:1@secs=25@max_attempt=1"}),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "4 timeouts" in proc.stderr
        assert "SIGTERM" not in proc.stderr
        assert time.monotonic() - started < 20

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_then_resume_is_bit_identical(self, tmp_path, jobs):
        clean = subprocess.run(
            _sweep_args(tmp_path, "clean-cache") + [
                "--jobs", str(jobs),
                "--export", "json",
                "--export-dir", str(tmp_path / "clean-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stderr
        baseline = (tmp_path / "clean-out" / "fig9.json").read_bytes()

        if jobs > 1:
            # the parallel supervisor dispatches its whole batch up
            # front, so a mid-batch kill finds nothing durable yet;
            # pre-warm half the sweep so the parallel crash lands on a
            # run with prior durable state (cache-sourced completions)
            warm = subprocess.run(
                [a if a != "em3d" else "apache"
                 for a in _sweep_args(tmp_path, "cache")],
                env=_runner_env(), capture_output=True, text=True,
            )
            assert warm.returncode == 0, warm.stderr
            kill_index = 2
        else:
            kill_index = 5
        killed = subprocess.run(
            _sweep_args(tmp_path, "cache") + ["--jobs", str(jobs)],
            env=_runner_env(**{ENV_VAR: f"kill_at_job@index={kill_index}"}),
            capture_output=True, text=True,
        )
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        record = find_run(runs_root(tmp_path / "cache"), "last")
        assert record.status() == "crashed"
        durable = len(record.completed)
        assert 0 < durable < len(record.scheduled)

        resumed = subprocess.run(
            _sweep_args(tmp_path, "cache") + [
                "--jobs", str(jobs), "--resume", "last",
                "--export", "json",
                "--export-dir", str(tmp_path / "resume-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"{durable} of 8 journaled jobs already durable" in (
            resumed.stderr
        )
        recovered = (tmp_path / "resume-out" / "fig9.json").read_bytes()
        assert recovered == baseline
        # only the lost jobs re-executed
        new_record = find_run(runs_root(tmp_path / "cache"), "last")
        assert new_record.run_id != record.run_id
        assert sorted(new_record.completed.values()).count("cache") == (
            durable
        )
        # the superseded run points at its successor, derived from the
        # successor's header: nothing was written into the old run
        old = find_run(runs_root(tmp_path / "cache"), record.run_id)
        assert old.resumed_by == new_record.run_id
        assert new_record.header["resumed_from"] == record.run_id
        assert not list(
            runs_root(tmp_path / "cache").glob("*/manifest.json")
        )

    def test_list_runs_reports_status(self, tmp_path):
        killed = subprocess.run(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{ENV_VAR: "kill_at_job@index=5"}),
            capture_output=True, text=True,
        )
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        listing = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--list-runs",
             "--cache-dir", str(tmp_path / "cache")],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert listing.returncode == 0
        assert "crashed (resumable)" in listing.stdout
        # dispatch 5 is the first job of the second fan-out group, so
        # exactly the first group's 4 jobs were journaled durable
        assert "4/8 jobs" in listing.stdout

    def test_resume_unknown_run_exits_2(self, tmp_path):
        (tmp_path / "cache").mkdir()
        result = subprocess.run(
            _sweep_args(tmp_path, "cache") + ["--resume", "nope"],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "no run 'nope'" in result.stderr

    def test_resume_with_removed_flag_exits_2(self, tmp_path, capsys):
        from repro.experiments.runner import main

        cache = tmp_path / "cache"
        journal = RunJournal.create(
            runs_root(cache),
            header={"argv": ["fig9", "--small", "--kernel", "python"]},
        )
        journal.finish("interrupted")
        code = main(["--resume", journal.run_id, "--cache-dir", str(cache)])
        err = capsys.readouterr().err
        assert code == 2
        assert (
            f"[resume: run {journal.run_id} was recorded with arguments this "
            "version does not accept: --kernel python; rerun the command "
            "without them — finished jobs come from the result cache]"
        ) in err
        assert "usage:" not in err
