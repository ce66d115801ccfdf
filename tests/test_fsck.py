"""``repro-fsck`` offline integrity sweep + the perf comparator.

Builds real on-disk state (engine runs with cache, trace store, and
journal), damages it in every way fsck claims to detect — corrupt trace
entries, garbage cache shards, torn and mid-file journal damage, stray
temp files — and asserts the find → ``--repair`` → clean-resweep
ladder, with quarantine evidence left behind.
``tools/bench_compare.py`` is exercised over synthetic bench records.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.engine import Engine, JobGraph, RunJournal, SimJob
from repro.engine.cache import inspect_shard
from repro.engine.journal import encode_line, runs_root
from repro.tools.fsck import main as fsck_main

REPO = Path(__file__).resolve().parent.parent


def small_graph() -> "tuple[JobGraph, list[SimJob]]":
    graph = JobGraph()
    jobs = []
    for workload in ("apache", "em3d"):
        job = SimJob(kind="coverage", workload=workload, length=1500,
                     seed=1, system=SystemConfig.tiny())
        jobs.append(graph.add(job))
    return graph, jobs


@pytest.fixture()
def planes(tmp_path):
    """A populated cache + trace store + sealed journal."""
    cache_dir = tmp_path / "cache"
    store_dir = tmp_path / "traces"
    graph, jobs = small_graph()
    journal = RunJournal.create(
        runs_root(cache_dir), header={"argv": ["fig9"]}
    )
    engine = Engine(cache_dir=cache_dir, trace_store=store_dir,
                    journal=journal)
    engine.run(graph)
    journal.finish("clean")
    return cache_dir, store_dir, jobs


def run_fsck(*argv: str) -> int:
    return fsck_main(list(argv))


class TestFsckSweep:
    def test_clean_state_passes(self, planes, capsys):
        cache_dir, store_dir, _ = planes
        assert run_fsck("--cache-dir", str(cache_dir),
                        "--trace-store", str(store_dir)) == 0
        out = capsys.readouterr().out
        assert "0 damaged" in out

    def test_requires_a_target(self):
        with pytest.raises(SystemExit):
            run_fsck()

    def test_missing_directory_is_an_error(self, tmp_path):
        assert run_fsck("--cache-dir", str(tmp_path / "nope")) == 2

    def test_corrupt_trace_found_and_repaired(self, planes, capsys):
        cache_dir, store_dir, _ = planes
        entry = next(store_dir.glob("??/*.trace"))
        raw = bytearray(entry.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        entry.write_bytes(bytes(raw))

        assert run_fsck("--trace-store", str(store_dir)) == 1
        assert "DAMAGE" in capsys.readouterr().out
        assert run_fsck("--trace-store", str(store_dir), "--repair") == 0
        assert not entry.exists()
        quarantine = store_dir / "quarantine"
        assert list(quarantine.glob("*.trace"))
        assert list(quarantine.glob("*.reason.txt"))
        assert run_fsck("--trace-store", str(store_dir)) == 0

    def test_corrupt_shard_found_and_repaired(self, planes):
        cache_dir, _, _ = planes
        shard = next(cache_dir.glob("??/*.json"))
        shard.write_text("{not json")
        assert run_fsck("--cache-dir", str(cache_dir)) == 1
        assert run_fsck("--cache-dir", str(cache_dir), "--repair") == 0
        assert not shard.exists()
        assert list((cache_dir / "quarantine").glob("*.json"))
        assert run_fsck("--cache-dir", str(cache_dir)) == 0

    def test_renamed_shard_is_hash_mismatch(self, planes):
        cache_dir, _, _ = planes
        shard = next(cache_dir.glob("??/*.json"))
        forged = shard.with_name("ab" * 32 + ".json")
        shard.rename(forged)
        status, detail = inspect_shard(forged)
        assert status == "corrupt"
        assert "mismatch" in detail
        assert run_fsck("--cache-dir", str(cache_dir)) == 1

    def test_torn_journal_truncated_to_valid_prefix(self, planes):
        cache_dir, _, _ = planes
        journal = next(runs_root(cache_dir).glob("*/journal.jsonl"))
        good = journal.read_bytes()
        with journal.open("ab") as handle:
            handle.write(b'deadbeef {"torn":')
        assert run_fsck("--cache-dir", str(cache_dir)) == 1
        assert run_fsck("--cache-dir", str(cache_dir), "--repair") == 0
        assert journal.read_bytes() == good
        assert list(journal.parent.glob("quarantine/journal.jsonl*"))
        assert run_fsck("--cache-dir", str(cache_dir)) == 0

    def test_mid_file_journal_damage_reported_distinctly(self, planes,
                                                         capsys):
        cache_dir, _, _ = planes
        journal = next(runs_root(cache_dir).glob("*/journal.jsonl"))
        lines = journal.read_text().splitlines()
        lines[1] = "00000000 {garbage"
        journal.write_text("\n".join(lines) + "\n")
        assert run_fsck("--cache-dir", str(cache_dir)) == 1
        out = capsys.readouterr().out
        assert "events after it are lost" in out
        assert "torn final line" not in out

    def test_stray_tmp_files_removed(self, planes, capsys):
        cache_dir, store_dir, _ = planes
        stray = store_dir / "ab"
        stray.mkdir(exist_ok=True)
        (stray / "x.trace.tmp.1234").write_bytes(b"partial")
        (cache_dir / "y.json.tmp.77").write_text("partial")
        assert run_fsck("--cache-dir", str(cache_dir),
                        "--trace-store", str(store_dir)) == 1
        assert run_fsck("--cache-dir", str(cache_dir),
                        "--trace-store", str(store_dir), "--repair") == 0
        assert not (stray / "x.trace.tmp.1234").exists()
        assert not (cache_dir / "y.json.tmp.77").exists()

    def test_crashed_run_is_a_note_not_damage(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        journal = RunJournal.create(
            runs_root(cache_dir), header={"argv": [], "pid": 2 ** 22 + 1}
        )
        _, jobs = small_graph()
        journal.job_scheduled(jobs[0])
        journal.close()  # never sealed, and its writer is dead
        assert run_fsck("--cache-dir", str(cache_dir)) == 0
        out = capsys.readouterr().out
        assert "resumable" in out

    def test_stale_shard_is_a_note_not_damage(self, planes, capsys):
        cache_dir, _, _ = planes
        shard = next(cache_dir.glob("??/*.json"))
        document = json.loads(shard.read_text())
        document["repro"] = "0.0.1"
        shard.write_text(json.dumps(document))
        assert run_fsck("--cache-dir", str(cache_dir)) == 0
        assert "note" in capsys.readouterr().out


class TestBenchCompare:
    def _record(self, pr: int, scale: float = 1.0) -> dict:
        return {
            "bench": "faults_smoke", "pr": pr,
            "kinds": {
                "coverage": {"accesses_per_second": 40_000.0 * scale},
                "timing": {"accesses_per_second": 25_000.0 * scale},
            },
            "clean_wall_seconds": 8.0,
        }

    def _run(self, tmp_path, baseline, current, *extra: str):
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        if baseline is not None:
            base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "bench_compare.py"),
             "--current", str(cur_path), "--baseline", str(base_path),
             *extra],
            capture_output=True, text=True,
        )

    def test_within_threshold_passes(self, tmp_path):
        proc = self._run(tmp_path, self._record(6), self._record(7, 0.8))
        assert proc.returncode == 0, proc.stdout

    def test_large_regression_fails(self, tmp_path):
        proc = self._run(tmp_path, self._record(6), self._record(7, 0.5))
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "FAIL" in proc.stderr

    def test_missing_kind_fails(self, tmp_path):
        current = self._record(7)
        del current["kinds"]["timing"]
        proc = self._run(tmp_path, self._record(6), current)
        assert proc.returncode == 1

    def test_missing_baseline_passes(self, tmp_path):
        proc = self._run(tmp_path, None, self._record(7))
        assert proc.returncode == 0
        assert "no baseline" in proc.stdout

    def test_custom_threshold(self, tmp_path):
        proc = self._run(tmp_path, self._record(6), self._record(7, 0.8),
                         "--threshold", "0.1")
        assert proc.returncode == 1

    def test_required_speedup_met(self, tmp_path):
        proc = self._run(tmp_path, self._record(7), self._record(8, 1.6),
                         "--require-speedup", "coverage:1.5")
        assert proc.returncode == 0, proc.stdout
        assert "required speedups met" in proc.stdout

    def test_required_speedup_unmet(self, tmp_path):
        proc = self._run(tmp_path, self._record(7), self._record(8, 1.2),
                         "--require-speedup", "coverage:1.5")
        assert proc.returncode == 1
        assert "UNMET" in proc.stdout
        assert "achieved only" in proc.stderr

    def test_required_speedup_needs_a_baseline(self, tmp_path):
        proc = self._run(tmp_path, None, self._record(8, 2.0),
                         "--require-speedup", "coverage:1.5")
        assert proc.returncode == 2

    def test_required_speedup_missing_kind_fails(self, tmp_path):
        proc = self._run(tmp_path, self._record(7), self._record(8, 2.0),
                         "--require-speedup", "analysis:1.5")
        assert proc.returncode == 1
        assert "cannot verify" in proc.stderr

    @pytest.mark.parametrize("bad", ["coverage", ":1.5", "coverage:zero",
                                     "coverage:-2"])
    def test_malformed_speedup_spec_rejected(self, tmp_path, bad):
        proc = self._run(tmp_path, self._record(7), self._record(8, 2.0),
                         "--require-speedup", bad)
        assert proc.returncode == 2

    def test_pr_number_from_bench_out(self):
        sys.path.insert(0, str(REPO / "benchmarks"))
        try:
            from faults_smoke import pr_number_from_bench_out
        finally:
            sys.path.pop(0)
        assert pr_number_from_bench_out("BENCH_7.json") == 7
        assert pr_number_from_bench_out(Path("x/BENCH_12.json")) == 12
        assert pr_number_from_bench_out("bench.json") is None
        assert pr_number_from_bench_out(None) is None
