"""Self-tests of the benchmark at tiny trace lengths (seconds, not minutes).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = 3000
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def serial():
    return run.measure(run.WORKLOADS["paper-serial"], seed=7, seconds=0,
                       trace=True, length=TINY)


@pytest.fixture(scope="module")
def parallel():
    return run.measure(run.WORKLOADS["paper-parallel"], seed=7, seconds=0,
                       trace=True, length=TINY)


def test_names_match_benchmark_json(serial):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in workloads + end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert workloads == list(run.WORKLOADS)
    untraced = [inv for inv in serial.invocations if inv.mode == "run"]
    assert sorted(run.end_to_end(untraced, [0.5])) == sorted(end_to_end)
    assert sorted(serial.metrics) == sorted(per_layer)


def test_golden_digests_cover_every_workload():
    for workload in run.WORKLOADS.values():
        assert run.expected_digest(workload, 42) is not None, workload.name
        assert run.expected_digest(workload, 10**9) is None
        assert run.expected_digest(workload, 42, length=TINY) is None
    # serial and parallel runs of one job set must print the same output
    assert (run.expected_digest(run.WORKLOADS["paper-serial"], 1)
            == run.expected_digest(run.WORKLOADS["paper-parallel"], 1))


def test_perturbed_table_trips_output_check(serial, tmp_path):
    assert serial.correct
    good = serial.invocations[0]
    table = tmp_path / "stdout"
    table.write_bytes(b"fig9 coverage 61.2%\n")
    clean = run.file_digest([table])
    table.write_bytes(b"fig9 coverage 61.3%\n")
    perturbed = run.Invocation(**{**good.__dict__,
                                  "tables": run.file_digest([table])})
    assert perturbed.tables != clean
    assert run.failed_invocations([good], good.digest) == []
    assert run.failed_invocations([good, perturbed], good.digest) == [1]
    # without a golden digest, disagreeing invocations all fail
    assert run.failed_invocations([good, perturbed], None) == [0, 1]


def test_traced_run_prints_identical_tables(serial, parallel):
    for result in (serial, parallel):
        untraced, traced = result.invocations[0], result.invocations[-1]
        assert (untraced.mode, traced.mode) == ("run", "trace")
        assert untraced.digest == traced.digest
        assert result.failed == 0 and result.attempted > 0
        assert not result.verified  # shortened traces: no golden digest
    assert serial.digest == parallel.digest


def test_layer_self_times_sum_to_traced_wall(serial, parallel):
    total = sum(entry[0] for name, entry in serial.layers.items()
                if name != "engine.workers.idle")
    assert total == pytest.approx(serial.metrics["traced.wall_s"], abs=5e-3)
    # with workers, the runner process alone sums to the traced wall time
    assert parallel.traced_s["worker"] > 0
    assert parallel.traced_s["main"] == pytest.approx(
        parallel.metrics["traced.wall_s"], abs=5e-3
    )


def test_bypassed_layers_read_zero(serial, parallel):
    # paper-serial replays traces recorded before timing ...
    for name in ("workloads.generate.accesses", "workloads.generate.self_s",
                 "tracestore.record.self_s", "engine.worker.self_s"):
        assert serial.metrics[name] == 0, name
    assert serial.metrics["engine.run.self_s"] < (
        0.1 * serial.metrics["traced.run_s"]
    )
    # ... which paper-parallel generates and records in its workers
    assert parallel.metrics["workloads.generate.accesses"] >= 4 * TINY
    assert parallel.metrics["tracestore.record.self_s"] > 0
    assert parallel.metrics["engine.worker.self_s"] > 0


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
