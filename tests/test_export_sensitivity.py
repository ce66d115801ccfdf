"""Tests for result export helpers and the sensitivity/baselines
extension experiments."""

import json
from collections import Counter

import pytest

from repro.analysis.correlation import CorrelationDistanceResult
from repro.analysis.joint import JointCoverageResult
from repro.analysis.repetition import RepetitionBreakdown
from repro.experiments import baselines, sensitivity
from repro.experiments.config import ExperimentConfig
from repro.sim.export import (
    ascii_bars,
    decode_result,
    encode_result,
    write_csv,
    write_json,
)
from repro.sim.results import CoverageResult, TimingResult


@pytest.fixture(scope="module")
def config():
    cfg = ExperimentConfig.small()
    cfg.trace_length = 30_000
    cfg.workloads = ["db2"]
    return cfg


class TestExport:
    def test_write_csv_dataclasses(self, tmp_path):
        rows = [
            CoverageResult("db2", "stems", covered=10, uncovered=30),
            CoverageResult("db2", "tms", covered=5, uncovered=35),
        ]
        path = write_csv(rows, tmp_path / "out.csv")
        text = path.read_text()
        assert "workload" in text.splitlines()[0]
        assert "coverage" in text.splitlines()[0]  # computed property
        assert "stems" in text

    def test_write_json_roundtrip(self, tmp_path):
        rows = [CoverageResult("db2", "stems", covered=10, uncovered=30)]
        path = write_json(rows, tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data[0]["prefetcher"] == "stems"
        assert data[0]["coverage"] == pytest.approx(0.25)

    def test_write_mappings(self, tmp_path):
        path = write_csv([{"a": 1, "b": 2}], tmp_path / "m.csv")
        assert "a,b" in path.read_text()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")

    def test_bad_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_json([42], tmp_path / "x.json")

    def test_ascii_bars(self):
        chart = ascii_bars({"tms": 0.3, "stems": 0.6}, width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # the max fills the width
        assert lines[0].count("#") == 5

    def test_ascii_bars_empty(self):
        assert ascii_bars({}) == ""


class TestResultCodecs:
    """Every result type an engine job can produce must survive a trip
    through plain JSON text — the disk cache depends on it."""

    CASES = [
        CoverageResult(
            "db2", "stems", accesses=100, reads=80, writes=20,
            covered=10, uncovered=30, issued_prefetches=15,
            overpredictions=5, prefetcher_stats={"streams": 3},
        ),
        TimingResult("db2", "tms", cycles=1234.5, instructions=1000,
                     memory_stall_cycles=99.25),
        JointCoverageResult("qry2", 500, 0.1, 0.2, 0.3, 0.4),
        (RepetitionBreakdown(10, 0.4, 0.2, 0.2, 0.2),
         RepetitionBreakdown(5, 0.5, 0.1, 0.2, 0.2)),
        CorrelationDistanceResult(
            "em3d", histogram=Counter({1: 7, -2: 3, 4: 1}), unmatched=2
        ),
    ]

    @pytest.mark.parametrize("result", CASES, ids=lambda r: type(r).__name__)
    def test_json_roundtrip(self, result):
        text = json.dumps(encode_result(result))
        assert decode_result(json.loads(text)) == result

    def test_counter_keys_stay_ints(self):
        decoded = decode_result(
            json.loads(json.dumps(encode_result(self.CASES[-1])))
        )
        assert decoded.histogram[-2] == 3
        assert decoded.cumulative_within(2) == self.CASES[-1].cumulative_within(2)

    def test_unknown_type_rejected_on_encode(self):
        with pytest.raises(TypeError):
            encode_result({"plain": "dict"})

    def test_unknown_tag_rejected_on_decode(self):
        with pytest.raises(ValueError):
            decode_result({"__result__": "NoSuchResult"})


class TestSensitivity:
    def test_sweep_runs_and_orders(self, config):
        points = sensitivity.run(config, knobs=("lookahead",))
        values = [p for p in points if p.workload == "db2"]
        assert [p.value for p in values] == [2, 4, 8, 16]
        assert all(0.0 <= p.coverage <= 1.5 for p in values)
        # more lookahead must not reduce coverage dramatically
        assert values[-1].coverage >= values[0].coverage * 0.8
        assert "sensitivity" in sensitivity.format_table(points).lower()

    def test_unknown_knob_rejected(self, config):
        with pytest.raises(ValueError):
            sensitivity.run(config, knobs=("bogus",))

    def test_svb_knob_changes_system(self, config):
        points = sensitivity.run(config, knobs=("svb_entries",))
        assert {p.value for p in points} == {16, 32, 64, 128}


class TestBaselines:
    def test_lineage_comparison(self, config):
        results = baselines.run(config)
        rows = {r.predictor: r for r in results["db2"]}
        assert set(rows) == {"stride", "markov", "ghb", "tms", "stems"}
        # off-chip history must beat on-chip history on OLTP working sets
        assert rows["stems"].coverage > rows["ghb"].coverage
        assert "lineage" in baselines.format_table(results)
