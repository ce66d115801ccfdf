"""Tests for the Fig. 6/7/8 analysis pipelines on constructed traces."""

import pytest

from repro.analysis.correlation import CorrelationDistanceAnalysis
from repro.analysis.joint import JointPredictabilityAnalysis
from repro.analysis.repetition import MissSequenceExtractor, RepetitionAnalysis
from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import SystemConfig
from repro.engine import KIND_JOINT, SimJob
from repro.engine.exec import analysis_for_job
from repro.trace.container import Trace

AMAP = DEFAULT_ADDRESS_MAP


def region_visit(trace, region, offsets, pc=0x1000):
    for step, off in enumerate(offsets):
        trace.append(pc=pc + step * 4,
                     address=AMAP.block_in_region(region, off) * 64)


@pytest.fixture
def system():
    return SystemConfig.tiny()


class TestMissAndTriggerSequences:
    def test_triggers_subset_of_misses(self, system):
        trace = Trace("t")
        for region in range(50):
            region_visit(trace, 1000 + region, [0, 3, 7])
        misses, triggers = MissSequenceExtractor(system).consume(trace)
        assert set(triggers) <= set(misses)
        assert len(triggers) < len(misses)

    def test_cached_accesses_excluded(self, system):
        trace = Trace("t")
        region_visit(trace, 1, [0, 0, 0, 0])  # three L1 hits
        misses, _ = MissSequenceExtractor(system).consume(trace)
        assert len(misses) == 1


class TestJointAnalysis:
    def test_compulsory_scan_is_sms_only(self, system):
        trace = Trace("scan")
        for region in range(200):
            region_visit(trace, 5000 + region, [0, 4, 9])
        result = JointPredictabilityAnalysis(system).consume(trace)
        assert result.sms_only > 0.5
        assert result.tms_only < 0.1

    def test_repeating_random_chain_is_temporal(self, system):
        import random
        rng = random.Random(1)
        # unique single-block regions visited in the same order twice
        regions = rng.sample(range(10000, 60000), 600)
        trace = Trace("chain")
        for _ in range(3):
            for region in regions:
                region_visit(trace, region, [0])
        result = JointPredictabilityAnalysis(system).consume(trace)
        assert result.temporal > 0.5
        assert result.sms_only < 0.1

    def test_unique_noise_is_neither(self, system):
        trace = Trace("noise")
        for region in range(500):
            region_visit(trace, 7000 + region * 3, [region % 32])
        result = JointPredictabilityAnalysis(system).consume(trace)
        assert result.neither > 0.8

    def test_skip_fraction_bounds(self, system):
        # the engine resolves skip_fraction against the job's length and
        # rejects a fraction that would leave no access measured
        job = SimJob.make(KIND_JOINT, "db2", 1000, 0, system,
                          skip_fraction=1.0)
        with pytest.raises(ValueError, match="skip_fraction"):
            analysis_for_job(job)

    def test_fractions_sum_to_one(self, system):
        trace = Trace("t")
        for region in range(100):
            region_visit(trace, region * 7, [0, 2])
        r = JointPredictabilityAnalysis(system).consume(trace)
        assert r.both + r.tms_only + r.sms_only + r.neither == pytest.approx(1.0)
        assert r.joint == pytest.approx(1.0 - r.neither)


class TestCorrelationAnalysis:
    def test_perfect_repetition_is_plus_one(self, system):
        trace = Trace("rep")
        offsets = [0, 3, 7, 11]
        # same index, same order, different regions; evictions via floods
        for region in range(300):
            region_visit(trace, 2000 + region, offsets)
        result = CorrelationDistanceAnalysis(system).consume(trace)
        assert result.fraction_at(1) > 0.95
        assert result.cumulative_within(2) > 0.95

    def test_swapped_order_within_window(self, system):
        trace = Trace("swap")
        for region in range(300):
            order = [0, 3, 7, 11] if region % 2 == 0 else [0, 7, 3, 11]
            region_visit(trace, 2000 + region, order)
        result = CorrelationDistanceAnalysis(system).consume(trace)
        assert result.cumulative_within(2) > 0.9
        assert result.fraction_at(1) < 0.9  # reordering mass exists

    def test_disjoint_patterns_unmatched(self, system):
        trace = Trace("disjoint")
        for region in range(200):
            offs = [0, 5, 9] if region % 2 == 0 else [0, 12, 20]
            region_visit(trace, 2000 + region, offs)
        result = CorrelationDistanceAnalysis(system).consume(trace)
        assert result.matched_fraction < 0.6

    def test_cdf_rows_monotone(self, system):
        trace = Trace("cdf")
        for region in range(100):
            region_visit(trace, 2000 + region, [0, 3, 7])
        rows = CorrelationDistanceAnalysis(system).consume(trace).cdf_rows()
        values = [v for _, v in rows]
        assert values == sorted(values)
        assert 0 not in [d for d, _ in rows]


class TestRepetitionAnalysis:
    def test_repeating_workload_shows_opportunity(self, system):
        import random
        rng = random.Random(2)
        regions = rng.sample(range(10000, 50000), 400)
        trace = Trace("rep")
        for _ in range(4):
            for region in regions:
                region_visit(trace, region, [0])
        all_misses, triggers = RepetitionAnalysis(system).consume(trace)
        assert all_misses.opportunity > 0.4
        assert triggers.opportunity > 0.4

    def test_max_elements_bounds_input(self, system):
        trace = Trace("b")
        for region in range(300):
            region_visit(trace, region * 11, [0])
        analysis = RepetitionAnalysis(system, max_elements=50)
        all_misses, _ = analysis.consume(trace)
        assert all_misses.total <= 50
