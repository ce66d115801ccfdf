"""Tests for the coverage driver and the analytical timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import SystemConfig, TimingConfig
from repro.engine import PrefetcherSpec, SimJob, execute_job
from repro.prefetch.base import Prefetcher, TARGET_L1, TARGET_SVB
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.sim.results import (
    SERVICE_L1,
    SERVICE_L2,
    SERVICE_MEMORY,
    SERVICE_PREFETCHED_L1,
    SERVICE_SVB,
)
from repro.sim.timing import TimingModel, simulate_timing
from repro.trace.container import Trace

AMAP = DEFAULT_ADDRESS_MAP


class _ScriptedPrefetcher(Prefetcher):
    """Test double: issues a fixed request after the Nth access."""

    name = "scripted"

    def __init__(self, fire_at, requests, target=TARGET_SVB):
        super().__init__()
        self._target = target
        self._fire_at = fire_at
        self._requests = requests
        self._count = 0

    def on_access(self, event):
        self._count += 1
        if self._count == self._fire_at:
            for b in self._requests:
                self._request(b, target=self._target, stream_id=1)


def simple_trace(blocks, name="t", deps=None, gaps=None):
    trace = Trace(name)
    for i, b in enumerate(blocks):
        trace.append(
            pc=0x1,
            address=b * 64,
            depends_on=None if deps is None else deps[i],
            instr_gap=4 if gaps is None else gaps[i],
        )
    return trace


class TestDriverAccounting:
    def test_baseline_counts(self, tiny_system):
        trace = simple_trace([1, 2, 1, 2])
        result = SimulationDriver(tiny_system, None).run(trace)
        assert result.uncovered == 2
        assert result.l1_hits == 2
        assert result.covered == 0
        assert result.baseline_misses == 2

    def test_svb_prefetch_covers(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=1, requests=[50])
        trace = simple_trace([1, 50])
        result = SimulationDriver(tiny_system, pf).run(trace)
        assert result.covered == 1
        assert result.uncovered == 1  # the first access
        assert result.issued_prefetches == 1
        assert result.overpredictions == 0

    def test_unused_svb_prefetch_is_overprediction(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=1, requests=[50])
        trace = simple_trace([1, 2])
        result = SimulationDriver(tiny_system, pf).run(trace)
        assert result.covered == 0
        assert result.overpredictions == 1

    def test_l1_install_covers(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=1, requests=[50], target=TARGET_L1)
        trace = simple_trace([1, 50])
        result = SimulationDriver(tiny_system, pf).run(trace)
        assert result.covered == 1

    def test_evicted_unused_l1_install_is_overprediction(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=1, requests=[50], target=TARGET_L1)
        # 128 blocks through the 64-block L1 evict the prefetch unused
        trace = simple_trace([1] + list(range(100, 228)))
        result = SimulationDriver(tiny_system, pf).run(trace)
        assert result.covered == 0
        assert result.issued_prefetches == 1
        assert result.overpredictions == 1

    def test_prefetcher_stats_reported_without_finish(self, tiny_system):
        # TMS has no finish(); its counters still reach the result. The
        # second pass over 1000 blocks (> L2) recurs off chip and streams.
        trace = simple_trace(list(range(0, 3000, 3)) * 2)
        result = SimulationDriver(tiny_system, TMSPrefetcher()).run(trace)
        assert result.covered > 0
        assert result.prefetcher_stats["streams_allocated"] >= 1
        stride = SimulationDriver(tiny_system, StridePrefetcher()).run(trace)
        assert stride.prefetcher_stats["predictions"] > 0

    def test_prefetch_of_resident_block_dropped(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=2, requests=[1])
        trace = simple_trace([1, 2, 1])
        result = SimulationDriver(tiny_system, pf).run(trace)
        assert result.issued_prefetches == 0

    def test_request_without_target_rejected(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=1, requests=[50], target=None)
        trace = simple_trace([1, 2])
        with pytest.raises(ValueError, match="unknown prefetch target None"):
            SimulationDriver(tiny_system, pf).run(trace)

    def test_writes_not_counted_as_covered(self, tiny_system):
        pf = _ScriptedPrefetcher(fire_at=1, requests=[50])
        trace = Trace("w")
        trace.append(pc=1, address=64)
        trace.append(pc=1, address=50 * 64, is_write=True)
        result = SimulationDriver(tiny_system, pf).run(trace)
        assert result.covered == 0
        assert result.writes == 1

    def test_service_recording(self, tiny_system):
        class Recorder:
            def __init__(self):
                self.service = []

            def update(self, access, service_class):
                self.service.append(service_class)

        trace = simple_trace([1, 1])
        recorder = Recorder()
        SimulationDriver(tiny_system, None, service_consumer=recorder).run(trace)
        assert recorder.service == [SERVICE_MEMORY, SERVICE_L1]

    def test_coverage_properties(self, tiny_system):
        trace = simple_trace([1, 2, 3])
        result = SimulationDriver(tiny_system, None).run(trace)
        assert result.coverage == 0.0
        assert result.overprediction_rate == 0.0
        assert result.accuracy == 0.0


@settings(deadline=None, max_examples=25)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=400),
                    min_size=1, max_size=300),
)
def test_driver_conservation_invariant(blocks):
    """reads = covered + uncovered + l1_hits + l2_hits for any trace."""
    system = SystemConfig.tiny()
    trace = simple_trace(blocks)
    result = SimulationDriver(system, STeMSPrefetcher()).run(trace)
    assert result.reads == (
        result.covered + result.uncovered + result.l1_hits + result.l2_hits
    )
    assert result.covered <= result.issued_prefetches


class TestTimingModel:
    def test_length_mismatch_rejected(self):
        trace = simple_trace([1])
        with pytest.raises(ValueError):
            simulate_timing(trace, [])

    def test_hits_faster_than_misses(self):
        trace = simple_trace(list(range(50)))
        fast = simulate_timing(trace, [SERVICE_L1] * 50)
        slow = simulate_timing(trace, [SERVICE_MEMORY] * 50)
        assert fast.cycles < slow.cycles

    def test_dependent_misses_serialize(self):
        n = 40
        deps = [None] + list(range(n - 1))
        chained = simple_trace(list(range(n)), deps=deps)
        parallel = simple_trace(list(range(n)))
        t_chain = simulate_timing(chained, [SERVICE_MEMORY] * n)
        t_par = simulate_timing(parallel, [SERVICE_MEMORY] * n)
        assert t_chain.cycles > 2.5 * t_par.cycles

    def test_covering_dependent_chain_wins_big(self):
        n = 40
        deps = [None] + list(range(n - 1))
        trace = simple_trace(list(range(n)), deps=deps)
        uncovered = simulate_timing(trace, [SERVICE_MEMORY] * n)
        covered = simulate_timing(trace, [SERVICE_SVB] * n)
        assert uncovered.cycles / covered.cycles > 5

    def test_covering_overlapped_misses_wins_less(self):
        """The paper's SMS-on-OLTP effect: independent misses already
        overlap, so coverage saves much less than on chains."""
        n = 40
        deps = [None] + list(range(n - 1))
        chain = simple_trace(list(range(n)), deps=deps)
        indep = simple_trace(list(range(n)))
        chain_gain = (
            simulate_timing(chain, [SERVICE_MEMORY] * n).cycles
            / simulate_timing(chain, [SERVICE_SVB] * n).cycles
        )
        indep_gain = (
            simulate_timing(indep, [SERVICE_MEMORY] * n).cycles
            / simulate_timing(indep, [SERVICE_SVB] * n).cycles
        )
        assert chain_gain > 2 * indep_gain

    def test_mlp_cap_limits_overlap(self):
        n = 64
        trace = simple_trace(list(range(n)))
        wide = simulate_timing(
            trace, [SERVICE_MEMORY] * n,
            TimingConfig(max_outstanding_misses=16),
        )
        narrow = simulate_timing(
            trace, [SERVICE_MEMORY] * n,
            TimingConfig(max_outstanding_misses=2),
        )
        assert narrow.cycles > wide.cycles

    def test_measure_from_excludes_warmup(self):
        n = 100
        trace = simple_trace(list(range(n)))
        service = [SERVICE_MEMORY] * 50 + [SERVICE_L1] * 50
        full = simulate_timing(trace, service)
        tail = simulate_timing(trace, service, measure_from=50)
        assert tail.cycles < full.cycles
        assert tail.instructions == sum(a.instr_gap for a in trace) // 2

    def test_measure_from_validation(self):
        trace = simple_trace([1])
        with pytest.raises(ValueError):
            simulate_timing(trace, [SERVICE_L1], measure_from=5)
        # a warm-up covering the whole trace leaves nothing to measure
        with pytest.raises(ValueError):
            simulate_timing(trace, [SERVICE_L1], measure_from=len(trace))
        model = TimingModel(measure_from=1)
        model.update(trace[0], SERVICE_L1)
        with pytest.raises(ValueError, match="measure_from"):
            model.finalize()

    def test_job_warmup_fraction_must_leave_a_measured_window(self):
        job = SimJob(
            kind="timing", workload="db2", length=3000, seed=1,
            system=SystemConfig.tiny(), prefetcher=PrefetcherSpec("stride"),
            params=(("warmup_fraction", 1.5),),
        )
        with pytest.raises(ValueError, match="warmup_fraction"):
            execute_job(job)

    def test_ipc_and_speedup(self):
        trace = simple_trace([1, 2, 3])
        a = simulate_timing(trace, [SERVICE_L1] * 3)
        b = simulate_timing(trace, [SERVICE_MEMORY] * 3)
        assert a.ipc > b.ipc
        assert a.speedup_over(b) > 1.0

    def test_prefetched_l1_service_latency(self):
        trace = simple_trace([1, 2, 3])
        pf = simulate_timing(trace, [SERVICE_PREFETCHED_L1] * 3)
        l1 = simulate_timing(trace, [SERVICE_L1] * 3)
        assert pf.cycles == pytest.approx(l1.cycles)
