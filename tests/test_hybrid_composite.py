"""Tests for the naive hybrid and the stride+X composite."""

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import SystemConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import AccessEvent, TARGET_L1, TARGET_SVB
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.hybrid import NaiveHybridPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.trace.container import Trace
from repro.trace.events import MemoryAccess

AMAP = DEFAULT_ADDRESS_MAP


def event(i, block, pc=0x1):
    access = MemoryAccess(index=i, pc=pc, address=block * 64)
    return AccessEvent(access=access, block=block, level=ServiceLevel.MEMORY)


class TestNaiveHybrid:
    def test_requests_carry_per_engine_targets(self):
        pf = NaiveHybridPrefetcher()
        # train both constituents, then trigger both kinds of predictions
        blocks = [AMAP.block_in_region(r, 0) for r in (1, 2, 3)]
        for i, b in enumerate(blocks):
            pf.on_access(event(i, b))
            pf.on_access(event(100 + i, AMAP.block_in_region(i + 1, 5)))
        pf.on_l1_eviction(AMAP.block_in_region(1, 5))
        pf.pop_requests()
        pf.on_access(event(50, blocks[0]))  # TMS stream + SMS trigger
        requests = pf.pop_requests()
        targets = {target for _, _, target in requests}
        assert TARGET_SVB in targets  # TMS side produced stream fetches

    def test_both_engines_observe(self):
        pf = NaiveHybridPrefetcher()
        pf.on_access(event(0, 5))
        assert pf.tms.cmob.appends == 1
        assert pf.sms.agt.generations_started == 1

    def test_runs_in_driver(self):
        trace = Trace("h")
        for repeat in range(2):
            for region in range(100):
                for off in (0, 3, 7):
                    trace.append(pc=0x10 + off, address=AMAP.block_in_region(
                        1000 + region, off) * 64)
        result = SimulationDriver(SystemConfig.tiny(), NaiveHybridPrefetcher()).run(trace)
        assert result.covered > 0

    def test_svb_discard_forwarded_to_tms(self):
        pf = NaiveHybridPrefetcher()
        pf.on_svb_discard(5, 3)  # no stream: must not raise


class TestComposite:
    def test_name_and_target(self):
        pf = CompositePrefetcher(StridePrefetcher(), TMSPrefetcher())
        assert pf.name == "stride+tms"
        # distinct PCs keep the stride engine quiet: only TMS requests
        blocks = [AMAP.block_in_region(r, 0) for r in (1, 2, 3)]
        for i, b in enumerate(blocks):
            pf.on_access(event(i, b, pc=0x10 + i))
        pf.pop_requests()
        pf.on_access(event(50, blocks[0], pc=0x10))  # recurrence: TMS streams
        requests = pf.pop_requests()
        assert requests
        assert all(target == TARGET_SVB for _, _, target in requests)

    def test_stride_requests_target_l1(self):
        pf = CompositePrefetcher(StridePrefetcher(), STeMSPrefetcher())
        for i, b in enumerate([100, 101, 102]):
            pf.on_access(event(i, b, pc=0x99))
        requests = pf.pop_requests()
        stride_reqs = [r for r in requests if r[2] == TARGET_L1]
        assert stride_reqs, "stride engine must produce L1-bound requests"

    def test_composite_in_driver_beats_nothing(self):
        trace = Trace("c")
        for i in range(400):
            trace.append(pc=0x7, address=i * 64)
        baseline = SimulationDriver(SystemConfig.tiny(), None).run(trace)
        result = SimulationDriver(
            SystemConfig.tiny(), TMSPrefetcher(), stride=True
        ).run(trace)
        assert result.covered > 0  # the stride engine covers the scan
        assert baseline.uncovered > result.uncovered

    def test_finish_propagates(self):
        pf = CompositePrefetcher(StridePrefetcher(), STeMSPrefetcher())
        pf.on_access(event(0, AMAP.block_in_region(1, 0)))
        pf.finish()  # must not raise
