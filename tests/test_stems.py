"""Behavioural tests for the STeMS prefetcher (training, RMOB filtering,
reconstructed streams, spatial-only streams, throttling)."""

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import STeMSConfig, SystemConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import AccessEvent
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.trace.container import Trace
from repro.trace.events import MemoryAccess

AMAP = DEFAULT_ADDRESS_MAP


def block(region, offset):
    return AMAP.block_in_region(region, offset)


def miss(pf, i, b, pc=0x1, covered=False, stream_id=-1, level=None):
    access = MemoryAccess(index=i, pc=pc, address=b * 64)
    if level is None:
        level = ServiceLevel.SVB if covered else ServiceLevel.MEMORY
    pf.on_access(AccessEvent(access=access, block=b, level=level,
                             covered=covered, stream_id=stream_id))


class TestTraining:
    def test_triggers_always_appended_to_rmob(self):
        pf = STeMSPrefetcher()
        miss(pf, 0, block(1, 0))
        assert pf.stats["rmob_appends"] == 1

    def test_spatially_predicted_misses_filtered(self):
        pf = STeMSPrefetcher()
        # teach the PST: generation (pc 0x1, offset 0) -> offset 3
        miss(pf, 0, block(1, 0), pc=0x1)
        miss(pf, 1, block(1, 3), pc=0x2)
        pf.on_l1_eviction(block(1, 3))  # train
        # replay on a new region: the trigger appends, offset 3 is filtered
        miss(pf, 2, block(2, 0), pc=0x1)
        appends_before = pf.stats["rmob_appends"]
        miss(pf, 3, block(2, 3), pc=0x2)
        assert pf.stats["rmob_appends"] == appends_before
        assert pf.stats["rmob_filtered"] == 1

    def test_unpredicted_spatial_misses_appended(self):
        pf = STeMSPrefetcher()
        miss(pf, 0, block(1, 0))
        miss(pf, 1, block(1, 9))  # nothing learned yet: spatial miss
        assert pf.stats["rmob_appends"] == 2

    def test_rmob_deltas_count_filtered_misses(self):
        pf = STeMSPrefetcher()
        miss(pf, 0, block(1, 0), pc=0x1)
        miss(pf, 1, block(1, 3), pc=0x2)
        pf.on_l1_eviction(block(1, 3))
        miss(pf, 2, block(2, 0), pc=0x1)   # trigger (append)
        miss(pf, 3, block(2, 3), pc=0x2)   # filtered
        miss(pf, 4, block(3, 0), pc=0x9)   # trigger: delta must be 1
        entry_block, _, delta = pf.rmob.get(pf.rmob.head - 1)
        assert entry_block == block(3, 0)
        assert delta == 1

    def test_l2_hits_do_not_advance_miss_count(self):
        pf = STeMSPrefetcher()
        miss(pf, 0, block(1, 0))
        miss(pf, 1, block(1, 5), level=ServiceLevel.L2)
        assert pf._miss_count == 1


class TestSpatialOnlyStreams:
    def test_stream_on_unpredicted_generation(self):
        pf = STeMSPrefetcher()
        # train pattern (0x1, 0) -> offsets 3, 7
        miss(pf, 0, block(1, 0), pc=0x1)
        miss(pf, 1, block(1, 3), pc=0x2)
        miss(pf, 2, block(1, 7), pc=0x2)
        pf.on_l1_eviction(block(1, 3))
        pf.pop_requests()
        # new region trigger with the learned index: spatial-only stream
        miss(pf, 3, block(5, 0), pc=0x1)
        requests = pf.pop_requests()
        assert pf.stats["spatial_only_streams"] == 1
        # throttled start: initial_fetch blocks, in sequence order
        assert [b for b, _, _ in requests] == [block(5, 3), block(5, 7)][
            : STeMSConfig().initial_fetch
        ]

    def test_consumption_extends_spatial_stream(self):
        pf = STeMSPrefetcher(STeMSConfig(initial_fetch=1))
        miss(pf, 0, block(1, 0), pc=0x1)
        for i, off in enumerate((3, 7, 9, 12), start=1):
            miss(pf, i, block(1, off), pc=0x2)
        pf.on_l1_eviction(block(1, 3))
        pf.pop_requests()
        miss(pf, 10, block(5, 0), pc=0x1)
        [(first_block, first_stream, _)] = pf.pop_requests()
        assert first_block == block(5, 3)
        miss(pf, 11, block(5, 3), pc=0x2, covered=True,
             stream_id=first_stream)
        extended = [b for b, _, _ in pf.pop_requests()]
        assert extended == [block(5, 7), block(5, 9), block(5, 12)]

    def test_no_stream_without_pst_entry(self):
        pf = STeMSPrefetcher()
        miss(pf, 0, block(5, 0), pc=0x77)
        assert pf.pop_requests() == ()
        assert pf.stats["spatial_only_streams"] == 0


class TestReconstructedStreams:
    def test_stream_on_rmob_hit(self):
        pf = STeMSPrefetcher(STeMSConfig(initial_fetch=4))
        blocks = [block(r, 0) for r in (1, 2, 3, 4)]
        for i, b in enumerate(blocks):
            miss(pf, i, b, pc=0x1 + i * 4)
        pf.pop_requests()
        miss(pf, 10, blocks[0], pc=0x1)  # recurs: reconstruct from here
        requests = [b for b, _, _ in pf.pop_requests()]
        assert requests == blocks[1:]
        assert pf.stats["reconstructed_streams"] == 1

    def test_reconstruction_interleaves_spatial_sequences(self):
        pf = STeMSPrefetcher(STeMSConfig(initial_fetch=8))
        # teach spatial pattern for (0x1, 0): offset 4 follows immediately
        miss(pf, 0, block(1, 0), pc=0x1)
        miss(pf, 1, block(1, 4), pc=0x2)
        pf.on_l1_eviction(block(1, 4))
        # temporal sequence with a filtered spatial miss inside
        miss(pf, 2, block(2, 0), pc=0x1)   # trigger (appended)
        miss(pf, 3, block(2, 4), pc=0x2)   # filtered (predicted)
        miss(pf, 4, block(3, 0), pc=0x9)   # appended, delta 1
        pf.pop_requests()
        miss(pf, 10, block(2, 0), pc=0x1)  # recurs
        requests = [b for b, _, _ in pf.pop_requests()]
        # reconstruction: slot0 = trigger (excluded), slot1 = spatial 2.4,
        # slot2 = next trigger 3.0
        assert requests == [block(2, 4), block(3, 0)]


class TestEndToEnd:
    def test_repeating_scan_covered_in_driver(self):
        """A page-structured scan repeated twice: second pass must be
        substantially covered by spatial-only streams."""
        trace = Trace("scan2x")
        offsets = [0, 2, 5, 9, 11]
        for repeat in range(2):
            for page in range(300):
                region = 1000 + page
                for step, off in enumerate(offsets):
                    trace.append(
                        pc=0x1000 + step * 4,
                        address=AMAP.block_in_region(region, off) * 64,
                    )
        result = SimulationDriver(SystemConfig.tiny(), STeMSPrefetcher()).run(trace)
        assert result.coverage > 0.5
        assert result.overprediction_rate < 0.2

    def test_finish_is_idempotent(self):
        pf = STeMSPrefetcher()
        miss(pf, 0, block(1, 0))
        pf.finish()
        pf.finish()
