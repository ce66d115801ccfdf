"""Tests for TMS: the circular miss buffer and the streaming prefetcher."""

from repro.common.config import TMSConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import AccessEvent
from repro.prefetch.tms.cmob import CircularMissBuffer
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.trace.events import MemoryAccess


class TestCMOB:
    def test_append_and_find(self):
        cmob = CircularMissBuffer(8)
        cmob.append(100)
        cmob.append(200)
        cmob.append(100)
        assert cmob.find(100) == 2  # most recent occurrence
        assert cmob.find(200) == 1
        assert cmob.find(999) is None

    def test_read_from(self):
        cmob = CircularMissBuffer(8)
        for block in (1, 2, 3, 4):
            cmob.append(block)
        assert [b for b, _, _ in cmob.read_from(1, 2)] == [2, 3]
        assert [b for b, _, _ in cmob.read_from(3, 10)] == [4]
        assert cmob.read_from(4, 4) == []

    def test_wraparound_invalidates_old_entries(self):
        cmob = CircularMissBuffer(4)
        for block in range(10):
            cmob.append(block)
        assert cmob.find(3) is None  # overwritten
        assert cmob.find(9) == 9
        assert cmob.get(3) is None

    def test_index_cleared_on_overwrite(self):
        cmob = CircularMissBuffer(2)
        cmob.append(10)
        cmob.append(11)
        cmob.append(12)  # overwrites 10's slot
        assert cmob.find(10) is None

    def test_payload_preserved(self):
        cmob = CircularMissBuffer(4)
        pos = cmob.append(7, pc=0x42, delta=3)
        entry = cmob.get(pos)
        assert entry == (7, 0x42, 3)

    def test_len(self):
        cmob = CircularMissBuffer(4)
        assert len(cmob) == 0
        for block in range(6):
            cmob.append(block)
        assert len(cmob) == 4


def miss_event(i, block, covered=False, stream_id=-1):
    access = MemoryAccess(index=i, pc=0x1, address=block * 64)
    level = ServiceLevel.SVB if covered else ServiceLevel.MEMORY
    return AccessEvent(access=access, block=block, level=level,
                       covered=covered, stream_id=stream_id)


class TestTMSPrefetcher:
    def test_no_stream_on_first_occurrence(self):
        pf = TMSPrefetcher()
        for i, block in enumerate([1, 2, 3]):
            pf.on_access(miss_event(i, block))
        assert pf.pop_requests() == ()

    def test_stream_starts_on_repeat(self):
        pf = TMSPrefetcher(TMSConfig(initial_fetch=2))
        for i, block in enumerate([1, 2, 3, 4]):
            pf.on_access(miss_event(i, block))
        pf.on_access(miss_event(10, 1))  # 1 recurs: stream [2, 3, ...]
        requests = pf.pop_requests()
        assert [b for b, _, _ in requests] == [2, 3]
        assert requests[0][1] == requests[1][1]

    def test_consumption_extends_stream(self):
        pf = TMSPrefetcher(TMSConfig(initial_fetch=1, lookahead=4))
        for i, block in enumerate([1, 2, 3, 4, 5, 6]):
            pf.on_access(miss_event(i, block))
        pf.on_access(miss_event(10, 1))
        [(first_block, first_stream, _)] = pf.pop_requests()
        assert first_block == 2
        pf.on_access(miss_event(11, 2, covered=True, stream_id=first_stream))
        extended = [b for b, _, _ in pf.pop_requests()]
        assert extended == [3, 4, 5, 6]

    def test_writes_ignored(self):
        pf = TMSPrefetcher()
        access = MemoryAccess(index=0, pc=0x1, address=64, is_write=True)
        pf.on_access(AccessEvent(access=access, block=1,
                                 level=ServiceLevel.MEMORY))
        assert pf.cmob.appends == 0

    def test_covered_events_still_train(self):
        pf = TMSPrefetcher()
        pf.on_access(miss_event(0, 5, covered=True, stream_id=0))
        assert pf.cmob.appends == 1

    def test_l2_hits_do_not_train(self):
        pf = TMSPrefetcher()
        access = MemoryAccess(index=0, pc=0x1, address=64)
        pf.on_access(AccessEvent(access=access, block=1, level=ServiceLevel.L2))
        assert pf.cmob.appends == 0

    def test_resync_instead_of_new_stream(self):
        pf = TMSPrefetcher(TMSConfig(initial_fetch=1, lookahead=4))
        for i, block in enumerate([1, 2, 3, 4, 5, 6]):
            pf.on_access(miss_event(i, block))
        pf.on_access(miss_event(10, 1))
        [(first_block, first_stream, _)] = pf.pop_requests()  # fetched block 2
        allocated_before = pf.queues.allocated
        # demand jumps to 3, which is pending (not yet fetched): re-sync
        pf.on_access(miss_event(11, 3))
        assert pf.queues.allocated == allocated_before
        assert pf.stats["stream_resyncs"] == 1
        blocks = [b for b, _, _ in pf.pop_requests()]
        assert blocks and blocks[0] == 4  # skipped past 3

    def test_svb_discard_releases_inflight(self):
        pf = TMSPrefetcher(TMSConfig(initial_fetch=2, lookahead=2))
        for i, block in enumerate([1, 2, 3, 4, 5]):
            pf.on_access(miss_event(i, block))
        pf.on_access(miss_event(10, 1))
        requests = pf.pop_requests()
        stream_id = requests[0][1]
        queue = pf.queues.get(stream_id)
        inflight_before = queue.inflight
        pf.on_svb_discard(requests[0][0], stream_id)
        assert queue.inflight == inflight_before - 1
