"""Tests for SMS: generations (AGT), pattern history table, prefetcher."""

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import TARGET_L1, AccessEvent
from repro.prefetch.sms.generations import ActiveGenerationTable
from repro.prefetch.sms.pht import PatternHistoryTable
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.trace.events import MemoryAccess

AMAP = DEFAULT_ADDRESS_MAP


def block(region, offset):
    return AMAP.block_in_region(region, offset)


class TestAGT:
    def test_trigger_detection(self):
        agt = ActiveGenerationTable(8, AMAP)
        assert agt.observe(0x1, block(5, 0), offchip=True)[0]
        assert not agt.observe(0x2, block(5, 3), offchip=True)[0]
        assert agt.observe(0x1, block(6, 0), offchip=True)[0]

    def test_records_first_touch_order(self):
        agt = ActiveGenerationTable(8, AMAP)
        agt.observe(0x1, block(5, 2), offchip=True)
        agt.observe(0x1, block(5, 7), offchip=True)
        agt.observe(0x1, block(5, 7), offchip=False)  # re-touch ignored
        agt.observe(0x1, block(5, 4), offchip=True)
        record = agt.get(5)
        assert record.trigger_offset == 2
        assert [e.offset for e in record.elements] == [7, 4]

    def test_generation_ends_on_accessed_block_eviction(self):
        ended = []
        agt = ActiveGenerationTable(8, AMAP, on_generation_end=ended.append)
        agt.observe(0x1, block(5, 0), offchip=True)
        agt.observe(0x1, block(5, 3), offchip=True)
        agt.on_l1_eviction(block(5, 9))  # untouched block: generation lives
        assert not ended
        agt.on_l1_eviction(block(5, 3))  # touched block: generation ends
        assert len(ended) == 1
        assert not agt.is_active(5)

    def test_capacity_displacement_trains(self):
        ended = []
        agt = ActiveGenerationTable(2, AMAP, on_generation_end=ended.append)
        for region in range(3):
            agt.observe(0x1, block(region, 0), offchip=True)
        assert len(ended) == 1
        assert ended[0].region == 0

    def test_deltas_count_intervening_misses(self):
        agt = ActiveGenerationTable(8, AMAP)
        agt.observe(0x1, block(5, 0), offchip=True, global_miss_count=10)
        # next element 3 misses later: deltas measure strictly-between misses
        agt.observe(0x1, block(5, 4), offchip=True, global_miss_count=14)
        record = agt.get(5)
        assert record.elements[0].delta == 3

    def test_flush_ends_everything(self):
        ended = []
        agt = ActiveGenerationTable(8, AMAP, on_generation_end=ended.append)
        agt.observe(0x1, block(1, 0), offchip=True)
        agt.observe(0x1, block(2, 0), offchip=True)
        agt.flush()
        assert len(ended) == 2


class TestPHT:
    def test_bit_vector_mode_overwrites(self):
        pht = PatternHistoryTable(SMSConfig(use_counters=False), 32)
        pht.train((1, 0), {0, 3, 5})
        assert pht.predict((1, 0)) == [0, 3, 5]
        pht.train((1, 0), {0, 7})
        assert pht.predict((1, 0)) == [0, 7]

    def test_counters_learn_stable_blocks(self):
        pht = PatternHistoryTable(SMSConfig(), 32)
        pht.train((1, 0), {0, 3, 5})      # new entry: predicted immediately
        assert pht.predict((1, 0)) == [0, 3, 5]
        pht.train((1, 0), {0, 3, 9})      # 9 joins below threshold
        predicted = pht.predict((1, 0))
        assert 9 not in predicted
        assert 0 in predicted and 3 in predicted

    def test_counters_forget_unstable_blocks(self):
        pht = PatternHistoryTable(SMSConfig(), 32)
        pht.train((1, 0), {0, 3, 5})
        for _ in range(4):
            pht.train((1, 0), {0, 3})  # 5 decrements to zero and drops out
        assert 5 not in pht.predict((1, 0))

    def test_unknown_index_predicts_nothing(self):
        pht = PatternHistoryTable(SMSConfig(), 32)
        assert pht.predict((9, 9)) == []

    def test_offsets_out_of_range_ignored(self):
        pht = PatternHistoryTable(SMSConfig(), 32)
        pht.train((1, 0), {0, 3, 99})
        assert 99 not in pht.predict((1, 0))

    def test_lru_capacity(self):
        pht = PatternHistoryTable(SMSConfig(pht_entries=2), 32)
        pht.train((1, 0), {1})
        pht.train((2, 0), {2})
        pht.train((3, 0), {3})
        assert pht.predict((1, 0)) == []


def run_sms(accesses, config=None):
    """Feed (pc, region, offset, level) tuples; return the prefetcher."""
    pf = SMSPrefetcher(config or SMSConfig())
    for i, (pc, region, offset, level) in enumerate(accesses):
        b = block(region, offset)
        access = MemoryAccess(index=i, pc=pc, address=b * 64)
        pf.on_access(AccessEvent(access=access, block=b, level=level))
    return pf


class TestSMSPrefetcher:
    def test_predicts_learned_pattern_on_new_region(self):
        mem = ServiceLevel.MEMORY
        pf = run_sms([(0x1, 5, 0, mem), (0x2, 5, 3, mem), (0x2, 5, 7, mem)])
        pf.pop_requests()
        # end the generation (train), then trigger a different region
        pf.on_l1_eviction(block(5, 3))
        access = MemoryAccess(index=10, pc=0x1, address=block(9, 0) * 64)
        pf.on_access(AccessEvent(access=access, block=block(9, 0), level=mem))
        predicted = sorted(b for b, _, _ in pf.pop_requests())
        assert predicted == [block(9, 3), block(9, 7)]

    def test_no_prediction_without_history(self):
        pf = run_sms([(0x1, 5, 0, ServiceLevel.MEMORY)])
        assert pf.pop_requests() == ()

    def test_trigger_offset_part_of_index(self):
        mem = ServiceLevel.MEMORY
        pf = run_sms([(0x1, 5, 4, mem), (0x2, 5, 6, mem)])
        pf.on_l1_eviction(block(5, 6))
        # same PC but different trigger offset: different index, no match
        access = MemoryAccess(index=10, pc=0x1, address=block(9, 0) * 64)
        pf.on_access(AccessEvent(access=access, block=block(9, 0),
                                 level=ServiceLevel.MEMORY))
        assert pf.pop_requests() == ()

    def test_finish_flushes_training(self):
        mem = ServiceLevel.MEMORY
        pf = run_sms([(0x1, 5, 0, mem), (0x2, 5, 3, mem)])
        pf.pop_requests()
        pf.finish()  # trains via flush
        access = MemoryAccess(index=10, pc=0x1, address=block(9, 0) * 64)
        pf.on_access(AccessEvent(access=access, block=block(9, 0), level=mem))
        assert [b for b, _, _ in pf.pop_requests()] == [block(9, 3)]

    def test_requests_target_l1(self):
        mem = ServiceLevel.MEMORY
        pf = run_sms([(0x1, 5, 0, mem), (0x2, 5, 3, mem)])
        pf.on_l1_eviction(block(5, 3))  # ends the generation: trains
        access = MemoryAccess(index=10, pc=0x1, address=block(9, 0) * 64)
        pf.on_access(AccessEvent(access=access, block=block(9, 0), level=mem))
        requests = pf.pop_requests()
        assert requests
        assert all(target == TARGET_L1 for _, _, target in requests)
