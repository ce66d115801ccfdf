"""Tests for the two-level hierarchy and the streamed value buffer."""

import pytest

from repro.common.config import SystemConfig
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.memsys.svb import StreamedValueBuffer


class TestHierarchy:
    def test_first_access_is_offchip(self, tiny_system):
        h = Hierarchy(tiny_system)
        assert h.access(100) == (ServiceLevel.MEMORY, None, False)

    def test_second_access_hits_l1(self, tiny_system):
        h = Hierarchy(tiny_system)
        h.access(100)
        assert h.access(100) == (ServiceLevel.L1, None, False)

    def test_l2_hit_after_l1_eviction(self, tiny_system):
        h = Hierarchy(tiny_system)
        h.access(0)
        # flood L1 (64 blocks in tiny config) without exceeding L2
        for block in range(1, 200):
            h.access(block)
        assert 0 not in h.l1
        level, _, _ = h.access(0)
        assert level is ServiceLevel.L2

    def test_eviction_notification(self, tiny_system):
        h = Hierarchy(tiny_system)
        evicted = []
        for block in range(0, 300):
            _, victim, _ = h.access(block)
            if victim is not None:
                evicted.append(victim)
        assert evicted, "flooding the L1 must produce eviction notices"
        assert all(victim not in h.l1 for victim in evicted)

    def test_install_prefetch_sets_flag_and_fills_l2(self, tiny_system):
        h = Hierarchy(tiny_system)
        h.install_prefetch(42)
        assert 42 in h.l1 and 42 in h.l2
        level, _, prefetch_hit = h.access(42)
        assert level is ServiceLevel.L1
        assert prefetch_hit

    def test_prefetch_hit_only_once(self, tiny_system):
        h = Hierarchy(tiny_system)
        h.install_prefetch(42)
        assert h.access(42)[2]
        assert not h.access(42)[2]

    def test_fill_from_svb_places_block(self, tiny_system):
        h = Hierarchy(tiny_system)
        assert h.fill_from_svb(9) is None  # nothing to evict yet
        assert 9 in h.l1 and 9 in h.l2

    def test_present(self, tiny_system):
        h = Hierarchy(tiny_system)
        assert h.present(5) is None
        h.access(5)
        assert h.present(5) is ServiceLevel.L1

    def test_access_reports_service_levels(self, tiny_system):
        h = Hierarchy(tiny_system)
        levels = [h.access(1)[0], h.access(1)[0]]
        assert levels == [ServiceLevel.MEMORY, ServiceLevel.L1]


class TestSVB:
    def test_insert_consume(self):
        svb = StreamedValueBuffer(4)
        svb.insert(10, stream_id=3)
        assert 10 in svb
        assert svb.consume(10) == 3
        assert 10 not in svb
        assert svb.consume(10) is None

    def test_capacity_eviction_counts_unused(self):
        discards = []
        svb = StreamedValueBuffer(2, on_discard_unused=lambda b, s: discards.append(b))
        svb.insert(1)
        svb.insert(2)
        svb.insert(3)
        assert discards == [1]
        assert svb.discarded_unused == 1

    def test_reinsert_refreshes(self):
        svb = StreamedValueBuffer(2)
        svb.insert(1)
        svb.insert(2)
        svb.insert(1)  # refresh
        svb.insert(3)  # evicts 2, not 1
        assert 1 in svb and 2 not in svb

    def test_invalidate_stream(self):
        svb = StreamedValueBuffer(8)
        svb.insert(1, stream_id=7)
        svb.insert(2, stream_id=7)
        svb.insert(3, stream_id=8)
        assert svb.invalidate_stream(7) == 2
        assert 3 in svb and 1 not in svb

    def test_drain_unused(self):
        svb = StreamedValueBuffer(8)
        svb.insert(1)
        svb.insert(2)
        svb.consume(1)
        assert svb.drain_unused() == 1
        assert len(svb) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            StreamedValueBuffer(0)

    def test_counters(self):
        svb = StreamedValueBuffer(4)
        svb.insert(1)
        svb.insert(2)
        svb.consume(2)
        assert svb.inserted == 2
        assert svb.consumed == 1
