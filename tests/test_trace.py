"""Tests for trace records, containers and statistics."""

import pytest

from repro.trace.container import Trace
from repro.trace.events import MemoryAccess
from repro.trace.tracestats import summarize_trace


class TestMemoryAccess:
    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            MemoryAccess(index=0, pc=0, address=-1)

    def test_rejects_forward_dependence(self):
        with pytest.raises(ValueError):
            MemoryAccess(index=3, pc=0, address=0, depends_on=3)

    def test_valid_dependence(self):
        access = MemoryAccess(index=3, pc=0, address=0, depends_on=1)
        assert access.depends_on == 1


class TestTrace:
    def test_append_assigns_indices(self):
        trace = Trace("t")
        a = trace.append(pc=1, address=64)
        b = trace.append(pc=2, address=128)
        assert (a.index, b.index) == (0, 1)
        assert len(trace) == 2

    def test_extend_validates_continuity(self):
        trace = Trace("t")
        trace.append(pc=1, address=0)
        with pytest.raises(ValueError):
            trace.extend([MemoryAccess(index=5, pc=0, address=0)])

    def test_reads_filter(self):
        trace = Trace("t")
        trace.append(pc=1, address=0)
        trace.append(pc=1, address=64, is_write=True)
        assert len(list(trace.reads())) == 1

    def test_indexing_and_iteration(self):
        trace = Trace("t")
        trace.append(pc=1, address=0)
        assert trace[0].address == 0
        assert [a.pc for a in trace] == [1]


class TestTraceStats:
    def test_summary_fields(self):
        trace = Trace("s")
        trace.append(pc=1, address=0)
        trace.append(pc=1, address=64, is_write=True)
        trace.append(pc=2, address=2048, depends_on=0)
        stats = summarize_trace(trace)
        assert stats.accesses == 3
        assert stats.reads == 2
        assert stats.writes == 1
        assert stats.unique_blocks == 3
        assert stats.unique_regions == 2
        assert stats.dependent_fraction == pytest.approx(1 / 3)
        assert stats.unique_pcs == 2
        assert "footprint" in stats.format()

    def test_empty_trace(self):
        stats = summarize_trace(Trace("empty"))
        assert stats.accesses == 0
        assert stats.mean_region_density == 0.0
