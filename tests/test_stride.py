"""Tests for the baseline stride prefetcher."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import StrideConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import TARGET_L1, AccessEvent
from repro.prefetch.stride import StridePrefetcher
from repro.trace.events import MemoryAccess


def feed(pf, pc, blocks):
    for i, block in enumerate(blocks):
        access = MemoryAccess(index=i, pc=pc, address=block * 64)
        pf.on_access(AccessEvent(access=access, block=block,
                                 level=ServiceLevel.MEMORY))
    return pf.pop_requests()


class TestStride:
    def test_detects_unit_stride(self):
        pf = StridePrefetcher(StrideConfig(degree=2))
        requests = feed(pf, 0x10, [100, 101, 102])
        blocks = [b for b, _, _ in requests]
        assert 103 in blocks and 104 in blocks

    def test_detects_negative_stride(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        requests = feed(pf, 0x10, [100, 97, 94])
        assert [b for b, _, _ in requests] == [91]

    def test_requires_confidence(self):
        pf = StridePrefetcher(StrideConfig(degree=1, confidence_threshold=2))
        assert feed(pf, 0x10, [100, 105]) == ()  # one stride seen: no fetch

    def test_stride_change_resets(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        feed(pf, 0x10, [100, 101, 102])
        pf.pop_requests()
        # change stride: confidence resets, no prediction on first new stride
        access = MemoryAccess(index=9, pc=0x10, address=200 * 64)
        pf.on_access(AccessEvent(access=access, block=200,
                                 level=ServiceLevel.MEMORY))
        assert pf.pop_requests() == ()

    def test_per_pc_isolation(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        for i, (pc, block) in enumerate(
            [(1, 10), (2, 500), (1, 11), (2, 510), (1, 12), (2, 520)]
        ):
            access = MemoryAccess(index=i, pc=pc, address=block * 64)
            pf.on_access(AccessEvent(access=access, block=block,
                                     level=ServiceLevel.MEMORY))
        blocks = {b for b, _, _ in pf.pop_requests()}
        assert 13 in blocks and 530 in blocks

    def test_zero_stride_ignored(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        assert feed(pf, 0x10, [100, 100, 100, 100]) == ()

    def test_table_capacity(self):
        pf = StridePrefetcher(StrideConfig(table_entries=2, degree=1))
        # train pc 1, then displace it with pcs 2 and 3
        feed(pf, 1, [10, 11])
        feed(pf, 2, [100])
        feed(pf, 3, [200])
        pf.pop_requests()
        # pc 1 entry evicted: next access re-allocates, no stride memory
        access = MemoryAccess(index=50, pc=1, address=12 * 64)
        pf.on_access(AccessEvent(access=access, block=12,
                                 level=ServiceLevel.MEMORY))
        assert pf.pop_requests() == ()

    def test_requests_target_l1(self):
        requests = feed(StridePrefetcher(), 0x10, [100, 101, 102])
        assert requests
        assert all(target == TARGET_L1 for _, _, target in requests)


def feed_one(pf, index, pc, block):
    access = MemoryAccess(index=index, pc=pc, address=block * 64)
    pf.on_access(AccessEvent(access=access, block=block,
                             level=ServiceLevel.MEMORY))
    return pf.pop_requests()


class TestDistinctStrideCap:
    def config(self, **kwargs):
        return StrideConfig(degree=1, confidence_threshold=1, **kwargs)

    def test_third_distinct_stride_is_refused(self):
        pf = StridePrefetcher(self.config(max_distinct_strides=2))
        feed_one(pf, 0, 1, 100)
        assert feed_one(pf, 1, 1, 101) == [(102, -1, "l1")]  # stride 1
        feed_one(pf, 2, 2, 200)
        assert feed_one(pf, 3, 2, 202) == [(204, -1, "l1")]  # stride 2
        feed_one(pf, 4, 3, 300)
        assert feed_one(pf, 5, 3, 303) == ()  # stride 3: over the cap
        entry = pf._table.peek(3)
        assert entry.confidence == 0 and entry.stride == 0
        assert feed_one(pf, 6, 3, 306) == ()  # still refused

    def test_live_stride_allowed_at_the_cap(self):
        pf = StridePrefetcher(self.config(max_distinct_strides=2))
        for i, (pc, block) in enumerate([(1, 100), (1, 101), (2, 200), (2, 202)]):
            feed_one(pf, i, pc, block)
        feed_one(pf, 4, 3, 300)
        assert feed_one(pf, 5, 3, 302) == [(304, -1, "l1")]  # stride 2 is live

    def test_displaced_entry_frees_its_stride(self):
        pf = StridePrefetcher(self.config(table_entries=2, max_distinct_strides=1))
        feed_one(pf, 0, 1, 100)
        feed_one(pf, 1, 1, 101)  # stride 1 holds the only slot
        feed_one(pf, 2, 2, 200)
        assert feed_one(pf, 3, 2, 205) == ()  # stride 5 refused
        feed_one(pf, 4, 3, 300)  # displaces pc 1, the holder of stride 1
        assert feed_one(pf, 5, 2, 210) == [(215, -1, "l1")]


class _RescanStridePrefetcher(StridePrefetcher):
    """Reference: the distinct-stride cap as a rescan of the whole table on
    every stride change."""

    def _stride_allowed(self, stride):
        distinct = {e.stride for _, e in self._table.items() if e.stride != 0}
        return (stride in distinct
                or len(distinct) < self.config.max_distinct_strides)


@given(
    table_entries=st.integers(min_value=2, max_value=6),
    max_distinct=st.integers(min_value=1, max_value=4),
    runs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=-3, max_value=3),
                  st.integers(min_value=1, max_value=4)),
        max_size=60,
    ),
)
def test_stride_cap_matches_table_rescan(table_entries, max_distinct, runs):
    # each run moves one PC ``count`` times by ``stride`` blocks: strides
    # repeat (reaching the confidence threshold) and change between runs,
    # and more PCs than table entries force LRU displacement
    config = StrideConfig(table_entries=table_entries,
                          max_distinct_strides=max_distinct)
    pf = StridePrefetcher(config)
    reference = _RescanStridePrefetcher(config)
    last_block = {}
    index = 0
    for pc, stride, count in runs:
        for _ in range(count):
            block = last_block.get(pc, 1000 * (pc + 1)) + stride
            last_block[pc] = block
            assert (feed_one(pf, index, pc, block)
                    == feed_one(reference, index, pc, block))
            index += 1
    assert pf.stats.to_dict() == reference.stats.to_dict()
