"""The predictor tables keep least-recently-used order in a plain
``OrderedDict``: each is checked, through its predictor's public calls,
against a reference LRU list fed the same touches and inserts."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig, STeMSConfig, StrideConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import AccessEvent
from repro.prefetch.markov import MarkovConfig, MarkovPrefetcher
from repro.prefetch.sms.generations import SequenceElement
from repro.prefetch.sms.pht import PatternHistoryTable
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.trace.events import MemoryAccess

AMAP = DEFAULT_ADDRESS_MAP


class ReferenceLRU:
    """Keys in a plain list, least recently used first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.keys = []

    def touch(self, key):
        if key in self.keys:
            self.keys.remove(key)
            self.keys.append(key)

    def put(self, key):
        if key in self.keys:
            self.keys.remove(key)
        elif len(self.keys) >= self.capacity:
            del self.keys[0]
        self.keys.append(key)


def event(i, block, pc=0x1, level=ServiceLevel.MEMORY, covered=False,
          is_write=False):
    access = MemoryAccess(index=i, pc=pc, address=block * 64,
                          is_write=is_write)
    return AccessEvent(access=access, block=block, level=level,
                       covered=covered)


@given(
    capacity=st.integers(min_value=1, max_value=6),
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=40)),
        max_size=120,
    ),
)
def test_stride_pc_table_is_lru(capacity, accesses):
    pf = StridePrefetcher(
        StrideConfig(table_entries=capacity, max_distinct_strides=3)
    )
    reference = ReferenceLRU(capacity)
    for i, (pc, block) in enumerate(accesses):
        pf.on_access(event(i, block, pc=pc))
        pf.pop_requests()
        reference.put(pc)
        assert list(pf._table) == reference.keys
        # a displaced entry released its stride: the counts are exactly
        # the strides the resident entries hold
        held = Counter(e.stride for e in pf._table.values() if e.stride)
        assert pf._stride_counts == dict(held)


@given(
    capacity=st.integers(min_value=1, max_value=6),
    events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.sampled_from([ServiceLevel.MEMORY, ServiceLevel.L1]),
                  st.booleans(), st.booleans()),
        max_size=120,
    ),
)
def test_markov_table_is_lru(capacity, events):
    pf = MarkovPrefetcher(MarkovConfig(table_entries=capacity))
    reference = ReferenceLRU(capacity)
    previous = None
    for i, (block, level, covered, is_write) in enumerate(events):
        pf.on_access(event(i, block, level=level, covered=covered,
                           is_write=is_write))
        pf.pop_requests()
        if not is_write and (covered or level is ServiceLevel.MEMORY):
            reference.touch(block)  # the successor lookup
            if previous is not None and previous != block:
                reference.put(previous)  # the transition it trains
            previous = block
        assert list(pf._table) == reference.keys


@given(
    capacity=st.integers(min_value=1, max_value=6),
    use_counters=st.booleans(),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=9),
                  st.frozensets(st.integers(min_value=0, max_value=9),
                                max_size=4)),
        max_size=100,
    ),
)
def test_pht_is_lru(capacity, use_counters, ops):
    pht = PatternHistoryTable(
        SMSConfig(pht_entries=capacity, use_counters=use_counters),
        blocks_per_region=8,
    )
    reference = ReferenceLRU(capacity)
    for train, pc, offsets in ops:
        index = (pc, 0)
        if train:
            pht.train(index, set(offsets))
            reference.put(index)
        else:
            pht.predict(index)
            reference.touch(index)
        assert list(pht._table) == reference.keys


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    regions=st.lists(st.integers(min_value=0, max_value=11), min_size=1,
                     max_size=12),
    offsets=st.lists(st.integers(min_value=1, max_value=31), min_size=1,
                     max_size=3, unique=True),
    passes=st.integers(min_value=2, max_value=4),
)
def test_reconstructed_region_map_is_lru(capacity, regions, offsets,
                                         passes):
    # a loop over regions, each touched at offset 0 then ``offsets``;
    # ending every generation trains the PST, so later passes start
    # reconstructed streams that register the regions they predict
    pf = STeMSPrefetcher()
    pf.RECONSTRUCTED_REGIONS = capacity
    reference = ReferenceLRU(capacity)
    register = pf._register_region

    def recording_register(region, index):
        reference.put(region)
        register(region, index)

    pf._register_region = recording_register
    i = 0
    for _ in range(passes):
        for region in regions:
            for offset in (0, *offsets):
                pf.on_access(event(i, AMAP.block_in_region(region, offset),
                                   pc=0x10 + offset))
                pf.pop_requests()
                i += 1
                # the spatial-only decision reads the map without a touch
                assert list(pf._reconstructed) == reference.keys
            pf.on_l1_eviction(AMAP.block_in_region(region, 0))


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(st.sampled_from(["train", "predict", "offsets"]),
                  st.integers(min_value=0, max_value=9),
                  st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                                     st.integers(min_value=0, max_value=3)),
                           max_size=5)),
        max_size=80,
    ),
)
def test_pst_predictions_share_one_memo(capacity, ops):
    config = STeMSConfig(pst_entries=capacity)
    pst = PatternSequenceTable(config, blocks_per_region=8)
    reference = ReferenceLRU(capacity)
    for op, pc, pairs in ops:
        index = (pc, 0)
        if op == "train":
            pst.train(index, [SequenceElement(o, d, True) for o, d in pairs])
            reference.put(index)
        elif op == "predict":
            pst.predict(index)
            reference.touch(index)
        else:
            pst.predict_offsets(index)
            reference.touch(index)
        assert list(pst._table) == reference.keys
        offsets = pst.predict_offsets(index)
        assert offsets == {o for o, _ in pst.predict(index)}
        reference.touch(index)
        # both answer from the entry as it is now (retraining and
        # eviction leave no stale memo behind)
        entry = pst._table.get(index, {})
        assert offsets == {o for o, s in entry.items()
                           if s.counter >= config.predict_threshold}
        assert set(pst._predicted) <= set(pst._table)
        assert list(pst._table) == reference.keys


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("build", [
    lambda n: StridePrefetcher(StrideConfig(table_entries=n)),
    lambda n: MarkovPrefetcher(MarkovConfig(table_entries=n)),
    lambda n: SMSPrefetcher(SMSConfig(pht_entries=n)),
], ids=["stride", "markov", "sms-pht"])
def test_non_positive_table_size_rejected(build, size):
    with pytest.raises(ValueError, match="capacity must be positive"):
        build(size)
