"""Cross-cutting property-based tests on predictor/mechanism invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import SMSConfig, STeMSConfig
from repro.prefetch.sms.generations import ActiveGenerationTable, SequenceElement
from repro.prefetch.sms.pht import PatternHistoryTable
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.stems.reconstruction import Reconstructor
from repro.prefetch.streamqueue import StreamQueueSet
from repro.prefetch.tms.cmob import CircularMissBuffer, MissEntry

AMAP = DEFAULT_ADDRESS_MAP

offsets_strategy = st.lists(
    st.integers(min_value=0, max_value=31), min_size=1, max_size=12
)


@settings(deadline=None, max_examples=60)
@given(trainings=st.lists(offsets_strategy, min_size=1, max_size=10))
def test_pht_predictions_subset_of_trained_offsets(trainings):
    """The PHT can only ever predict offsets it has been shown."""
    pht = PatternHistoryTable(SMSConfig(), 32)
    shown = set()
    for offsets in trainings:
        pht.train((1, 0), set(offsets))
        shown.update(offsets)
        assert set(pht.predict((1, 0))) <= shown


@settings(deadline=None, max_examples=60)
@given(trainings=st.lists(offsets_strategy, min_size=1, max_size=10))
def test_pst_sequence_positions_strictly_ordered(trainings):
    """PST predictions come out in stored-sequence order, once each."""
    pst = PatternSequenceTable(STeMSConfig(), 32)
    for offsets in trainings:
        elements = [
            SequenceElement(offset=o, delta=0, offchip=True) for o in offsets
        ]
        pst.train((1, 0), elements)
        steps = pst.predict((1, 0))
        seen = [o for o, _ in steps]
        assert len(seen) == len(set(seen))


@settings(deadline=None, max_examples=60)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=400),
    capacity=st.integers(min_value=2, max_value=64),
)
def test_cmob_find_returns_latest_valid_position(blocks, capacity):
    cmob = CircularMissBuffer(capacity)
    last_position = {}
    for block in blocks:
        last_position[block] = cmob.append(block)
    for block, position in last_position.items():
        found = cmob.find(block)
        if position > cmob.head - capacity - 1:
            assert found == position
        else:
            assert found is None or found > position


@settings(deadline=None, max_examples=40)
@given(
    deltas=st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=20),
)
def test_reconstruction_preserves_temporal_order(deltas):
    """Without spatial expansion, reconstruction yields the RMOB order."""
    pst = PatternSequenceTable(STeMSConfig(), 32)  # empty: no expansions
    entries = [
        MissEntry(block=AMAP.block_in_region(1000 + i, 0), pc=i, delta=d)
        for i, d in enumerate(deltas)
    ]
    recon = Reconstructor(pst, AMAP)
    result = recon.reconstruct(entries, include_first=True)
    expected = [b for b, _, _ in entries if result.blocks]
    # entries beyond the buffer are dropped; the prefix order is exact
    assert result.blocks == expected[: len(result.blocks)]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_reconstruction_never_duplicates(seed):
    rng = random.Random(seed)
    pst = PatternSequenceTable(STeMSConfig(), 32)
    for pc in range(8):
        elements = [
            SequenceElement(offset=o, delta=rng.randrange(3), offchip=True)
            for o in rng.sample(range(1, 32), rng.randrange(1, 8))
        ]
        pst.train((pc, 0), elements)
    entries = [
        MissEntry(block=AMAP.block_in_region(rng.randrange(50), 0),
                  pc=rng.randrange(8), delta=rng.randrange(4))
        for _ in range(rng.randrange(1, 20))
    ]
    result = Reconstructor(pst, AMAP).reconstruct(entries)
    assert len(result.blocks) == len(set(result.blocks))


@settings(deadline=None, max_examples=60)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=500)),
        min_size=1, max_size=200,
    ),
    queues=st.integers(min_value=1, max_value=8),
)
def test_streamqueue_set_never_exceeds_capacity(ops, queues):
    qs = StreamQueueSet(queues, lookahead=4)
    ids = []
    for allocate, value in ops:
        if allocate or not ids:
            queue, _ = qs.allocate([value, value + 1])
            ids.append(queue.stream_id)
        else:
            qs.on_consumed(ids[value % len(ids)])
        assert len(qs) <= queues


@settings(deadline=None, max_examples=40)
@given(
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=31)),
        min_size=1, max_size=300,
    ),
)
def test_agt_touched_equals_trigger_plus_elements(accesses):
    """Invariant: a generation's touched set is exactly its trigger offset
    plus its recorded element offsets."""
    records = []
    agt = ActiveGenerationTable(4, AMAP, on_generation_end=records.append)
    for region, offset in accesses:
        agt.observe(0x1, AMAP.block_in_region(region, offset), offchip=True)
    agt.flush()
    for record in records:
        expected = {record.trigger_offset} | {e.offset for e in record.elements}
        assert record.touched == expected
