"""Tests for the TMS/STeMS stream-setup path: the PST's memoized
predictions, the CMOB's run reads and the stream-queue re-sync lookup."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import STeMSConfig
from repro.prefetch.sms.generations import SequenceElement
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.streamqueue import StreamQueueSet
from repro.prefetch.tms.cmob import CircularMissBuffer


def elements(*pairs):
    return [SequenceElement(offset=o, delta=d, offchip=True) for o, d in pairs]


class TestPredictMemo:
    def test_repeated_predictions_share_one_list(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (2, 1)))
        assert pst.predict((1, 0)) is pst.predict((1, 0))

    def test_retraining_refreshes_the_prediction(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (2, 1)))
        assert pst.predict((1, 0)) == [(4, 0), (2, 1)]
        pst.train((1, 0), elements((2, 0), (4, 3)))
        assert pst.predict((1, 0)) == [(2, 0), (4, 3)]
        # below-threshold newcomer, then promoted by a second sighting
        pst.train((1, 0), elements((2, 0), (4, 3), (9, 1)))
        assert pst.predict((1, 0)) == [(2, 0), (4, 3)]
        pst.train((1, 0), elements((2, 0), (4, 3), (9, 1)))
        assert pst.predict((1, 0)) == [(2, 0), (4, 3), (9, 1)]

    def test_evicted_then_retrained_index_predicts_its_new_entry(self):
        pst = PatternSequenceTable(STeMSConfig(pst_entries=2), 32)
        pst.train((1, 0), elements((4, 0), (7, 2)))
        assert pst.predict((1, 0)) == [(4, 0), (7, 2)]
        pst.train((2, 0), elements((5, 0)))
        pst.train((3, 0), elements((6, 0)))  # evicts (1, 0)
        assert (1, 0) not in pst
        assert pst.predict((1, 0)) == []
        pst.train((1, 0), elements((9, 1)))
        assert pst.predict((1, 0)) == [(9, 1)]

    def test_memo_keeps_no_evicted_index(self):
        pst = PatternSequenceTable(STeMSConfig(pst_entries=2), 32)
        for pc in range(10):
            pst.train((pc, 0), elements((4, 0)))
            assert pst.predict((pc, 0)) == [(4, 0)]
        assert len(pst._predicted) == 2

    def test_predict_refreshes_lru_order(self):
        pst = PatternSequenceTable(STeMSConfig(pst_entries=2), 32)
        pst.train((1, 0), elements((4, 0)))
        pst.train((2, 0), elements((5, 0)))
        assert pst.predict((1, 0)) == [(4, 0)]  # (1, 0) is now most recent
        pst.train((3, 0), elements((6, 0)))
        assert (1, 0) in pst and (3, 0) in pst
        assert (2, 0) not in pst
        assert pst.predict((1, 0)) == [(4, 0)]
        pst.train((4, 0), elements((7, 0)))  # (3, 0) was least recent
        assert (3, 0) not in pst
        assert pst.predict((1, 0)) == [(4, 0)]


def reference_read_from(cmob, pos, count):
    """The per-position loop ``read_from`` replaced."""
    out = []
    for p in range(pos, min(pos + count, cmob.head)):
        entry = cmob.get(p)
        if entry is None:
            break
        out.append(entry)
    return out


class TestReadFrom:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        blocks=st.lists(st.integers(min_value=0, max_value=40), max_size=64),
        pos=st.integers(min_value=-20, max_value=90),
        count=st.integers(min_value=-4, max_value=40),
    )
    def test_matches_the_per_position_loop(self, capacity, blocks, pos,
                                           count):
        cmob = CircularMissBuffer(capacity)
        for i, block in enumerate(blocks):
            cmob.append(block, pc=i, delta=i % 3)
        assert cmob.read_from(pos, count) == reference_read_from(
            cmob, pos, count
        )


class TestFindPending:
    def test_saturated_holder_is_skipped_for_a_later_healthy_one(self):
        queues = StreamQueueSet(4, lookahead=2, initial_fetch=1)
        saturated, _ = queues.allocate([1, 2, 3])
        queues.allocate([7, 8, 9])  # does not hold the block
        healthy, _ = queues.allocate([5, 2, 6])
        saturated.inflight = 2
        assert queues.find_pending(2) is healthy
        assert queues.find_pending(3) is None  # only the saturated one
        assert queues.find_pending(4) is None  # held by none
