"""Tests for the STeMS pattern sequence table."""

from repro.common.config import STeMSConfig
from repro.prefetch.sms.generations import SequenceElement
from repro.prefetch.stems.pst import PatternSequenceTable


def elements(*pairs):
    return [SequenceElement(offset=o, delta=d, offchip=True) for o, d in pairs]


class TestPST:
    def test_first_training_predicts_in_order(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (2, 1), (31, 1)))
        steps = pst.predict((1, 0))
        assert steps == [(4, 0), (2, 1), (31, 1)]

    def test_order_follows_most_recent_observation(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (2, 1)))
        pst.train((1, 0), elements((2, 0), (4, 2)))
        steps = pst.predict((1, 0))
        assert [o for o, _ in steps] == [2, 4]
        assert [d for _, d in steps] == [0, 2]

    def test_new_offsets_in_existing_entry_below_threshold(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0)))
        pst.train((1, 0), elements((4, 0), (9, 1)))
        assert [o for o, _ in pst.predict((1, 0))] == [4]
        # a second sighting promotes it
        pst.train((1, 0), elements((4, 0), (9, 1)))
        assert [o for o, _ in pst.predict((1, 0))] == [4, 9]

    def test_unobserved_offsets_decay(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (7, 1)))
        for _ in range(4):
            pst.train((1, 0), elements((4, 0)))
        assert [o for o, _ in pst.predict((1, 0))] == [4]

    def test_duplicate_offsets_use_first_occurrence(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (4, 3), (6, 1)))
        steps = pst.predict((1, 0))
        assert steps == [(4, 0), (6, 1)]

    def test_out_of_range_offsets_ignored(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((40, 0), (4, 1)))
        assert [o for o, _ in pst.predict((1, 0))] == [4]

    def test_predict_offsets_set(self):
        pst = PatternSequenceTable(STeMSConfig(), 32)
        pst.train((1, 0), elements((4, 0), (2, 1)))
        assert pst.predict_offsets((1, 0)) == {2, 4}

    def test_counter_saturation(self):
        config = STeMSConfig()
        pst = PatternSequenceTable(config, 32)
        for _ in range(10):
            pst.train((1, 0), elements((4, 0)))
        # after saturation, a few absences should not kill the block
        pst.train((1, 0), elements((9, 0)))
        assert 4 in pst.predict_offsets((1, 0))

    def test_lru_capacity(self):
        pst = PatternSequenceTable(STeMSConfig(pst_entries=2), 32)
        pst.train((1, 0), elements((4, 0)))
        pst.train((2, 0), elements((5, 0)))
        pst.train((3, 0), elements((6, 0)))
        assert pst.predict((1, 0)) == []
