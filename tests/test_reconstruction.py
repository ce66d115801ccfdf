"""Tests for STeMS reconstruction — including the paper's Figures 3/5
worked example reproduced exactly (:class:`TestFigure3Example` spells out
the decomposition).
"""

import pytest

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import STeMSConfig
from repro.prefetch.sms.generations import SequenceElement
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.stems.reconstruction import Reconstructor
from repro.prefetch.tms.cmob import MissEntry

AMAP = DEFAULT_ADDRESS_MAP


def make_pst(entries):
    pst = PatternSequenceTable(STeMSConfig(), AMAP.blocks_per_region)
    for index, pairs in entries.items():
        pst.train(
            index,
            [SequenceElement(offset=o, delta=d, offchip=True) for o, d in pairs],
        )
    return pst


class TestFigure3Example:
    """Observed miss order: A, A+4, B, A+2, B+6, A-1, C, D, D+1, D+2.

    Decomposition (Fig. 3): triggers A:0, B:1, C:3, D:0; spatial
    sequences A: (+4,0)(+2,1)(-1,1); B: (+6,1); D: (+1,0)(+2,0).
    Reconstruction (Fig. 5) must reproduce the original total order.
    """

    def setup_method(self):
        # regions 10, 20, 30, 40; A at offset 10 so A-1 stays in-region
        self.A = AMAP.block_in_region(10, 10)
        self.B = AMAP.block_in_region(20, 3)
        self.C = AMAP.block_in_region(30, 0)
        self.D = AMAP.block_in_region(40, 5)
        self.pst = make_pst({
            (0x1, 10): [(14, 0), (12, 1), (9, 1)],   # A+4, A+2, A-1
            (0x2, 3): [(9, 1)],                      # B+6
            (0x4, 5): [(6, 0), (7, 0)],              # D+1, D+2
        })
        self.entries = [
            MissEntry(block=self.A, pc=0x1, delta=0),
            MissEntry(block=self.B, pc=0x2, delta=1),
            MissEntry(block=self.C, pc=0x3, delta=3),
            MissEntry(block=self.D, pc=0x4, delta=0),
        ]
        self.reconstructor = Reconstructor(self.pst, AMAP)

    def test_total_order_reconstructed(self):
        result = self.reconstructor.reconstruct(self.entries, include_first=True)
        expected = [
            self.A,
            self.A + 4,
            self.B,
            self.A + 2,
            self.B + 6,
            self.A - 1,
            self.C,
            self.D,
            self.D + 1,
            self.D + 2,
        ]
        assert result.blocks == expected
        assert result.dropped == 0
        assert result.placed_adjacent == 0

    def test_include_first_false_skips_demand_miss(self):
        result = self.reconstructor.reconstruct(self.entries, include_first=False)
        assert result.blocks[0] == self.A + 4
        assert self.A not in result.blocks

    def test_regions_registered(self):
        seen = {}
        result = self.reconstructor.reconstruct(
            self.entries, on_region=lambda region, index: seen.__setitem__(region, index)
        )
        assert seen[10] == (0x1, 10)
        assert seen[20] == (0x2, 3)
        assert 30 not in seen  # C has no spatial sequence
        assert result.regions.keys() == seen.keys()


class TestPlacement:
    def test_collision_searches_adjacent_slots(self):
        # two triggers with delta 0 whose spatial elements collide
        pst = make_pst({(0x1, 0): [(1, 0)], (0x2, 0): [(1, 0)]})
        entries = [
            MissEntry(block=AMAP.block_in_region(1, 0), pc=0x1, delta=0),
            MissEntry(block=AMAP.block_in_region(2, 0), pc=0x2, delta=0),
        ]
        recon = Reconstructor(pst, AMAP)
        result = recon.reconstruct(entries)
        # both spatial elements target slot 1 then 2; the window resolves it
        assert result.placed_adjacent >= 1
        assert result.dropped == 0
        assert AMAP.block_in_region(1, 1) in result.blocks
        assert AMAP.block_in_region(2, 1) in result.blocks

    def test_overflow_beyond_buffer_dropped(self):
        pst = make_pst({(0x1, 0): [(1, 200)]})
        entries = [MissEntry(block=AMAP.block_in_region(1, 0), pc=0x1, delta=0)]
        recon = Reconstructor(pst, AMAP, buffer_size=64)
        result = recon.reconstruct(entries)
        assert result.dropped == 1
        assert len(result.blocks) == 1  # only the trigger itself

    def test_empty_entries(self):
        recon = Reconstructor(make_pst({}), AMAP)
        result = recon.reconstruct([])
        assert result.blocks == []

    def test_duplicate_blocks_deduplicated(self):
        pst = make_pst({(0x1, 0): [(1, 0)], (0x2, 5): [(1, 4)]})
        # second region's element is region 1's block? No -- same region
        entries = [
            MissEntry(block=AMAP.block_in_region(1, 0), pc=0x1, delta=0),
            MissEntry(block=AMAP.block_in_region(1, 0), pc=0x1, delta=5),
        ]
        recon = Reconstructor(pst, AMAP)
        result = recon.reconstruct(entries, include_first=True)
        assert len(result.blocks) == len(set(result.blocks))

    def test_placement_window_zero_drops_collisions(self):
        pst = make_pst({(0x1, 0): [(1, 0)], (0x2, 0): [(1, 0)]})
        entries = [
            MissEntry(block=AMAP.block_in_region(1, 0), pc=0x1, delta=0),
            MissEntry(block=AMAP.block_in_region(2, 0), pc=0x2, delta=0),
        ]
        recon = Reconstructor(pst, AMAP, placement_window=0)
        result = recon.reconstruct(entries)
        assert result.dropped >= 1
