"""Tests for the extension baselines: GHB and Markov prefetchers."""

from repro.common.config import CacheConfig, SystemConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import AccessEvent
from repro.prefetch.ghb import GHBConfig, GHBPrefetcher
from repro.prefetch.markov import MarkovConfig, MarkovPrefetcher
from repro.sim.driver import SimulationDriver
from repro.trace.container import Trace
from repro.trace.events import MemoryAccess


def miss(pf, i, block, covered=False):
    access = MemoryAccess(index=i, pc=0x1, address=block * 64)
    level = ServiceLevel.SVB if covered else ServiceLevel.MEMORY
    pf.on_access(AccessEvent(access=access, block=block, level=level,
                             covered=covered))


class TestGHB:
    def test_replays_following_misses(self):
        pf = GHBPrefetcher(GHBConfig(degree=2))
        for i, b in enumerate([1, 2, 3, 4]):
            miss(pf, i, b)
        miss(pf, 10, 1)
        assert [b for b, _, _ in pf.pop_requests()] == [2, 3]

    def test_no_prediction_on_first_occurrence(self):
        pf = GHBPrefetcher()
        for i, b in enumerate([1, 2, 3]):
            miss(pf, i, b)
        assert pf.pop_requests() == ()

    def test_history_wraparound_limits_reach(self):
        pf = GHBPrefetcher(GHBConfig(history_entries=4, index_entries=64))
        miss(pf, 0, 100)
        for i, b in enumerate(range(200, 210), start=1):
            miss(pf, i, b)  # floods the 4-entry history
        miss(pf, 50, 100)  # previous occurrence overwritten: no chain
        assert pf.pop_requests() == ()

    def test_writes_and_hits_ignored(self):
        pf = GHBPrefetcher()
        access = MemoryAccess(index=0, pc=0x1, address=64, is_write=True)
        pf.on_access(AccessEvent(access=access, block=1,
                                 level=ServiceLevel.MEMORY))
        access = MemoryAccess(index=1, pc=0x1, address=128)
        pf.on_access(AccessEvent(access=access, block=2, level=ServiceLevel.L1))
        assert pf._head == 0

    def test_on_short_loop_in_driver(self):
        # the loop (200 blocks) outruns a 4 KB L2 but fits the 256-entry
        # GHB history: on-chip temporal correlation covers it
        system = SystemConfig(
            l1=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=4096, associativity=4),
        )
        trace = Trace("loop")
        blocks = [7000 + i * 17 for i in range(200)]
        for repeat in range(6):
            for b in blocks:
                trace.append(pc=0x5, address=b * 64)
        result = SimulationDriver(system, GHBPrefetcher()).run(trace)
        assert result.coverage > 0.3


class TestMarkov:
    def test_learns_pair_transition(self):
        pf = MarkovPrefetcher(MarkovConfig(fanout=1))
        for i, b in enumerate([1, 2, 1, 2]):
            miss(pf, i, b)
        pf.pop_requests()
        miss(pf, 10, 1)
        assert [b for b, _, _ in pf.pop_requests()] == [2]

    def test_ranks_successors_by_frequency(self):
        pf = MarkovPrefetcher(MarkovConfig(fanout=1))
        sequence = [1, 2, 1, 2, 1, 3]  # 1->2 twice, 1->3 once
        for i, b in enumerate(sequence):
            miss(pf, i, b)
        pf.pop_requests()
        miss(pf, 10, 1)
        assert [b for b, _, _ in pf.pop_requests()] == [2]

    def test_successor_cap_drops_weakest(self):
        pf = MarkovPrefetcher(MarkovConfig(successors=2, fanout=2))
        sequence = [1, 2, 1, 2, 1, 3, 1, 3, 1, 4]
        for i, b in enumerate(sequence):
            miss(pf, i, b)
        entry = pf._table.get(1)
        assert len(entry) <= 2

    def test_self_transition_ignored(self):
        pf = MarkovPrefetcher()
        for i in range(4):
            miss(pf, i, 5)
        assert pf._table.get(5) is None

    def test_on_repeating_chain_in_driver(self):
        system = SystemConfig(
            l1=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=4096, associativity=4),
        )
        trace = Trace("chain")
        blocks = [9000 + i * 13 for i in range(200)]
        for repeat in range(5):
            for b in blocks:
                trace.append(pc=0x5, address=b * 64)
        result = SimulationDriver(system, MarkovPrefetcher()).run(trace)
        assert result.coverage > 0.3
