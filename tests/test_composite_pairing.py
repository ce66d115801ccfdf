"""CompositePrefetcher pairs two engines: every hook reaches both, first
engine first, and their requests come back in that order."""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import TARGET_L1, TARGET_SVB, AccessEvent, Prefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.hybrid import NaiveHybridPrefetcher
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.trace.container import Trace
from repro.trace.events import MemoryAccess


class _Recorder(Prefetcher):
    """Logs every hook it receives and requests each accessed block."""

    def __init__(self, name, log, target):
        super().__init__()
        self.name = name
        self._log = log
        self._target = target

    def on_access(self, event):
        self._log.append((self.name, "on_access", event.block))
        self._request(event.block, target=self._target)

    def on_l1_eviction(self, block):
        self._log.append((self.name, "on_l1_eviction", block))

    def on_svb_discard(self, block, stream_id):
        self._log.append((self.name, "on_svb_discard", block, stream_id))

    def pop_requests(self):
        self._log.append((self.name, "pop_requests"))
        return super().pop_requests()

    def finish(self):
        self._log.append((self.name, "finish"))


class _Pair(CompositePrefetcher):
    def __init__(self, first, second):
        self._pair(first, second)


def event(i, block):
    access = MemoryAccess(index=i, pc=0x1, address=block * 64)
    return AccessEvent(access=access, block=block, level=ServiceLevel.MEMORY)


def test_every_hook_reaches_both_engines_in_order():
    log = []
    pair = _Pair(_Recorder("a", log, TARGET_L1), _Recorder("b", log, TARGET_SVB))
    pair.on_access(event(0, 7))
    pair.on_l1_eviction(3)
    pair.on_svb_discard(5, 2)
    requests = pair.pop_requests()
    pair.finish()
    assert log == [
        ("a", "on_access", 7), ("b", "on_access", 7),
        ("a", "on_l1_eviction", 3), ("b", "on_l1_eviction", 3),
        ("a", "on_svb_discard", 5, 2), ("b", "on_svb_discard", 5, 2),
        ("a", "pop_requests"), ("b", "pop_requests"),
        ("a", "finish"), ("b", "finish"),
    ]
    assert list(requests) == [(7, -1, TARGET_L1), (7, -1, TARGET_SVB)]


def test_one_engine_requests_pass_through():
    log = []
    first = _Recorder("a", log, TARGET_L1)
    pair = _Pair(first, TMSPrefetcher())  # a cold TMS requests nothing
    pair.on_access(event(0, 7))
    assert list(pair.pop_requests()) == [(7, -1, TARGET_L1)]
    assert pair.pop_requests() == ()


def test_pairings():
    composite = CompositePrefetcher(StridePrefetcher(), TMSPrefetcher())
    assert isinstance(composite.first, StridePrefetcher)
    assert isinstance(composite.second, TMSPrefetcher)
    hybrid = NaiveHybridPrefetcher()
    assert hybrid.name == "hybrid"
    assert isinstance(hybrid.first, TMSPrefetcher) and hybrid.first is hybrid.tms
    assert isinstance(hybrid.second, SMSPrefetcher) and hybrid.second is hybrid.sms


def test_counters_are_integers():
    trace = Trace("c")
    for repeat in range(2):
        for block in range(0, 3000, 3):
            trace.append(pc=0x1, address=block * 64)
    pf = TMSPrefetcher()
    result = SimulationDriver(SystemConfig.tiny(), pf).run(trace)
    assert result.prefetcher_stats == dict(pf.stats)
    assert result.prefetcher_stats["streams_allocated"] >= 1
    assert all(type(n) is int for n in result.prefetcher_stats.values())
    assert pf.stats["never_counted"] == 0
