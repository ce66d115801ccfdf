"""The flat hierarchy against its reference: two :class:`Cache` objects
composed through their own methods.

``Hierarchy`` serves each call by indexing both levels' sets itself;
whatever it does must be what ``Cache.demand_lookup``, ``probe_fill``
and ``fill`` would have done, down to each set's LRU order and the
unused-prefetch accounting.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, SystemConfig
from repro.memsys.cache import Cache
from repro.memsys.hierarchy import Hierarchy, ServiceLevel

OPERATIONS = ("access", "fill_from_svb", "install_prefetch", "present")


class _Reference:
    """The two-level hierarchy as the caches' own methods compose it."""

    def __init__(self, config: SystemConfig) -> None:
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)

    def access(self, block):
        hit, prefetch_hit = self.l1.demand_lookup(block)
        if hit:
            return ServiceLevel.L1, None, prefetch_hit
        level = (
            ServiceLevel.L2 if self.l2.probe_fill(block)
            else ServiceLevel.MEMORY
        )
        return level, self.l1.fill(block), False

    def fill_from_svb(self, block):
        self.l2.fill(block)
        return self.l1.fill(block)

    def install_prefetch(self, block):
        self.l2.fill(block)
        return self.l1.fill(block, True)

    def present(self, block):
        if block in self.l1:
            return ServiceLevel.L1
        if block in self.l2:
            return ServiceLevel.L2
        return None


def _system(l1_sets: int, l2_sets: int) -> SystemConfig:
    """``SystemConfig.tiny()``'s associativities over one or two sets."""
    tiny = SystemConfig.tiny()
    return replace(
        tiny,
        l1=CacheConfig(size_bytes=l1_sets * tiny.l1.associativity * 64,
                       associativity=tiny.l1.associativity),
        l2=CacheConfig(size_bytes=l2_sets * tiny.l2.associativity * 64,
                       associativity=tiny.l2.associativity),
    )


def _state(cache: Cache) -> tuple:
    return (
        [list(ways.items()) for ways in cache._sets],
        cache.unused_prefetch_evictions,
        cache.unused_prefetch_count(),
    )


@settings(max_examples=300, deadline=None)
@given(
    l1_sets=st.sampled_from([1, 2]),
    l2_sets=st.sampled_from([1, 2]),
    calls=st.lists(
        st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 11)),
        max_size=80,
    ),
)
def test_hierarchy_matches_the_cache_reference(l1_sets, l2_sets, calls):
    system = _system(l1_sets, l2_sets)
    assert system.l1.num_sets == l1_sets and system.l2.num_sets == l2_sets
    hierarchy = Hierarchy(system)
    reference = _Reference(system)
    for operation, block in calls:
        got = getattr(hierarchy, operation)(block)
        assert got == getattr(reference, operation)(block), (operation, block)
        assert _state(hierarchy.l1) == _state(reference.l1)
        assert _state(hierarchy.l2) == _state(reference.l2)
