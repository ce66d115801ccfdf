"""Tests for the set-associative cache model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.memsys.cache import Cache


def small_cache(assoc=2, blocks=8) -> Cache:
    return Cache(CacheConfig(size_bytes=blocks * 64, associativity=assoc))


class TestBasics:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)

    def test_fill_reports_eviction(self):
        cache = small_cache(assoc=2, blocks=2)  # one set, two ways
        cache.fill(0)
        cache.fill(1)
        assert cache.fill(2) == 0

    def test_lru_within_set(self):
        cache = small_cache(assoc=2, blocks=2)
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)  # refresh 0; victim becomes 1
        assert cache.fill(2) == 1

    def test_set_mapping_isolation(self):
        cache = small_cache(assoc=1, blocks=4)  # 4 sets, direct-mapped
        cache.fill(0)
        cache.fill(1)
        assert cache.lookup(0) and cache.lookup(1)
        assert cache.fill(4) == 0  # maps to set 0

    def test_len_counts_resident(self):
        cache = small_cache()
        for block in range(5):
            cache.fill(block)
        assert len(cache) == 5


class TestPrefetchedFlag:
    def test_prefetch_hit_reported_once(self):
        cache = small_cache()
        cache.fill(7, prefetched=True)
        hit, was_prefetched = cache.demand_lookup(7)
        assert hit and was_prefetched
        hit, was_prefetched = cache.demand_lookup(7)
        assert hit and not was_prefetched

    def test_unused_prefetch_eviction_flagged(self):
        cache = small_cache(assoc=1, blocks=1)
        cache.fill(0, prefetched=True)
        assert cache.fill(1) == 0
        assert cache.unused_prefetch_evictions == 1

    def test_used_prefetch_eviction_not_flagged(self):
        cache = small_cache(assoc=1, blocks=1)
        cache.fill(0, prefetched=True)
        cache.demand_lookup(0)
        assert cache.fill(1) == 0
        assert cache.unused_prefetch_evictions == 0

    def test_fill_without_victim_returns_none(self):
        cache = small_cache(assoc=2, blocks=2)
        assert cache.fill(0) is None
        assert cache.fill(0) is None  # refill of a resident block

    def test_unused_prefetch_count(self):
        cache = small_cache()
        cache.fill(1, prefetched=True)
        cache.fill(2, prefetched=True)
        cache.demand_lookup(1)
        assert cache.unused_prefetch_count() == 1

    def test_demand_fill_clears_flag(self):
        cache = small_cache()
        cache.fill(1, prefetched=True)
        cache.fill(1, prefetched=False)
        assert cache.unused_prefetch_count() == 0


@given(blocks=st.lists(st.integers(min_value=0, max_value=100), max_size=400))
def test_residency_never_exceeds_capacity(blocks):
    cache = small_cache(assoc=2, blocks=8)
    for block in blocks:
        cache.fill(block)
        assert len(cache) <= 8


@given(blocks=st.lists(st.integers(min_value=0, max_value=50), max_size=300))
def test_fill_then_immediate_lookup_hits(blocks):
    cache = small_cache(assoc=2, blocks=8)
    for block in blocks:
        cache.fill(block)
        assert cache.lookup(block)
