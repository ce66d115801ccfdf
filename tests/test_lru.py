"""Unit and property tests for the LRU containers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.lru import LRUTable


class TestLRUTable:
    def test_put_get(self):
        table = LRUTable(4)
        table.put("a", 1)
        assert table.get("a") == 1
        assert table.get("missing") is None

    def test_eviction_order(self):
        table = LRUTable(2)
        table.put("a", 1)
        table.put("b", 2)
        evicted = table.put("c", 3)
        assert evicted == ("a", 1)
        assert "a" not in table
        assert "b" in table and "c" in table

    def test_get_refreshes_recency(self):
        table = LRUTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")
        evicted = table.put("c", 3)
        assert evicted == ("b", 2)

    def test_peek_does_not_refresh(self):
        table = LRUTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.peek("a")
        evicted = table.put("c", 3)
        assert evicted == ("a", 1)

    def test_update_existing_no_eviction(self):
        table = LRUTable(2)
        table.put("a", 1)
        table.put("b", 2)
        assert table.put("a", 10) is None
        assert table.get("a") == 10

    def test_eviction_callback(self):
        evictions = []
        table = LRUTable(1, on_evict=lambda k, v: evictions.append((k, v)))
        table.put("a", 1)
        table.put("b", 2)
        assert evictions == [("a", 1)]

    def test_pop_skips_callback(self):
        evictions = []
        table = LRUTable(2, on_evict=lambda k, v: evictions.append(k))
        table.put("a", 1)
        assert table.pop("a") == 1
        assert table.pop("a") is None
        assert evictions == []

    def test_lru_key(self):
        table = LRUTable(3)
        assert table.lru_key() is None
        table.put("a", 1)
        table.put("b", 2)
        assert table.lru_key() == "a"
        table.touch("a")
        assert table.lru_key() == "b"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUTable(0)


@given(
    ops=st.lists(st.integers(min_value=0, max_value=20), max_size=300),
    capacity=st.integers(min_value=1, max_value=8),
)
def test_capacity_never_exceeded(ops, capacity):
    table = LRUTable(capacity)
    for op in ops:
        table.put(op, op)
        assert len(table) <= capacity


@given(ops=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=200))
def test_most_recent_key_always_present(ops):
    table = LRUTable(3)
    for op in ops:
        table.put(op, op)
        assert op in table
