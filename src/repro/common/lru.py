"""Small LRU containers used by caches, predictor tables and stream queues.

``OrderedDict`` gives O(1) recency updates; these wrappers add fixed
capacity and optional eviction callbacks, which the memory system uses to
signal spatial-generation termination to the prefetchers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: absent-key sentinel — ``get`` runs on per-access predictor paths, and a
#: single ``dict.get`` beats the membership-test-then-index double lookup
_MISSING = object()


class LRUTable(Generic[K, V]):
    """Fixed-capacity key/value table with least-recently-used replacement."""

    def __init__(
        self,
        capacity: int,
        on_evict: Optional[Callable[[K, V], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def items(self) -> Iterator[Tuple[K, V]]:
        return iter(self._data.items())

    def get(self, key: K, touch: bool = True) -> Optional[V]:
        """Return the value for ``key`` (or None), refreshing recency."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return None
        if touch:
            self._data.move_to_end(key)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Return the value for ``key`` without refreshing recency."""
        return self._data.get(key)

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert/update ``key``; return the evicted (key, value) if any."""
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return None
        evicted = None
        if len(self._data) >= self.capacity:
            evicted = self._data.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(*evicted)
        self._data[key] = value
        return evicted

    def pop(self, key: K) -> Optional[V]:
        """Remove ``key`` without invoking the eviction callback."""
        return self._data.pop(key, None)

    def lru_key(self) -> Optional[K]:
        """The key that would be evicted next, or None when empty."""
        if not self._data:
            return None
        return next(iter(self._data))

    def touch(self, key: K) -> bool:
        """Refresh recency of ``key``; returns False when absent."""
        if key not in self._data:
            return False
        self._data.move_to_end(key)
        return True

    def clear(self) -> None:
        self._data.clear()

