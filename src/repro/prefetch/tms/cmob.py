"""Circular miss-order buffer (CMOB) with a most-recent-occurrence index.

TMS stores the global off-chip miss sequence in a large circular buffer in
main memory (~2 MB/processor) and maps each address to its most recent
position so that a new miss can locate where to start streaming (§2.2).
STeMS reuses the same structure for its RMOB, with (PC, delta) payload per
entry (§4.1).

Positions are *absolute* (monotonically increasing); an entry is readable
while it has not been overwritten, i.e. while ``position > head - capacity``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple


class MissEntry(NamedTuple):
    """One recorded miss. TMS ignores ``pc``/``delta``; STeMS uses both.

    The buffer stores and returns plain ``(block, pc, delta)`` tuples;
    this named form is the same shape, for building entries by name.
    """

    block: int
    pc: int = 0
    delta: int = 0


class CircularMissBuffer:
    """Fixed-capacity circular buffer of ``(block, pc, delta)`` entries
    with an address index."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: List[Optional[Tuple[int, int, int]]] = [None] * capacity
        self._index: Dict[int, int] = {}  # block -> most recent absolute pos
        self._head = 0  # absolute position of the next append
        self.appends = 0

    def __len__(self) -> int:
        return min(self._head, self.capacity)

    @property
    def head(self) -> int:
        return self._head

    def append(self, block: int, pc: int = 0, delta: int = 0) -> int:
        """Record a miss; returns its absolute position."""
        pos = self._head
        slot = pos % self.capacity
        overwritten = self._ring[slot]
        if overwritten is not None:
            # drop the index mapping only if it still points at this slot
            old_block = overwritten[0]
            stale = self._index.get(old_block)
            if stale is not None and stale % self.capacity == slot and stale != pos:
                del self._index[old_block]
        self._ring[slot] = (block, pc, delta)
        self._index[block] = pos
        self._head = pos + 1
        self.appends += 1
        return pos

    def find(self, block: int) -> Optional[int]:
        """Absolute position of the most recent occurrence of ``block``."""
        pos = self._index.get(block)
        if pos is None or not self._valid(pos):
            return None
        return pos

    def get(self, pos: int) -> Optional[Tuple[int, int, int]]:
        """Entry at absolute position ``pos`` if still resident."""
        if not self._valid(pos):
            return None
        return self._ring[pos % self.capacity]

    def read_from(self, pos: int, count: int) -> List[Tuple[int, int, int]]:
        """Up to ``count`` consecutive entries starting at ``pos`` (none
        unless ``pos`` is resident). Every position from a resident one
        to the head is resident too, so this is one slice of the ring,
        or two when the run wraps."""
        end = min(pos + count, self._head)
        if pos >= end or not self._valid(pos):
            return []
        start = pos % self.capacity
        stop = start + end - pos
        if stop <= self.capacity:
            return self._ring[start:stop]
        return self._ring[start:] + self._ring[:stop - self.capacity]

    def _valid(self, pos: int) -> bool:
        return 0 <= pos < self._head and pos > self._head - self.capacity - 1
