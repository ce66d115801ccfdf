"""Prefetcher interface shared by all predictors.

The coverage driver (:mod:`repro.sim.driver`) feeds every demand access to
the prefetcher as an :class:`AccessEvent` — including where it was serviced
(L1, L2, off-chip memory, or the SVB) — forwards L1 evictions (spatial
generations end on eviction, §2.4), and collects prefetch requests after
each access. A request is a plain ``(block, stream_id, target)`` tuple:
``stream_id`` is -1 outside stream-based prefetchers, and ``target`` names
where the block is installed (:data:`TARGET_SVB` or :data:`TARGET_L1`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.memsys.hierarchy import ServiceLevel
from repro.trace.events import MemoryAccess


#: install targets for prefetched blocks
TARGET_SVB = "svb"
TARGET_L1 = "l1"


@dataclass(slots=True)
class AccessEvent:
    """One demand access as seen by a prefetcher.

    A walk builds one event and overwrites its fields for every access, so
    an event is valid only during the ``on_access`` call that receives it:
    consumers read it there and never keep a reference.
    """

    access: MemoryAccess
    block: int
    level: ServiceLevel
    #: True when the access was serviced by a prefetched block
    covered: bool = False
    #: stream that supplied the block (SVB consumptions only), -1 otherwise
    stream_id: int = -1

    @property
    def offchip(self) -> bool:
        """Whether this access corresponds to an off-chip fetch event.

        Covered accesses still count: the block *was* fetched from memory,
        just earlier and by the prefetcher. Temporal predictors record
        these events to keep their miss sequences contiguous.
        """
        return (
            self.covered
            or self.level is ServiceLevel.MEMORY
            or self.level is ServiceLevel.SVB
        )


#: one prefetch request: (block, stream id, install target)
Request = Tuple[int, int, str]


class Prefetcher(abc.ABC):
    """Base class for all prefetchers."""

    name: str = "prefetcher"

    def __init__(self) -> None:
        self._pending: List[Request] = []

    @abc.abstractmethod
    def on_access(self, event: AccessEvent) -> None:
        """Observe one demand access (training and stream advancement)."""

    def on_l1_eviction(self, block: int) -> None:
        """Observe an L1 eviction (terminates spatial generations)."""

    def on_svb_discard(self, block: int, stream_id: int) -> None:
        """A streamed block left the SVB unused (keeps in-flight counts
        honest so streams are not throttled by stale fetches)."""

    def pop_requests(self) -> Sequence[Request]:
        """Drain the prefetch requests produced by recent events (an empty
        tuple when there are none — most accesses request nothing)."""
        pending = self._pending
        if not pending:
            return ()
        self._pending = []
        return pending

    def _request(self, block: int, target: str, stream_id: int = -1) -> None:
        self._pending.append((block, stream_id, target))
