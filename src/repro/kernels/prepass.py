"""Per-chunk pre-pass: block ids computed once per chunk.

Every consumer of a trace maps each access to its block id
(``address >> block_bits``). :class:`AccessChunk` computes that column
for a whole chunk at once (a numpy shift over the decoded address column
when the chunk came from a stored trace, one comprehension otherwise)
and caches it, so the driver's ``step`` and the streaming analyses
receive precomputed block ids instead of re-deriving them per access.

A chunk is *derived data only*: the :class:`~repro.trace.events.MemoryAccess`
objects inside it are exactly the trace's accesses, in the same order,
so pumping chunks through the per-access simulation code gives the same
results as feeding it one access at a time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, List, Optional

import numpy

from repro.kernels import CHUNK_RECORDS
from repro.telemetry import PHASE_PREPASS, add_phase
from repro.trace.events import MemoryAccess


class AccessChunk:
    """One aligned run of consecutive trace records plus derived columns.

    Args:
        accesses: the decoded records, in trace order.
        start_index: trace index of ``accesses[0]``.
        addresses: optional numpy ``uint64`` column of the accesses'
            byte addresses (the codec's decode hands this over so block
            ids come from a numpy shift instead of per-object attribute
            walks).

    The block-id column is computed lazily and cached per geometry: a
    fan-out group whose consumers share one address map computes it
    exactly once per chunk.
    """

    __slots__ = ("accesses", "start_index", "_addresses", "_blocks_bits",
                 "_blocks")

    def __init__(
        self,
        accesses: List[MemoryAccess],
        start_index: int = 0,
        addresses=None,
    ) -> None:
        self.accesses = accesses
        self.start_index = start_index
        self._addresses = addresses
        self._blocks_bits: Optional[int] = None
        self._blocks: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def blocks_for(self, block_bits: int) -> List[int]:
        """Block ids under a geometry with ``block_bits`` offset bits.

        The unit the ``prepass`` phase timer accounts (one timer call
        per geometry per chunk; the pre-pass runs *inside* a chunk's
        walk step, so its time also appears under ``walk_step``).
        """
        if self._blocks_bits != block_bits:
            start = perf_counter()
            addresses = self._addresses
            if addresses is not None:
                blocks = (addresses >> numpy.uint64(block_bits)).tolist()
            else:
                blocks = [access.address >> block_bits
                          for access in self.accesses]
            self._blocks = blocks
            self._blocks_bits = block_bits
            add_phase(PHASE_PREPASS, perf_counter() - start)
        return self._blocks


def chunk_accesses(
    accesses: Iterable[MemoryAccess],
    chunk_records: int = CHUNK_RECORDS,
) -> Iterator[AccessChunk]:
    """Batch any per-access iterable into :class:`AccessChunk` runs.

    The generic chunking wrapper for sources without a native chunk
    factory (generation passes, record-during-walk tees, in-memory
    traces): the underlying iterator is drained exactly once, in order,
    so side effects of iteration (recording, accounting) happen exactly
    as they would one access at a time.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    iterator = iter(accesses)
    while True:
        batch: List[MemoryAccess] = []
        append = batch.append
        for access in iterator:
            append(access)
            if len(batch) >= chunk_records:
                break
        if not batch:
            return
        yield AccessChunk(batch, start_index=batch[0].index)


def iter_trace_chunks(trace: Iterable[MemoryAccess]) -> Iterator[AccessChunk]:
    """``trace`` as :class:`AccessChunk` runs, whatever its shape.

    Sources expose a native ``iter_chunks`` (a stored trace decodes
    whole chunks columnar); any other per-access iterable is batched
    generically — identical accesses either way.
    """
    chunks = getattr(trace, "iter_chunks", None)
    if chunks is not None:
        return iter(chunks())
    return chunk_accesses(trace)
