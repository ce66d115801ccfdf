"""The trace walk's chunk layer.

Every job funnels through one streaming trace walk, so the per-record
Python overhead of that walk bounds throughput for the whole system.
The walk therefore moves in aligned chunks of :data:`CHUNK_RECORDS`
records: a stored trace decodes a whole chunk columnar with
``numpy.frombuffer`` (:mod:`repro.kernels.decode`), and an
:class:`AccessChunk` derives the chunk's block ids in one batch
operation, cached for every consumer of the chunk
(:mod:`repro.kernels.prepass`). The driver's ``step_chunk`` and the
analyses' ``update_block`` then run their per-access code over the
chunk inside one C-driven ``map``.
"""

from __future__ import annotations

#: records per chunk: the codec's write/read and index granularity, so
#: one stored chunk decodes into one walked chunk
CHUNK_RECORDS = 4096

# after CHUNK_RECORDS: prepass imports it from this package
from repro.kernels.prepass import (  # noqa: E402
    AccessChunk,
    chunk_accesses,
    iter_trace_chunks,
)

__all__ = [
    "AccessChunk",
    "CHUNK_RECORDS",
    "chunk_accesses",
    "iter_trace_chunks",
]
