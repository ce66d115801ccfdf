"""Record/chunk decode: raw trace bytes → :class:`AccessChunk`.

The record wire format (fixed 29-byte records, see :data:`RECORD`) is
shared by every plane that moves trace bytes: the on-disk codec
(:mod:`repro.tracestore.codec`) frames these records into files, and
the broadcast plane (:mod:`repro.tracestore.broadcast`) ships the same
chunk payloads through shared memory. Both feed their bytes through
:func:`decode_chunk` here, so a broadcast consumer decodes
:class:`AccessChunk` runs straight from the shared buffer — no file
open, no index parse, no second decode path to keep bit-identical.

A chunk decodes columnar with ``numpy.frombuffer``; the access objects
are built with one C-driven ``map``.
"""

from __future__ import annotations

import struct
from time import perf_counter
from typing import List

import numpy

from repro.kernels.prepass import AccessChunk
from repro.telemetry import PHASE_DECODE, add_phase
from repro.trace.events import MemoryAccess

#: one access: pc u64, address u64, depends_on i64 (-1 = None),
#: instr_gap u32, is_write u8
RECORD = struct.Struct("<QQqIB")
RECORD_SIZE = RECORD.size

#: the numpy structured dtype mirroring :data:`RECORD`
RECORD_DTYPE = numpy.dtype([
    ("pc", "<u8"),
    ("address", "<u8"),
    ("depends", "<i8"),
    ("instr_gap", "<u4"),
    ("is_write", "u1"),
])
assert RECORD_DTYPE.itemsize == RECORD_SIZE


def decode_chunk(first_index: int, chunk: bytes) -> AccessChunk:
    """Decode one aligned chunk of raw record bytes.

    The single chunk-decode used by file replay and shared-memory
    broadcast alike: the whole chunk decodes columnar with
    ``numpy.frombuffer`` and the access objects are built with one
    C-driven ``map``.

    The ``chunk_decode`` phase timer wraps this function (one timer
    call per chunk, nothing per record).
    """
    start = perf_counter()
    n = len(chunk) // RECORD_SIZE
    columns = numpy.frombuffer(chunk, dtype=RECORD_DTYPE)
    addresses = columns["address"]
    depends = columns["depends"]
    if bool((depends < 0).all()):
        depends_list: List = [None] * n
    else:
        depends_list = depends.tolist()
        for position in numpy.flatnonzero(depends < 0).tolist():
            depends_list[position] = None
    accesses = list(map(
        MemoryAccess,
        range(first_index, first_index + n),
        columns["pc"].tolist(),
        addresses.tolist(),
        (columns["is_write"] != 0).tolist(),
        depends_list,
        columns["instr_gap"].tolist(),
    ))
    add_phase(PHASE_DECODE, perf_counter() - start)
    return AccessChunk(accesses, start_index=first_index, addresses=addresses)
