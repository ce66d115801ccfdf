"""Spatio-Temporal Memory Streaming (STeMS) — the paper's contribution.

Components:

* :class:`~repro.prefetch.stems.pst.PatternSequenceTable` — spatial access
  *sequences* with per-block 2-bit counters and reconstruction deltas;
* the RMOB — a :class:`~repro.prefetch.tms.cmob.CircularMissBuffer`
  recording only spatial triggers and spatially-unpredicted misses;
* :class:`~repro.prefetch.stems.reconstruction.Reconstructor` — interleaves
  temporal and spatial predictions into one total predicted miss order;
* :class:`~repro.prefetch.stems.stems.STeMSPrefetcher` — ties it together
  with stream queues, SVB throttling and spatial-only streams.
"""

from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.stems.reconstruction import ReconstructionResult, Reconstructor
from repro.prefetch.stems.stems import STeMSPrefetcher

__all__ = [
    "PatternSequenceTable",
    "ReconstructionResult",
    "Reconstructor",
    "STeMSPrefetcher",
]
