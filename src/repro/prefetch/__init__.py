"""Prefetchers: the stride baseline, TMS, SMS, the naive hybrid and STeMS."""

from repro.prefetch.base import AccessEvent, Prefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.ghb import GHBPrefetcher
from repro.prefetch.hybrid import NaiveHybridPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher

__all__ = [
    "AccessEvent",
    "Prefetcher",
    "CompositePrefetcher",
    "GHBPrefetcher",
    "MarkovPrefetcher",
    "StridePrefetcher",
    "SMSPrefetcher",
    "TMSPrefetcher",
    "STeMSPrefetcher",
    "NaiveHybridPrefetcher",
]
