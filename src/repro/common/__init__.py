"""Shared infrastructure: address arithmetic, LRU containers, stats, config.

These utilities are deliberately free of simulator policy — every other
subpackage (memory system, prefetchers, analysis) builds on them.
"""

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import (
    CacheConfig,
    SMSConfig,
    StrideConfig,
    STeMSConfig,
    SystemConfig,
    TimingConfig,
    TMSConfig,
)
from repro.common.lru import LRUTable
from repro.common.stats import StatGroup

__all__ = [
    "AddressMap",
    "DEFAULT_ADDRESS_MAP",
    "CacheConfig",
    "SMSConfig",
    "StrideConfig",
    "STeMSConfig",
    "SystemConfig",
    "TimingConfig",
    "TMSConfig",
    "LRUTable",
    "StatGroup",
]
