"""Shared infrastructure: address arithmetic and configuration.

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
]
