"""Memory-system substrate: set-associative caches, a two-level hierarchy
and the streamed value buffer (SVB) prefetch staging buffer."""

from repro.memsys.cache import Cache
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.memsys.svb import StreamedValueBuffer

__all__ = [
    "Cache",
    "Hierarchy",
    "ServiceLevel",
    "StreamedValueBuffer",
]
